package harness

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the statfs(2) magic numbers of common filesystems.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

// fsType names the filesystem holding path (or its nearest existing
// parent).
func fsType(path string) string {
	var st syscall.Statfs_t
	for p := path; ; p = filepath.Dir(p) {
		if err := syscall.Statfs(p, &st); err == nil {
			break
		}
		if p == "." || p == "/" {
			return "unknown"
		}
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resetPeakRSS restarts the kernel's peak-RSS mark at the current
// resident size (clear_refs "5"), so maxRSSMB covers only what runs
// afterwards.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return // the peak then also covers what ran before
	}
	f.Write([]byte("5"))
	f.Close()
}

// maxRSSMB is the process's peak resident set size (getrusage).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
