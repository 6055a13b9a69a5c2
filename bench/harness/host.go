package harness

import (
	"runtime"
	"runtime/debug"
)

// Host records the machine and build a result was measured on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	StoreFS    string `json:"store_fs"`
}

// HostRecord describes this process; storeDir is where checkpoint
// stores are written.
func HostRecord(storeDir string) Host {
	return Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		StoreFS:    fsType(storeDir),
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
