// Package golden holds the committed job digests of the benchmark's
// seeds 1 (the default) and 2 (held out). `mmbench -write-golden`
// regenerates them.
package golden

import (
	"embed"
	"encoding/json"
	"fmt"
	"strconv"
)

//go:embed seed*.json
var files embed.FS

// File is one seed's digests: per workload, the hex digest of every
// corpus entry in corpus order.
type File struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

// FileName is the golden file of seed.
func FileName(seed uint64) string { return fmt.Sprintf("seed%d.json", seed) }

// Load returns the committed digests of workload under seed, or nil
// when there are none.
func Load(seed uint64, workload string) ([]uint64, error) {
	b, err := files.ReadFile(FileName(seed))
	if err != nil {
		return nil, nil
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("golden %s: %w", FileName(seed), err)
	}
	hex := f.Workloads[workload]
	if hex == nil {
		return nil, nil
	}
	out := make([]uint64, len(hex))
	for i, h := range hex {
		if out[i], err = strconv.ParseUint(h, 16, 64); err != nil {
			return nil, fmt.Errorf("golden %s %s[%d]: %w", FileName(seed), workload, i, err)
		}
	}
	return out, nil
}
