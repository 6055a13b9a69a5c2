package capverify_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/capverify"
)

// meshProgramFiles are two seed-1 mesh8 node programs (testdata, with
// their generator and seed in the header), of 64 and 128 words; the
// workload's programs range from 26 to 138 words.
var meshProgramFiles = []string{"mesh8_64w.s", "mesh8_128w.s"}

var reportSink *capverify.Report

// BenchmarkVerify times one capverify.Verify per shipped program and
// per mesh8 testdata program, under the configuration registration
// uses (DataBytes 4096), reporting ns/op, B/op and allocs/op.
func BenchmarkVerify(b *testing.B) {
	type named struct {
		name string
		prog *asm.Program
	}
	var progs []named
	for name, prog := range shippedPrograms(b) {
		progs = append(progs, named{name, prog})
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].name < progs[j].name })
	for _, name := range meshProgramFiles {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := asm.AssembleNamed(name, string(src))
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, named{name, prog})
	}
	cfg := capverify.Config{DataBytes: 4096}
	for _, p := range progs {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reportSink = capverify.Verify(p.prog, cfg)
			}
		})
	}
}
