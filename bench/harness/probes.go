package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/migrate"
	"repro/internal/noc"
	"repro/internal/persist"
	"repro/internal/vm"
	"repro/internal/word"
)

// Replay probes call one layer's public entry point on a fresh instance,
// fed with the workload's own pattern, and report host time per call.
// They run after the traced phase, outside the CPU profile.

// nsPerOp times op(n) for growing n until one batch takes 20 ms.
func nsPerOp(op func(n int)) float64 {
	for n := 1; ; n *= 2 {
		t0 := time.Now()
		op(n)
		if d := time.Since(t0); d >= 20*time.Millisecond || n >= 1<<30 {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// probe fills the replay metrics. Probes of layers the workload does not
// exercise stay 0.
func (r *runner) probe(v map[string]float64, storeDir string) error {
	runtime.GC() // the probes start from a collected heap, not the traced phase's garbage
	v["isa.decode_ns"] = decodeProbe(r.c.progs)
	var err error
	if v["vm.translate_ns"], v["cache.access_ns"], err = memoryProbes(machineGroups(r.c.jobs)); err != nil {
		return err
	}
	switch j := r.c.jobs[0].(type) {
	case *meshJob:
		v["noc.send_ns"], err = sendProbe(j)
	case *ckptJob:
		v["persist.encode_us"], v["migrate.codec_ns_per_kb"], err = imageProbes(j, filepath.Join(storeDir, "probe"))
	}
	return err
}

// decodeProbe decodes every code word of the corpus.
func decodeProbe(progs []*loaded) float64 {
	var words []word.Word
	for _, p := range progs {
		words = append(words, p.prog.Words...)
	}
	var sink isa.Inst
	ns := nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			if in, err := isa.Decode(words[i%len(words)]); err == nil {
				sink = in
			}
		}
	})
	_ = sink
	return ns
}

// memRef is one data reference of a replayed address stream.
type memRef struct {
	addr  uint64
	write bool
}

// probeSpaceBytes is the physical memory of the probes' fresh space,
// the default machine's.
const probeSpaceBytes = 8 << 20

// machineGroups lists, job by job, the programs that share one machine:
// a corpus job's single program, a domains job's threads, each mesh
// node on its own, the ckpt-migrate program.
func machineGroups(jobs []job) [][]*loaded {
	var out [][]*loaded
	for _, j := range jobs {
		switch j := j.(type) {
		case *nodeJob:
			out = append(out, j.progs)
		case *meshJob:
			for _, p := range j.nodes {
				out = append(out, []*loaded{p})
			}
		case *ckptJob:
			out = append(out, []*loaded{j.prog})
		}
	}
	return out
}

// addressStream replays the data references of the workload's machines
// (up to half the probe space), one machine after another. Within a
// machine the programs interleave round-robin, as the clusters issue
// them; each walks its working set at its stride with its own
// read:write mix. Programs get disjoint page-aligned regions.
func addressStream(groups [][]*loaded) (regions [][2]uint64, refs []memRef) {
	const refsPerMachine = 4096
	type cur struct {
		base, ws, stride, off uint64
		reads, writes, k      int
	}
	next, total := uint64(1)<<30, uint64(0)
	for _, g := range groups {
		var cs []*cur
		for _, p := range g {
			ws, stride := p.WorkingSet, p.Stride
			if ws == 0 {
				ws = p.DataBytes
			}
			if stride == 0 {
				stride = word.BytesPerWord
			}
			size := (ws + vm.PageSize - 1) &^ (vm.PageSize - 1)
			reads, writes := p.Reads, p.Writes
			if reads == 0 {
				reads, writes = 1, 1
			}
			cs = append(cs, &cur{base: next, ws: ws, stride: stride, reads: reads, writes: writes})
			regions = append(regions, [2]uint64{next, size})
			next += size
			total += size
		}
		for n := 0; n < refsPerMachine; n++ {
			c := cs[n%len(cs)]
			refs = append(refs, memRef{addr: (c.base + c.off) &^ (word.BytesPerWord - 1), write: c.k%(c.reads+c.writes) >= c.reads})
			c.k++
			c.off = (c.off + c.stride) % c.ws
		}
		if total > probeSpaceBytes/2 {
			break
		}
	}
	return regions, refs
}

// memoryProbes replays the workload's address stream through
// vm.Space.Translate and through cache.ReadWord/WriteWord.
func memoryProbes(groups [][]*loaded) (translateNs, accessNs float64, err error) {
	regions, refs := addressStream(groups)
	sp, err := vm.NewSpace(probeSpaceBytes, 64)
	if err != nil {
		return 0, 0, err
	}
	for _, rg := range regions {
		if err := sp.EnsureMapped(rg[0], rg[1]); err != nil {
			return 0, 0, fmt.Errorf("probe space: %w", err)
		}
	}
	translateNs = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := sp.Translate(refs[i%len(refs)].addr); err != nil {
				return
			}
		}
	})
	c, err := cache.New(sp, cache.MMachine())
	if err != nil {
		return 0, 0, err
	}
	var now uint64
	val := word.FromInt(1)
	accessNs = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			ref := refs[i%len(refs)]
			var done uint64
			if ref.write {
				done, err = c.WriteWord(ref.addr, val, now)
			} else {
				_, done, err = c.ReadWord(ref.addr, now)
			}
			if err != nil {
				return
			}
			now = done
		}
	})
	return translateNs, accessNs, err
}

// sendProbe replays the first mesh job's traffic (each node to its load
// source and store target and back) through noc.Network.Send.
func sendProbe(j *meshJob) (float64, error) {
	n, err := noc.New(meshConfig(true).Mesh)
	if err != nil {
		return 0, err
	}
	var pairs [][2]int
	for i, t := range j.targets {
		pairs = append(pairs, [2]int{i, t.LoadFrom}, [2]int{t.LoadFrom, i}, [2]int{i, t.StoreTo}, [2]int{t.StoreTo, i})
	}
	var now uint64
	ns := nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			pr := pairs[i%len(pairs)]
			if _, err = n.Send(pr[0], pr[1], now); err != nil {
				return
			}
			now++
		}
	})
	return ns, err
}

// imageProbes runs one ckpt-migrate job keeping its stores, then replays
// persist.Encode over every stored generation and the migrate frame
// codec (EncodeFrame+DecodeFrame) over the encoded images.
func imageProbes(j *ckptJob, dir string) (encodeUs, codecNsPerKB float64, err error) {
	pj := *j
	pj.storeDir, pj.keep = dir, true
	defer os.RemoveAll(dir)
	if out := pj.run(nil); out.err != nil {
		return 0, 0, fmt.Errorf("probe job: %w", out.err)
	}
	runtime.GC()
	type image struct {
		hdr persist.Header
		cp  *kernel.Checkpoint
	}
	var imgs []image
	for _, sub := range []string{"src", "dst"} {
		st, err := persist.Open(filepath.Join(dir, sub), 1)
		if err != nil {
			return 0, 0, err
		}
		gens, err := st.Generations()
		if err != nil {
			return 0, 0, err
		}
		for _, g := range gens {
			cps, d, err := st.LoadImages(g)
			if err != nil {
				return 0, 0, err
			}
			imgs = append(imgs, image{persist.Header{Gen: d.Gen, Parent: d.Parent, Cycle: d.Cycle, Delta: d.Delta}, cps[0]})
		}
	}
	var buf bytes.Buffer
	var frames []*migrate.Frame
	for _, im := range imgs {
		buf.Reset()
		if err := persist.Encode(&buf, im.hdr, im.cp); err != nil {
			return 0, 0, err
		}
		b := buf.Bytes()
		for lo := 0; lo < len(b); lo += migrate.MaxFramePayload {
			hi := min(lo+migrate.MaxFramePayload, len(b))
			frames = append(frames, &migrate.Frame{Kind: migrate.FrameImage, Round: 1, Payload: append([]byte(nil), b[lo:hi]...)})
		}
	}
	encodeUs = nsPerOp(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			buf.Reset()
			im := imgs[i%len(imgs)]
			err = persist.Encode(&buf, im.hdr, im.cp)
		}
	}) / 1e3
	payload := 0
	for _, f := range frames {
		payload += len(f.Payload)
	}
	perFrame := nsPerOp(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			var b []byte
			if b, err = migrate.EncodeFrame(frames[i%len(frames)]); err == nil {
				_, err = migrate.DecodeFrame(b)
			}
		}
	})
	return encodeUs, perFrame / (float64(payload) / float64(len(frames)) / 1024), err
}
