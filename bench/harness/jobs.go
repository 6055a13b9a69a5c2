package harness

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/bench/gen"
	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/multi"
	"repro/internal/persist"
	"repro/internal/word"
)

// loaded is one generated program after set-up: assembled and verified.
type loaded struct {
	gen.Program
	prog *asm.Program
}

// job is one corpus entry, ready to run. run boots a fresh system, runs
// it to halt, stops the clock, then checks the outcome.
type job interface {
	name() string
	run(tr *tracer) outcome
}

// outcome is what one job produced. err is set when any check failed.
type outcome struct {
	elapsed time.Duration // boot to halt; excludes the checks
	digest  uint64
	c       counters
	err     error
}

// counters are the per-layer event counts one job contributes; the run
// sums them over its timed jobs.
type counters struct {
	jobs, instr, cycles, clusterCycles, idle, domainSwaps uint64

	translations, pageWalks, demandMaps, tlbHits, tlbMisses uint64

	cacheAccesses, cacheHits, writebacks, conflictCycles, memWaitCycles uint64

	jitCompiled, jitEntries, jitElided, jitRetained, jitInvalidated uint64

	nocMessages, nocHops, nocLatency, nocContention, nocRetransmits uint64
	remoteOps, meshCycles                                           uint64

	captures, persistBytes, deltaPages uint64

	migrations, migrateRounds, migratePages, migrateWireBytes uint64
}

func (c *counters) add(o counters) {
	c.jobs += o.jobs
	c.instr += o.instr
	c.cycles += o.cycles
	c.clusterCycles += o.clusterCycles
	c.idle += o.idle
	c.domainSwaps += o.domainSwaps
	c.translations += o.translations
	c.pageWalks += o.pageWalks
	c.demandMaps += o.demandMaps
	c.tlbHits += o.tlbHits
	c.tlbMisses += o.tlbMisses
	c.cacheAccesses += o.cacheAccesses
	c.cacheHits += o.cacheHits
	c.writebacks += o.writebacks
	c.conflictCycles += o.conflictCycles
	c.memWaitCycles += o.memWaitCycles
	c.jitCompiled += o.jitCompiled
	c.jitEntries += o.jitEntries
	c.jitElided += o.jitElided
	c.jitRetained += o.jitRetained
	c.jitInvalidated += o.jitInvalidated
	c.nocMessages += o.nocMessages
	c.nocHops += o.nocHops
	c.nocLatency += o.nocLatency
	c.nocContention += o.nocContention
	c.nocRetransmits += o.nocRetransmits
	c.remoteOps += o.remoteOps
	c.meshCycles += o.meshCycles
	c.captures += o.captures
	c.persistBytes += o.persistBytes
	c.deltaPages += o.deltaPages
	c.migrations += o.migrations
	c.migrateRounds += o.migrateRounds
	c.migratePages += o.migratePages
	c.migrateWireBytes += o.migrateWireBytes
}

// noteMachine adds one machine's statistics.
func (c *counters) noteMachine(m *machine.Machine) {
	st := m.Stats()
	c.instr += st.Instructions
	c.cycles += st.Cycles
	c.clusterCycles += st.Cycles * uint64(m.Config().Clusters)
	c.idle += st.IdleCycles
	c.domainSwaps += st.DomainSwaps
	sp := m.Space.Stats()
	c.translations += sp.Translations
	c.pageWalks += sp.PageWalks
	c.demandMaps += sp.DemandMaps
	tl := m.Space.TLB.Stats()
	c.tlbHits += tl.Hits
	c.tlbMisses += tl.Misses
	cs := m.Cache.Stats()
	c.cacheAccesses += cs.Accesses
	c.cacheHits += cs.Hits
	c.writebacks += cs.Writebacks
	c.conflictCycles += cs.ConflictCycles
	c.memWaitCycles += cs.MemWaitCycles
	if e := m.JIT(); e != nil {
		c.jitCompiled += e.Counters.Compiled
		c.jitEntries += e.Counters.Entries
		c.jitElided += e.Counters.ElidedSites
		c.jitRetained += e.Counters.RetainedSites
		c.jitInvalidated += e.Counters.Invalidated
	}
}

// digester builds a job's architectural digest: the migrate package's
// image fingerprint of every kernel plus every machine, cache, TLB and
// translation counter (and the mesh's, for mesh jobs), hashed with
// FNV-1a. Equal digests mean equal architectural state and equal
// simulated timing.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) sum() uint64 { return d.h.Sum64() }

func (d *digester) kernel(k *kernel.Kernel) error {
	cp, err := k.Checkpoint()
	if err != nil {
		return fmt.Errorf("checkpoint for digest: %w", err)
	}
	d.image(k, cp)
	return nil
}

// image hashes cp, a checkpoint of k, with k's machine statistics.
func (d *digester) image(k *kernel.Kernel, cp *kernel.Checkpoint) {
	m := k.M
	fmt.Fprintf(d.h, "fp=%x|%+v|%+v|%+v|%+v\n", migrate.FingerprintImage(cp),
		m.Stats(), m.Cache.Stats(), m.Space.TLB.Stats(), m.Space.Stats())
}

func (d *digester) value(v any) { fmt.Fprintf(d.h, "%+v\n", v) }

// cycleBudget bounds a run at many times the cycles its instruction
// count needs; hitting it is a failure.
func cycleBudget(instr uint64) uint64 { return 50*instr + 1_000_000 }

// checkThread compares a halted thread with its program's Go model.
func checkThread(th *machine.Thread, p gen.Program) error {
	if th.State != machine.Halted {
		return fmt.Errorf("%s: thread %v (%v)", p.Name, th.State, th.Fault)
	}
	if got := th.Reg(4).Int(); got != p.Result {
		return fmt.Errorf("%s: r4 = %d, model says %d", p.Name, got, p.Result)
	}
	if th.Instret != p.Instr {
		return fmt.Errorf("%s: retired %d instructions, model says %d", p.Name, th.Instret, p.Instr)
	}
	return nil
}

// spawnProgram loads p into k, hands it a fresh data segment in r1 in a
// new protection domain, and returns the thread and the code pointer.
// The extra words, if any, are written at the start of the segment.
func spawnProgram(k *kernel.Kernel, p *loaded, extra ...word.Word) (*machine.Thread, core.Pointer, error) {
	ip, err := k.LoadProgram(p.prog, false)
	if err != nil {
		return nil, ip, err
	}
	seg, err := k.AllocSegment(p.DataBytes)
	if err != nil {
		return nil, ip, err
	}
	if len(extra) > 0 {
		if err := k.WriteWords(seg, extra); err != nil {
			return nil, ip, err
		}
	}
	th, err := k.Spawn(k.NewDomain(), ip, map[int]word.Word{1: seg.Word()})
	return th, ip, err
}

// register hands a loaded program to the translator under the entry
// contract spawnProgram establishes (r1 = the data segment, nothing
// else live); a no-op with the translator off.
func register(tr *tracer, k *kernel.Kernel, p *loaded, ip core.Pointer) {
	if k.M.JIT() == nil {
		return
	}
	sp := tr.begin("jit.Register")
	k.M.JITRegister(p.prog, ip.Addr(), capverify.Config{DataBytes: p.DataBytes})
	tr.end(sp)
}

// --- one node, one or more threads (interp-corpus, jit-corpus, domains-mem)

type nodeJob struct {
	label   string
	progs   []*loaded
	withJIT bool
}

func (j *nodeJob) name() string { return j.label }

func (j *nodeJob) run(tr *tracer) (out outcome) {
	t0 := time.Now()
	sp := tr.begin("kernel.boot")
	k, err := kernel.New(machine.MMachine())
	if err != nil {
		tr.end(sp)
		return outcome{err: err}
	}
	if j.withJIT {
		k.M.EnableJIT(jit.DefaultConfig())
	}
	ths := make([]*machine.Thread, len(j.progs))
	ips := make([]core.Pointer, len(j.progs))
	var instr uint64
	for i, p := range j.progs {
		if ths[i], ips[i], err = spawnProgram(k, p); err != nil {
			tr.end(sp)
			return outcome{err: fmt.Errorf("%s: %w", p.Name, err)}
		}
		instr += p.Instr
	}
	tr.end(sp)
	for i, p := range j.progs {
		register(tr, k, p, ips[i])
	}
	sp = tr.begin("kernel.Run")
	k.Run(cycleBudget(instr))
	tr.end(sp)
	out.elapsed = time.Since(t0)

	out.c.jobs = 1
	out.c.noteMachine(k.M)
	d := newDigester()
	if out.err = d.kernel(k); out.err != nil {
		return out
	}
	out.digest = d.sum()
	for i, p := range j.progs {
		if err := checkThread(ths[i], p.Program); err != nil {
			out.err = err
			return out
		}
	}
	return out
}

// --- mesh8 ------------------------------------------------------------------

type meshJob struct {
	label   string
	nodes   []*loaded
	targets []gen.MeshNode
	withJIT bool
}

func (j *meshJob) name() string { return j.label }

// meshConfig is the default 2×2×2 multicomputer with the reliable
// transport on and two scheduler workers.
func meshConfig(withJIT bool) multi.Config {
	cfg := multi.DefaultConfig()
	cfg.JIT = withJIT
	cfg.Workers = 2
	cfg.Mesh.Transport.Enabled = true
	return cfg
}

func (j *meshJob) run(tr *tracer) (out outcome) {
	t0 := time.Now()
	sp := tr.begin("multi.boot")
	s, ths, ips, err := j.boot()
	tr.end(sp)
	if err != nil {
		return outcome{err: err}
	}
	for i, n := range s.Nodes {
		register(tr, n.K, j.nodes[i], ips[i])
	}
	var instr uint64
	for _, p := range j.nodes {
		instr += p.Instr
	}
	sp = tr.begin("multi.Run")
	s.Run(cycleBudget(instr))
	tr.end(sp)
	out.elapsed = time.Since(t0)

	out.c.jobs = 1
	d := newDigester()
	for _, n := range s.Nodes {
		out.c.noteMachine(n.K.M)
		if out.err = d.kernel(n.K); out.err != nil {
			return out
		}
	}
	ns, ms := s.Net.Stats(), s.Stats()
	d.value(ns)
	d.value(ms)
	out.digest = d.sum()
	out.c.nocMessages = ns.Messages
	out.c.nocHops = ns.TotalHops
	out.c.nocLatency = ns.TotalLatency
	out.c.nocContention = ns.ContentionCycles
	out.c.nocRetransmits = ns.Retransmits
	out.c.remoteOps = ms.RemoteReads + ms.RemoteWrites
	out.c.meshCycles = s.Cycle()
	if s.Hung() {
		out.err = fmt.Errorf("%s: mesh watchdog tripped", j.label)
		return out
	}
	for i, th := range ths {
		if err := checkThread(th, j.nodes[i].Program); err != nil {
			out.err = err
			return out
		}
	}
	return out
}

// boot builds the mesh: every node gets a public segment filled with
// gen.PublicWord values and a mailbox, then a program whose data
// segment starts with pointers to its load source's public segment and
// to its own slot of its store target's mailbox.
func (j *meshJob) boot() (*multi.System, []*machine.Thread, []core.Pointer, error) {
	s, err := multi.New(meshConfig(j.withJIT))
	if err != nil {
		return nil, nil, nil, err
	}
	pub := make([]core.Pointer, len(s.Nodes))
	box := make([]core.Pointer, len(s.Nodes))
	vals := make([]word.Word, gen.PublicWords)
	for i, n := range s.Nodes {
		if pub[i], err = n.K.AllocSegment(gen.PublicWords * word.BytesPerWord); err != nil {
			return nil, nil, nil, err
		}
		for w := range vals {
			vals[w] = word.FromInt(gen.PublicWord(i, w))
		}
		if err := n.K.WriteWords(pub[i], vals); err != nil {
			return nil, nil, nil, err
		}
		if box[i], err = n.K.AllocSegment(uint64(len(s.Nodes)) * gen.MailboxSlotBytes); err != nil {
			return nil, nil, nil, err
		}
	}
	ths := make([]*machine.Thread, len(s.Nodes))
	ips := make([]core.Pointer, len(s.Nodes))
	for i, n := range s.Nodes {
		t := j.targets[i]
		slot, err := core.LEA(box[t.StoreTo], int64(i*gen.MailboxSlotBytes))
		if err != nil {
			return nil, nil, nil, err
		}
		if ths[i], ips[i], err = spawnProgram(n.K, j.nodes[i], pub[t.LoadFrom].Word(), slot.Word()); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", j.nodes[i].Name, err)
		}
	}
	return s, ths, ips, nil
}

// --- ckpt-migrate -------------------------------------------------------

type ckptJob struct {
	label     string
	prog      *loaded
	migrateAt uint64
	storeDir  string // parent directory for this job's two stores
	keep      bool   // leave the stores on disk (replay probes read them)
}

func (j *ckptJob) name() string { return j.label }

// boot brings up a fresh JIT-enabled node running the program.
func (j *ckptJob) boot(tr *tracer) (*kernel.Kernel, core.Pointer, error) {
	sp := tr.begin("kernel.boot")
	defer tr.end(sp)
	k, err := kernel.New(machine.MMachine())
	if err != nil {
		return nil, core.Pointer{}, err
	}
	k.M.EnableJIT(jit.DefaultConfig())
	_, ip, err := spawnProgram(k, j.prog)
	return k, ip, err
}

// capture writes the next generation and records how much of the
// capture was the store's write (its capture-latency histogram times
// exactly WriteGeneration) as opposed to the kernel's page scan.
func capture(tr *tracer, sv *persist.Saver, st *persist.Store, k *kernel.Kernel, cycle uint64) error {
	w0 := st.HistCapture().Sum()
	t0 := time.Now()
	sp := tr.begin("persist.Capture")
	_, err := sv.Capture(k, cycle)
	tr.end(sp)
	if tr != nil && err == nil {
		total := time.Since(t0).Nanoseconds()
		write := int64(st.HistCapture().Sum() - w0)
		tr.note("persist.write_us", float64(write)/1e3)
		tr.note("kernel.capture_us", float64(total-write)/1e3)
	}
	return err
}

// openStore opens a fresh single-node store with its saver.
func openStore(dir string) (*persist.Store, *persist.Saver, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	st, err := persist.Open(dir, 1)
	if err != nil {
		return nil, nil, err
	}
	sv, err := persist.NewSaver(st, persist.DefaultBaseEvery)
	return st, sv, err
}

// run checkpoints every gen.CkptInterval cycles into a first store,
// live-migrates the node at migrateAt, continues on the standby with a
// second store (as mmsim -migrate-to does), and ends by restoring the
// newest generation, which must reproduce the final fingerprint.
func (j *ckptJob) run(tr *tracer) (out outcome) {
	srcDir, dstDir := filepath.Join(j.storeDir, "src"), filepath.Join(j.storeDir, "dst")
	if !j.keep {
		defer os.RemoveAll(j.storeDir)
	}
	t0 := time.Now()
	k, ip, err := j.boot(tr)
	if err != nil {
		return outcome{err: err}
	}
	register(tr, k, j.prog, ip)
	st, sv, err := openStore(srcDir)
	if err != nil {
		return outcome{err: err}
	}
	budget := cycleBudget(j.prog.Instr)
	var src *kernel.Kernel // the source node, once migrated away from
	var rep *migrate.Report
	var offset uint64 // source cycles before the cutover
	stores := []*persist.Store{st}
	next := uint64(gen.CkptInterval)
	for !k.M.Done() && offset+k.M.Cycle() < budget {
		target := next
		if src == nil && j.migrateAt < target {
			target = j.migrateAt
		}
		sp := tr.begin("kernel.Run")
		k.Run(target - offset - k.M.Cycle())
		tr.end(sp)
		now := offset + k.M.Cycle()
		if now >= next {
			if err := capture(tr, sv, st, k, now); err != nil {
				return outcome{err: err}
			}
			next = nextInterval(now)
		}
		if src != nil || now < j.migrateAt || k.M.Done() {
			continue
		}
		if rep, err = j.migrate(tr, k); err != nil {
			return outcome{err: err}
		}
		src, offset = k, k.M.Cycle()
		if k, err = kernel.Restore(machine.MMachine(), rep.Image); err != nil {
			return outcome{err: fmt.Errorf("standby boot: %w", err)}
		}
		k.M.EnableJIT(jit.DefaultConfig())
		register(tr, k, j.prog, ip)
		if st, sv, err = openStore(dstDir); err != nil {
			return outcome{err: err}
		}
		stores = append(stores, st)
		if err := capture(tr, sv, st, k, offset); err != nil {
			return outcome{err: err}
		}
		// Pre-copy ran the source on without captures; the standby's
		// first capture schedule starts after the cutover.
		next = nextInterval(offset)
	}
	if err := capture(tr, sv, st, k, offset+k.M.Cycle()); err != nil {
		return outcome{err: err}
	}
	sp := tr.begin("persist.RestoreNewest")
	restored, _, _, err := persist.RestoreNewest(st, machine.MMachine())
	tr.end(sp)
	out.elapsed = time.Since(t0)
	if err != nil {
		out.err = fmt.Errorf("restore: %w", err)
		return out
	}

	out.c.jobs = 1
	d := newDigester()
	if src != nil {
		out.c.noteMachine(src.M)
		// The committed image is the source's state at the cutover: the
		// standby verified its fingerprint before taking over.
		d.image(src, rep.Image)
		out.c.migrations = 1
		out.c.migrateRounds = uint64(len(rep.Rounds))
		out.c.migratePages = uint64(rep.TotalPages())
		out.c.migrateWireBytes = rep.Link.PayloadBytes
		d.value(rep.Rounds)
		d.value(rep.STWCycles)
		tr.note("migrate.stw_cycles", float64(rep.STWCycles))
	}
	out.c.noteMachine(k.M)
	final, err := k.Checkpoint()
	if err != nil {
		out.err = err
		return out
	}
	d.image(k, final)
	for _, s := range stores {
		ps := s.Stats()
		out.c.captures += ps.Captures
		out.c.persistBytes += ps.BytesWritten
		out.c.deltaPages += ps.DeltaPages
		d.value(ps.Captures)
		d.value(ps.BytesWritten)
	}
	out.digest = d.sum()

	switch {
	case src == nil:
		out.err = fmt.Errorf("%s: finished before the migration point", j.label)
	case offset+k.M.Cycle() >= budget && !k.M.Done():
		out.err = fmt.Errorf("%s: cycle budget exhausted", j.label)
	default:
		out.err = sameImage(restored, final)
	}
	if out.err == nil {
		out.err = checkThread(k.M.Threads()[0], j.prog.Program)
	}
	return out
}

// nextInterval is the first capture boundary after cycle.
func nextInterval(cycle uint64) uint64 {
	return (cycle/gen.CkptInterval + 1) * gen.CkptInterval
}

// ckptLink is the migration wire: 64 bytes per cycle, so a 2 MB image
// crosses in about 33k cycles and pre-copy overlaps the run instead of
// outlasting it.
var ckptLink = migrate.LinkConfig{BytesPerCycle: 64}

// migrate moves k onto a standby over a simulated wire; the source keeps
// running while each pre-copy round is in flight.
func (j *ckptJob) migrate(tr *tracer, k *kernel.Kernel) (*migrate.Report, error) {
	recv := migrate.NewReceiver()
	link := migrate.NewLink(ckptLink)
	link.Deliver = recv.Deliver
	sp := tr.begin("migrate.Run")
	rep, err := migrate.Run(k, link, recv, func(c uint64) {
		sp := tr.begin("kernel.Run")
		k.Run(c)
		tr.end(sp)
	}, migrate.Config{})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	if !rep.Committed {
		return nil, fmt.Errorf("migration did not commit: %s", rep.Reason)
	}
	return rep, nil
}

// errImage reports a restore that does not reproduce the image it
// restored.
var errImage = errors.New("restored image fingerprint differs from the captured one")

func sameImage(k *kernel.Kernel, want *kernel.Checkpoint) error {
	cp, err := k.Checkpoint()
	if err != nil {
		return err
	}
	if migrate.FingerprintImage(cp) != migrate.FingerprintImage(want) {
		return errImage
	}
	return nil
}
