package faultinject

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/multi"
	"repro/internal/noc"
	"repro/internal/word"
)

// The mesh workload: a row of nodes where node 0 runs one thread doing
// dependent remote loads from a segment homed on the last node and one
// thread sweeping a local segment. On the 4-node campaign mesh, nodes 1
// and 2 carry no threads — they are route-through fabric and, for the
// node-kill class, genuinely redundant hardware. On the 2-node recovery
// mesh, node 1 is a passive home node: all mutable state lives on node
// 0, so restoring node 0 from a checkpoint rewinds the entire
// computation (the remote traffic is read-only).
const meshWatchdog = 6000

// meshClean is the mesh workload's uninjected reference run on a row of
// nodes: reference cycle count, fingerprint, and total message count
// (the NoC classes pick their victim message out of this population).
type meshClean struct {
	nodes int
	// remote and local are the workload's two programs, assembled once
	// and shared read-only by every trial.
	remote, local *asm.Program

	cycles   uint64
	fp       uint64
	messages uint64
}

var meshRemoteSrc = `
	ldi r3, 60
loop:
	ld   r2, r1, 0
	ld   r4, r1, 8
	add  r5, r5, r2
	add  r5, r5, r4
	subi r3, r3, 1
	bnez r3, loop
	halt
`

var meshLocalSrc = `
	ldi r3, 48
	mov r4, r1
	ldi r5, 11
wr:	st   r4, 0, r5
	addi r5, r5, 5
	leai r4, r4, 8
	subi r3, r3, 1
	bnez r3, wr
	ldi r3, 48
	mov r4, r1
rd:	ld   r6, r4, 0
	add  r7, r7, r6
	leai r4, r4, 8
	subi r3, r3, 1
	bnez r3, rd
	halt
`

// meshConfig is a row of dimX campaign nodes with the watchdog armed.
// tolerant adds the reliable transport, coordinated checkpoints in a
// ring, and watchdog-escalated auto-recovery.
func (st stack) meshConfig(dimX int) multi.Config {
	cfg := multi.DefaultConfig()
	cfg.Mesh = noc.Config{DimX: dimX, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Node = campaignNode()
	cfg.WatchdogCycles = meshWatchdog
	if st == tolerant {
		cfg.Mesh.Transport.Enabled = true
		cfg.CheckpointEvery = tolCkptInterval
		cfg.CheckpointKeep = tolCkptKeep
		cfg.AutoRecover = true
		cfg.MaxRestores = tolMaxRestores
	}
	return cfg
}

// bootMesh boots a campaign multicomputer: flight rings on every node
// and the fabric, ic on the fabric, the workload placed by load, and —
// when cfg checkpoints — generation 0 banked before the first cycle.
func bootMesh(cfg multi.Config, ic noc.Interceptor, load func(*multi.System) error) (*multi.System, error) {
	s, err := multi.New(cfg)
	if err != nil {
		return nil, err
	}
	s.Net.Interceptor = ic
	s.EnableFlight(flightRingSize)
	if err := load(s); err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery > 0 {
		if err := s.CheckpointNow(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// boot boots a fresh copy of the clean run's mesh under st, with ic on
// the fabric.
func (c *meshClean) boot(st stack, ic noc.Interceptor) (*multi.System, error) {
	return bootMesh(st.meshConfig(c.nodes), ic, c.load)
}

// load places the two-thread mesh workload on node 0, each thread with
// its segment in r1: the remote thread's homed on the last node, the
// local thread's on node 0.
func (c *meshClean) load(s *multi.System) error {
	for i, t := range []struct {
		prog *asm.Program
		home int
	}{{c.remote, c.nodes - 1}, {c.local, 0}} {
		seg, err := s.Nodes[t.home].K.AllocSegment(4096)
		if err != nil {
			return err
		}
		ip, err := s.Nodes[0].K.LoadProgram(t.prog, false)
		if err != nil {
			return err
		}
		if _, err := s.Nodes[0].K.Spawn(1+i, ip, map[int]word.Word{1: seg.Word()}); err != nil {
			return err
		}
	}
	return nil
}

// meshThreads collects every thread in the system for fingerprinting.
func meshThreads(s *multi.System) []*machine.Thread {
	var all []*machine.Thread
	for _, n := range s.Nodes {
		all = append(all, n.K.M.Threads()...)
	}
	return all
}

// prepareMesh assembles the mesh workload and runs it once, uninjected
// and under the bare stack, on a row of nodes.
func prepareMesh(nodes int) (*meshClean, error) {
	c := &meshClean{nodes: nodes}
	var err error
	if c.remote, err = asm.Assemble(meshRemoteSrc); err != nil {
		return nil, err
	}
	if c.local, err = asm.Assemble(meshLocalSrc); err != nil {
		return nil, err
	}
	s, err := c.boot(bare, nil)
	if err != nil {
		return nil, err
	}
	c.cycles = s.Run(1_000_000)
	if !s.Done() || s.Hung() {
		return nil, fmt.Errorf("faultinject: clean mesh run did not finish (hung=%v)", s.Hung())
	}
	for _, t := range meshThreads(s) {
		if t.State != machine.Halted {
			return nil, fmt.Errorf("faultinject: clean mesh thread %d: %v %v", t.ID, t.State, t.Fault)
		}
	}
	c.fp = machine.FingerprintThreads(meshThreads(s))
	c.messages = s.Net.Stats().Messages
	return c, nil
}

// classify is the back half of every mesh, node and migration trial. A
// surviving fault is classified by its detection signal, a hang is the
// watchdog's detection, a run still going at the end of its budget or a
// fingerprint other than the clean fp escapes, and a clean finish is
// ok. Under tolerant the stack should have repaired a surviving fault
// or hang, so either is unrecovered. The stack's repair counters ride
// along; under bare they are all zero.
func (st stack) classify(s *multi.System, fp uint64, ok trialResult) trialResult {
	r := ok
	threads := meshThreads(s)
	switch t := faultedThread(threads); {
	case t != nil:
		r = classifyFault(t.Fault)
		if st == tolerant {
			r.detail = "unrecovered-" + r.detail
		}
	case s.Hung():
		r = trialResult{outcome: Detected, detail: "watchdog"}
		if st == tolerant {
			r.detail = "unrecovered-hang"
		}
	case !s.Done():
		r = trialResult{outcome: Escaped, detail: "timeout"}
	case machine.FingerprintThreads(threads) != fp:
		r = trialResult{outcome: Escaped, detail: "silent-divergence"}
	}
	ns := s.Net.Stats()
	r.restores = s.Restores()
	r.checkpoints = s.Checkpoints()
	r.retransmits = ns.Retransmits
	r.dupSupp = ns.DupSuppressed
	if rep := s.MigrateReport(); rep != nil {
		r.migrateRetrans = rep.Link.Retransmits
		r.migrateDupSupp = rep.Link.DupSuppressed
		if !rep.Committed {
			r.migrateAborts = 1
		}
	}
	return r
}

// repaired is a mesh trial's clean finish: Tolerated under the
// mechanism that repaired the fault, or Masked under maskDetail when
// nothing needed repair.
func repaired(s *multi.System, maskDetail string) trialResult {
	ns := s.Net.Stats()
	switch {
	case ns.Retransmits > 0:
		return trialResult{outcome: Tolerated, detail: "retransmit"}
	case ns.DupSuppressed > 0:
		return trialResult{outcome: Tolerated, detail: "dup-suppressed"}
	case s.Restores() > 0:
		return trialResult{outcome: Tolerated, detail: "auto-restore"}
	}
	return trialResult{outcome: Masked, detail: maskDetail}
}

// withFlight captures every flight recorder in the system into r when
// st cannot explain r's outcome.
func (st stack) withFlight(s *multi.System, r trialResult) trialResult {
	if st.unexplained(r.outcome) {
		var b strings.Builder
		if err := s.FlightDump(&b, r.detail); err == nil {
			r.flight = b.String()
		}
	}
	return r
}

// runNoCTrial injects one message fault of the given class into the
// mesh workload under st and classifies the outcome: the bare fabric
// must detect it or shrug it off, the reliable transport must hide it.
func (st stack) runNoCTrial(class Class, clean *meshClean, seed uint64) trialResult {
	rng := NewRNG(seed)
	var fate noc.Fate
	var maskDetail string
	switch class {
	case NoCDrop:
		fate.Drop = true
		maskDetail = "drop"
	case NoCDuplicate:
		fate.Duplicate = true
		maskDetail = "duplicate"
	case NoCCorrupt:
		fate.Corrupt = true
		maskDetail = "corrupt"
	case NoCDelay:
		fate.Delay = 1 + rng.Uint64n(400)
		maskDetail = "delay"
	default:
		return trialResult{outcome: Escaped, detail: "bad-class"}
	}
	mf := &MessageFaulter{Target: rng.Uint64n(clean.messages), Fate: fate}
	s, err := clean.boot(st, mf)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	s.Run(st.budget(clean.cycles))
	return st.withFlight(s, st.classify(s, clean.fp, repaired(s, maskDetail)))
}

// runNodeTrial kills or stalls one node mid-run under st and classifies
// the outcome. Under bare, a load-bearing node trips the watchdog
// (detected), an idle node's death is survivable redundancy (masked),
// and a bounded stall is a transient the fabric rides out (masked).
// Under tolerant, the tripped watchdog restores every node from the
// newest coordinated generation and resumes, with no caller
// intervention.
func (st stack) runNodeTrial(class Class, clean *meshClean, seed uint64) trialResult {
	rng := NewRNG(seed)
	s, err := clean.boot(st, nil)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	s.Run(1 + rng.Uint64n(clean.cycles*3/4))
	victim := rng.Intn(len(s.Nodes))
	var maskDetail string
	switch class {
	case NodeKill:
		err = s.Kill(victim)
		maskDetail = fmt.Sprintf("kill-node%d", victim)
	case NodeStall:
		err = s.Stall(victim, s.Cycle()+1+rng.Uint64n(2000))
		maskDetail = "stall"
	default:
		return trialResult{outcome: Escaped, detail: "bad-class"}
	}
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	s.Run(st.budget(clean.cycles))
	return st.withFlight(s, st.classify(s, clean.fp, repaired(s, maskDetail)))
}
