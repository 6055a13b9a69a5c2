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

// The mesh workload: a 4×1×1 multicomputer where node 0 runs one
// thread doing dependent remote loads from a segment homed on node 3
// and one thread sweeping a local segment. Nodes 1 and 2 carry no
// threads — they are route-through fabric and, for the node-kill
// class, genuinely redundant hardware.
const meshWatchdog = 6000

type meshClean struct {
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

// buildMesh boots the fault-campaign multicomputer with the watchdog
// armed and, optionally, an interceptor on the fabric.
func buildMesh(ic noc.Interceptor) (*multi.System, error) {
	cfg := multi.DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 4, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 2
	cfg.WatchdogCycles = meshWatchdog
	s, err := multi.New(cfg)
	if err != nil {
		return nil, err
	}
	s.Net.Interceptor = ic
	s.EnableFlight(flightRingSize)
	if err := loadMeshWorkload(s, 3); err != nil {
		return nil, err
	}
	return s, nil
}

// loadMeshWorkload places the two-thread mesh workload on node 0 with
// the remote thread's segment homed on node farNode.
func loadMeshWorkload(s *multi.System, farNode int) error {
	far, err := s.Nodes[farNode].K.AllocSegment(4096)
	if err != nil {
		return err
	}
	remote, err := asm.Assemble(meshRemoteSrc)
	if err != nil {
		return err
	}
	local, err := asm.Assemble(meshLocalSrc)
	if err != nil {
		return err
	}
	ipR, err := s.Nodes[0].K.LoadProgram(remote, false)
	if err != nil {
		return err
	}
	if _, err := s.Nodes[0].K.Spawn(1, ipR, map[int]word.Word{1: far.Word()}); err != nil {
		return err
	}
	near, err := s.Nodes[0].K.AllocSegment(4096)
	if err != nil {
		return err
	}
	ipL, err := s.Nodes[0].K.LoadProgram(local, false)
	if err != nil {
		return err
	}
	if _, err := s.Nodes[0].K.Spawn(2, ipL, map[int]word.Word{1: near.Word()}); err != nil {
		return err
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

// prepareMesh runs the uninjected mesh workload once: reference cycle
// count, fingerprint, and total message count (the NoC classes pick
// their victim message out of this population).
func prepareMesh() (*meshClean, error) {
	s, err := buildMesh(nil)
	if err != nil {
		return nil, err
	}
	cycles := s.Run(1_000_000)
	if !s.Done() || s.Hung() {
		return nil, fmt.Errorf("faultinject: clean mesh run did not finish (hung=%v)", s.Hung())
	}
	for _, t := range meshThreads(s) {
		if t.State != machine.Halted {
			return nil, fmt.Errorf("faultinject: clean mesh thread %d: %v %v", t.ID, t.State, t.Fault)
		}
	}
	return &meshClean{
		cycles:   cycles,
		fp:       machine.FingerprintThreads(meshThreads(s)),
		messages: s.Net.Stats().Messages,
	}, nil
}

// classifyMesh classifies a completed (or stopped) mesh trial,
// attaching the system's flight-recorder dump to escaped outcomes.
func classifyMesh(s *multi.System, clean *meshClean, maskDetail string) trialResult {
	return attachMeshFlight(s, classifyMeshBare(s, clean, maskDetail))
}

func classifyMeshBare(s *multi.System, clean *meshClean, maskDetail string) trialResult {
	for _, t := range meshThreads(s) {
		if t.State == machine.Faulted {
			return classifyFault(t.Fault)
		}
	}
	if s.Hung() {
		return trialResult{outcome: Detected, detail: "watchdog"}
	}
	if !s.Done() {
		return trialResult{outcome: Escaped, detail: "timeout"}
	}
	if machine.FingerprintThreads(meshThreads(s)) == clean.fp {
		return trialResult{outcome: Masked, detail: maskDetail}
	}
	return trialResult{outcome: Escaped, detail: "silent-divergence"}
}

// attachMeshFlight captures every flight recorder in the system into r
// when r is an outcome the audit cannot explain away: an escape, or a
// detection the tolerance stack should have repaired but did not.
func attachMeshFlight(s *multi.System, r trialResult) trialResult {
	if r.outcome == Escaped || strings.HasPrefix(r.detail, "unrecovered-") {
		var b strings.Builder
		if err := s.FlightDump(&b, r.detail); err == nil {
			r.flight = b.String()
		}
	}
	return r
}

// runNoCTrial injects one message fault of the given class into the
// mesh workload and classifies the outcome.
func runNoCTrial(class Class, clean *meshClean, seed uint64) (res trialResult) {
	defer func() {
		if r := recover(); r != nil {
			res = trialResult{outcome: Escaped, detail: "panic"}
		}
	}()
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
	s, err := buildMesh(mf)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	s.Run(clean.cycles*3 + 4*meshWatchdog)
	return classifyMesh(s, clean, maskDetail)
}

// runNodeTrial kills or stalls one node mid-run and classifies the
// outcome: a load-bearing node trips the watchdog (detected), an idle
// node's death is survivable redundancy (masked), and a bounded stall
// is a transient the fabric rides out (masked).
func runNodeTrial(class Class, clean *meshClean, seed uint64) (res trialResult) {
	defer func() {
		if r := recover(); r != nil {
			res = trialResult{outcome: Escaped, detail: "panic"}
		}
	}()
	rng := NewRNG(seed)
	s, err := buildMesh(nil)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	injectAt := 1 + rng.Uint64n(clean.cycles*3/4)
	s.Run(injectAt)
	victim := rng.Intn(len(s.Nodes))
	var maskDetail string
	switch class {
	case NodeKill:
		s.Kill(victim)
		maskDetail = fmt.Sprintf("kill-node%d", victim)
	case NodeStall:
		s.Stall(victim, s.Cycle()+1+rng.Uint64n(2000))
		maskDetail = "stall"
	default:
		return trialResult{outcome: Escaped, detail: "bad-class"}
	}
	s.Run(clean.cycles*3 + 4*meshWatchdog)
	return classifyMesh(s, clean, maskDetail)
}
