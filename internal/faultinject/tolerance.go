// Tolerant campaign: the PR 3 fault mix rerun with the self-healing
// stack enabled.
//
// The baseline audit (audit.go, mesh.go) proves every fault is
// *detected* or masked. This file proves every detectable fault is
// *recovered*: single-node trials run under SECDED ECC with the
// machine's background scrubber and a ring of verified checkpoints that
// roll the kernel back through register/TLB machine checks; mesh trials
// run with the NoC reliable transport retransmitting through
// drop/corrupt faults and suppressing duplicates; node trials run with
// the multicomputer's coordinated checkpoints and watchdog-driven
// auto-recovery. A trial classifies Tolerated when the stack actually
// repaired something and the final architectural fingerprint equals the
// clean run's; a final Detected outcome means the fault was seen but
// not recovered — the E24 gate requires zero of those and zero escapes.
package faultinject

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/multi"
	"repro/internal/noc"
)

// Tolerant-driver tuning: checkpoint cadence and rollback budget for
// single-node trials, background-scrubber cadence for the machine.
const (
	tolCkptInterval = 400 // cycles between verified checkpoints
	tolCkptKeep     = 2   // checkpoint ring size
	tolMaxRestores  = 4   // rollback budget per trial
	tolScrubEvery   = 64  // machine cycles between scrub sweeps
	tolScrubWords   = 256 // words per sweep
)

// tolerantNodeConfig is the buildLocal machine geometry with the
// tolerance stack's memory knobs: the ECC scrubber on the cycle loop.
func tolerantNodeConfig() machine.Config {
	cfg := machine.MMachine()
	cfg.Clusters = 1
	cfg.SlotsPerCluster = 2
	cfg.PhysBytes = 1 << 20
	cfg.ScrubEvery = tolScrubEvery
	cfg.ScrubWords = tolScrubWords
	return cfg
}

// tolDriver drives one single-node tolerant trial: chunked execution
// with a ring of verified checkpoints, rolling back through detected
// faults. "Verified" means a generation is captured only when the
// armed-register model is quiet — and kernel.Checkpoint reads memory
// through the ECC plane, healing correctable decay on the way into the
// image — so by induction every banked generation is clean.
type tolDriver struct {
	cfg      machine.Config
	k        *kernel.Kernel
	inj      *Injector
	ring     []*kernel.Checkpoint
	restores uint64
	banked   uint64 // checkpoints captured
	failed   bool   // rollback budget exhausted or restore error
}

// maybeCheckpoint banks a generation if the current state verifies.
func (d *tolDriver) maybeCheckpoint() {
	if d.inj.Armed() {
		return // latent register corruption: do not poison the ring
	}
	cp, err := d.k.Checkpoint()
	if err != nil {
		return // uncorrectable memory: keep the older generations
	}
	d.ring = append(d.ring, cp)
	if len(d.ring) > tolCkptKeep {
		d.ring = d.ring[len(d.ring)-tolCkptKeep:]
	}
	d.banked++
}

// restore rolls the kernel back to the newest banked generation and
// rearms the tolerance environment the image does not capture: the ECC
// plane, the integrity hook, and a disarmed injector (the restored
// register file predates the corruption).
func (d *tolDriver) restore() bool {
	if len(d.ring) == 0 || d.restores >= tolMaxRestores {
		return false
	}
	k2, err := kernel.Restore(d.cfg, d.ring[len(d.ring)-1])
	if err != nil {
		return false
	}
	d.k = k2
	d.k.M.Space.Phys.EnableECC()
	d.k.M.Integrity = d.inj.CheckInst
	d.inj.Disarm()
	d.restores++
	return true
}

// faultedThread returns the first faulted thread, if any.
func faultedThread(k *kernel.Kernel) *machine.Thread {
	for _, t := range k.M.Threads() {
		if t.State == machine.Faulted {
			return t
		}
	}
	return nil
}

// run executes up to total cycles in checkpoint-interval chunks,
// rolling back whenever a machine check faults a thread. Sets failed
// when the rollback budget runs dry.
func (d *tolDriver) run(total uint64) {
	var executed uint64
	for executed < total && !d.k.M.Done() {
		chunk := uint64(tolCkptInterval)
		if rem := total - executed; chunk > rem {
			chunk = rem
		}
		executed += d.k.Run(chunk)
		if faultedThread(d.k) != nil {
			if !d.restore() {
				d.failed = true
				return
			}
			continue
		}
		if !d.k.M.Done() {
			d.maybeCheckpoint()
		}
	}
}

// runLocalTolerantTrial is runLocalTrial with the stack enabled: same
// workloads, same per-trial seed stream, same injection — but ECC
// corrects memory flips, the scrubber sweeps in the background, and
// detected register/TLB faults roll back to a verified checkpoint
// instead of ending the run.
func runLocalTolerantTrial(w *workload, class Class, seed uint64) (res trialResult) {
	defer func() {
		if r := recover(); r != nil {
			res = trialResult{outcome: Escaped, detail: "panic"}
		}
	}()
	rng := NewRNG(seed)
	d, segs, err := buildLocalTolerant(w)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	injectAt := 1 + rng.Uint64n(w.clean.cycles)
	d.maybeCheckpoint() // generation 0: the booted, unfaulted machine
	d.run(injectAt)
	detail := injectLocal(class, d.k, d.inj, segs, rng)
	d.run(w.budget * (tolMaxRestores + 2))

	counters := func(r trialResult) trialResult {
		r.restores = d.restores
		r.checkpoints = d.banked
		r.eccFixed = d.k.M.Space.Phys.ECCStats().Corrected
		return r
	}
	if d.failed {
		return counters(trialResult{outcome: Detected, detail: "unrecovered"})
	}
	if !d.k.M.Done() {
		return counters(trialResult{outcome: Detected, detail: "unrecovered-hang"})
	}
	tolerated := d.restores > 0
	if d.restores > 0 {
		detail = "rollback"
	}
	// Retirement healing: latent damage the run never consumed is
	// repaired, not merely reported.
	if bad := d.k.M.Space.Phys.Scrub(); bad > 0 {
		// Multi-bit decay from a single injected flip cannot happen;
		// if it ever does, it is an unrecovered detection.
		return counters(trialResult{outcome: Detected, detail: "unrecovered-mem"})
	}
	if st := d.k.M.Space.Phys.ECCStats(); st.Corrected > 0 {
		tolerated = true
		detail = "ecc-corrected"
	}
	if d.k.M.Space.TLB.PoisonedEntries() > 0 {
		// A poisoned-but-unused entry: flushing it re-fetches clean
		// translations from the page table.
		d.k.M.Space.TLB.Flush()
		tolerated = true
		detail = "tlb-flushed"
	}
	if d.inj.Armed() {
		// Latent register corruption (never read, never overwritten):
		// the newest verified generation predates it by construction —
		// roll back and re-execute clean.
		if !d.restore() {
			return counters(trialResult{outcome: Detected, detail: "unrecovered"})
		}
		d.run(w.budget * 2)
		if d.failed || !d.k.M.Done() {
			return counters(trialResult{outcome: Detected, detail: "unrecovered"})
		}
		tolerated = true
		detail = "reg-rollback"
	}
	if machine.FingerprintThreads(d.k.M.Threads()) != w.clean.fp {
		return counters(trialResult{outcome: Escaped, detail: "silent-divergence"})
	}
	if tolerated {
		return counters(trialResult{outcome: Tolerated, detail: detail})
	}
	return counters(trialResult{outcome: Masked, detail: detail})
}

// buildLocalTolerant boots the workload under the tolerance stack: same
// geometry and thread layout as buildLocal, but with the SECDED plane
// in place of detect-only parity and the background scrubber running.
func buildLocalTolerant(w *workload) (*tolDriver, []core.Pointer, error) {
	cfg := tolerantNodeConfig()
	k, inj, segs, err := buildLocalWith(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	k.M.Space.Phys.EnableECC() // supersedes buildLocal's parity plane
	return &tolDriver{cfg: cfg, k: k, inj: inj}, segs, nil
}

// buildMeshTolerant is buildMesh with the stack enabled: reliable
// transport on the fabric, coordinated checkpoints in a ring, and
// watchdog-escalated auto-recovery.
func buildMeshTolerant(ic noc.Interceptor) (*multi.System, error) {
	cfg := multi.DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 4, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Mesh.Transport.Enabled = true
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 2
	cfg.WatchdogCycles = meshWatchdog
	cfg.CheckpointEvery = tolCkptInterval
	cfg.CheckpointKeep = tolCkptKeep
	cfg.AutoRecover = true
	cfg.MaxRestores = tolMaxRestores
	s, err := multi.New(cfg)
	if err != nil {
		return nil, err
	}
	s.Net.Interceptor = ic
	s.EnableFlight(flightRingSize)
	if err := loadMeshWorkload(s, 3); err != nil {
		return nil, err
	}
	if err := s.CheckpointNow(); err != nil {
		return nil, err
	}
	return s, nil
}

// classifyMeshTolerant classifies a tolerant mesh trial, attaching the
// stack's repair counters, and — for escapes and unrecovered
// detections — the flight-recorder dump.
func classifyMeshTolerant(s *multi.System, clean *meshClean, maskDetail string) trialResult {
	counters := func(r trialResult) trialResult {
		r = attachMeshFlight(s, r)
		st := s.Net.Stats()
		r.restores = s.Restores()
		r.checkpoints = s.Checkpoints()
		r.retransmits = st.Retransmits
		r.dupSupp = st.DupSuppressed
		return r
	}
	for _, t := range meshThreads(s) {
		if t.State == machine.Faulted {
			// The transport is supposed to absorb every link fault; a
			// surviving machine check is an unrecovered detection.
			r := classifyFault(t.Fault)
			r.detail = "unrecovered-" + r.detail
			return counters(r)
		}
	}
	if s.Hung() {
		return counters(trialResult{outcome: Detected, detail: "unrecovered-hang"})
	}
	if !s.Done() {
		return counters(trialResult{outcome: Escaped, detail: "timeout"})
	}
	if machine.FingerprintThreads(meshThreads(s)) != clean.fp {
		return counters(trialResult{outcome: Escaped, detail: "silent-divergence"})
	}
	st := s.Net.Stats()
	switch {
	case st.Retransmits > 0:
		return counters(trialResult{outcome: Tolerated, detail: "retransmit"})
	case st.DupSuppressed > 0:
		return counters(trialResult{outcome: Tolerated, detail: "dup-suppressed"})
	case s.Restores() > 0:
		return counters(trialResult{outcome: Tolerated, detail: "auto-restore"})
	}
	return counters(trialResult{outcome: Masked, detail: maskDetail})
}

// runNoCTolerantTrial is runNoCTrial against the reliable transport:
// the same seeded message fault is injected, and the transport must
// hide it.
func runNoCTolerantTrial(class Class, clean *meshClean, seed uint64) (res trialResult) {
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
	s, err := buildMeshTolerant(mf)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	s.Run(clean.cycles*(tolMaxRestores+2) + 8*meshWatchdog)
	return classifyMeshTolerant(s, clean, maskDetail)
}

// runNodeTolerantTrial is runNodeTrial with auto-recovery armed: a
// killed load-bearing node trips the watchdog, which restores every
// node from the newest coordinated generation and resumes — no caller
// intervention.
func runNodeTolerantTrial(class Class, clean *meshClean, seed uint64) (res trialResult) {
	defer func() {
		if r := recover(); r != nil {
			res = trialResult{outcome: Escaped, detail: "panic"}
		}
	}()
	rng := NewRNG(seed)
	s, err := buildMeshTolerant(nil)
	if err != nil {
		return trialResult{outcome: Escaped, detail: "build-error"}
	}
	injectAt := 1 + rng.Uint64n(clean.cycles*3/4)
	s.Run(injectAt)
	victim := rng.Intn(len(s.Nodes))
	var maskDetail string
	switch class {
	case NodeKill:
		if err := s.Kill(victim); err != nil {
			return trialResult{outcome: Escaped, detail: "build-error"}
		}
		maskDetail = fmt.Sprintf("kill-node%d", victim)
	case NodeStall:
		if err := s.Stall(victim, s.Cycle()+1+rng.Uint64n(2000)); err != nil {
			return trialResult{outcome: Escaped, detail: "build-error"}
		}
		maskDetail = "stall"
	default:
		return trialResult{outcome: Escaped, detail: "bad-class"}
	}
	s.Run(clean.cycles*(tolMaxRestores+2) + 8*meshWatchdog)
	return classifyMeshTolerant(s, clean, maskDetail)
}

// AutoRecoveryTrial is RecoveryTrial's closed-loop counterpart: the
// same checkpoint/kill scenario, but the system checkpoints itself on a
// cadence and the watchdog performs the restore — the harness only
// injects the kill and verifies the fingerprint.
func AutoRecoveryTrial(seed uint64) (*RecoveryResult, error) {
	rng := NewRNG(seed)

	// Reference: the uninterrupted run (stack off — the fingerprint is
	// architectural, and this keeps the reference identical to
	// RecoveryTrial's).
	s1, _, err := buildRecovery()
	if err != nil {
		return nil, err
	}
	cycles := s1.Run(1_000_000)
	if !s1.Done() || s1.Hung() {
		return nil, fmt.Errorf("faultinject: auto-recovery reference run did not finish (hung=%v)", s1.Hung())
	}
	cleanFP := machine.FingerprintThreads(s1.Nodes[0].K.M.Threads())

	s2, _, err := buildRecoveryTolerant()
	if err != nil {
		return nil, err
	}
	killAt := 1 + rng.Uint64n(cycles*3/4)
	s2.OnCycle = func(c uint64) {
		if c == killAt {
			if err := s2.Kill(0); err == nil {
				s2.OnCycle = nil
			}
		}
	}
	s2.Run(cycles*(tolMaxRestores+2) + 8*meshWatchdog)
	res := &RecoveryResult{
		CheckpointCycle: killAt / tolCkptInterval * tolCkptInterval,
		KillCycle:       killAt,
		WatchdogTripped: s2.Restores() > 0,
		CleanFP:         cleanFP,
		Recovered:       s2.Done() && !s2.Hung(),
		RecoveredFP:     machine.FingerprintThreads(s2.Nodes[0].K.M.Threads()),
	}
	res.Match = res.Recovered && res.RecoveredFP == res.CleanFP
	return res, nil
}

// buildRecoveryTolerant is buildRecovery with the self-healing stack:
// coordinated checkpoints, auto-recovery, reliable transport.
func buildRecoveryTolerant() (*multi.System, machine.Config, error) {
	cfg := multi.DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 2, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Mesh.Transport.Enabled = true
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 2
	cfg.WatchdogCycles = meshWatchdog
	cfg.CheckpointEvery = tolCkptInterval
	cfg.CheckpointKeep = tolCkptKeep
	cfg.AutoRecover = true
	cfg.MaxRestores = tolMaxRestores
	s, err := multi.New(cfg)
	if err != nil {
		return nil, machine.Config{}, err
	}
	if err := loadMeshWorkload(s, 1); err != nil {
		return nil, machine.Config{}, err
	}
	if err := s.CheckpointNow(); err != nil {
		return nil, machine.Config{}, err
	}
	return s, cfg.Node, nil
}
