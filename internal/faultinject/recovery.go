package faultinject

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/multi"
	"repro/internal/noc"
)

// RecoveryResult reports one checkpoint/kill/restore exercise.
type RecoveryResult struct {
	CheckpointCycle uint64 // system cycle the checkpoint was taken at
	KillCycle       uint64 // system cycle the node was killed at
	WatchdogTripped bool   // the kill was detected by the cycle-deadline watchdog
	CleanFP         uint64 // fingerprint of the uninterrupted run
	RecoveredFP     uint64 // fingerprint after restore + re-execution
	Recovered       bool   // run completed after revival
	Match           bool   // RecoveredFP == CleanFP
}

func (r *RecoveryResult) String() string {
	return fmt.Sprintf("checkpoint@%d kill@%d watchdog=%v recovered=%v fingerprint-match=%v",
		r.CheckpointCycle, r.KillCycle, r.WatchdogTripped, r.Recovered, r.Match)
}

// buildRecovery boots the recovery scenario: a 2-node mesh where node 0
// runs one thread doing remote reads from node 1 plus one local-sweep
// thread, and node 1 is a passive home node. All mutable state lives on
// node 0, so restoring node 0 from a checkpoint rewinds the entire
// computation — re-execution after restore is idempotent by
// construction (remote traffic is read-only).
func buildRecovery() (*multi.System, machine.Config, error) {
	cfg := multi.DefaultConfig()
	cfg.Mesh = noc.Config{DimX: 2, DimY: 1, DimZ: 1, RouterLatency: 2, InjectLatency: 1}
	cfg.Node.PhysBytes = 1 << 20
	cfg.Node.Clusters = 1
	cfg.Node.SlotsPerCluster = 2
	cfg.WatchdogCycles = meshWatchdog
	s, err := multi.New(cfg)
	if err != nil {
		return nil, machine.Config{}, err
	}
	if err := loadMeshWorkload(s, 1); err != nil {
		return nil, machine.Config{}, err
	}
	return s, cfg.Node, nil
}

// RecoveryTrial runs the full graceful-recovery loop: checkpoint node 0
// mid-run, kill it later, let the watchdog detect the hang, rebuild the
// node's kernel from the checkpoint, revive it, and run to completion.
// Success means the resumed run's architectural fingerprint equals an
// uninterrupted run's.
func RecoveryTrial(seed uint64) (*RecoveryResult, error) {
	rng := NewRNG(seed)

	// Reference: the uninterrupted run.
	s1, _, err := buildRecovery()
	if err != nil {
		return nil, err
	}
	cycles := s1.Run(1_000_000)
	if !s1.Done() || s1.Hung() {
		return nil, fmt.Errorf("faultinject: recovery reference run did not finish (hung=%v)", s1.Hung())
	}
	cleanFP := machine.FingerprintThreads(s1.Nodes[0].K.M.Threads())

	// Faulted run: checkpoint, then kill, then watchdog.
	s2, nodeCfg, err := buildRecovery()
	if err != nil {
		return nil, err
	}
	ckAt := 1 + rng.Uint64n(cycles/2)
	killAt := ckAt + 1 + rng.Uint64n(cycles/4)
	var cp *kernel.Checkpoint
	var cpErr error
	s2.OnCycle = func(c uint64) {
		switch c {
		case ckAt:
			cp, cpErr = s2.Nodes[0].K.Checkpoint()
		case killAt:
			s2.Kill(0)
		}
	}
	budget := cycles*3 + 4*meshWatchdog
	s2.Run(budget)
	if cpErr != nil {
		return nil, fmt.Errorf("faultinject: checkpoint: %w", cpErr)
	}
	if cp == nil {
		return nil, fmt.Errorf("faultinject: checkpoint cycle %d never reached", ckAt)
	}
	res := &RecoveryResult{
		CheckpointCycle: ckAt,
		KillCycle:       killAt,
		WatchdogTripped: s2.Hung(),
		CleanFP:         cleanFP,
	}

	// Recover: rebuild node 0 from the checkpoint and resume.
	k2, err := kernel.Restore(nodeCfg, cp)
	if err != nil {
		return nil, fmt.Errorf("faultinject: restore: %w", err)
	}
	s2.OnCycle = nil
	s2.Revive(0, k2)
	s2.Run(budget)
	res.Recovered = s2.Done() && !s2.Hung()
	res.RecoveredFP = machine.FingerprintThreads(s2.Nodes[0].K.M.Threads())
	res.Match = res.Recovered && res.RecoveredFP == res.CleanFP
	return res, nil
}
