package faultinject

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
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

// recoveryTrial runs the bare stack's graceful-recovery loop on the
// 2-node mesh: checkpoint node 0 mid-run, kill it later, let the
// watchdog detect the hang, rebuild the node's kernel from the
// checkpoint, revive it, and run to completion. Success means the
// resumed run's architectural fingerprint equals an uninterrupted
// run's.
func recoveryTrial(seed uint64) (*RecoveryResult, error) {
	rng := NewRNG(seed)
	clean, err := prepareMesh(2)
	if err != nil {
		return nil, err
	}

	// Faulted run: checkpoint, then kill, then watchdog.
	s, err := clean.boot(bare, nil)
	if err != nil {
		return nil, err
	}
	ckAt := 1 + rng.Uint64n(clean.cycles/2)
	killAt := ckAt + 1 + rng.Uint64n(clean.cycles/4)
	var cp *kernel.Checkpoint
	var cpErr error
	s.OnCycle = func(c uint64) {
		switch c {
		case ckAt:
			cp, cpErr = s.Nodes[0].K.Checkpoint()
		case killAt:
			s.Kill(0)
		}
	}
	budget := bare.budget(clean.cycles)
	s.Run(budget)
	if cpErr != nil {
		return nil, fmt.Errorf("faultinject: checkpoint: %w", cpErr)
	}
	if cp == nil {
		return nil, fmt.Errorf("faultinject: checkpoint cycle %d never reached", ckAt)
	}
	res := &RecoveryResult{
		CheckpointCycle: ckAt,
		KillCycle:       killAt,
		WatchdogTripped: s.Hung(),
		CleanFP:         clean.fp,
	}

	// Recover: rebuild node 0 from the checkpoint and resume.
	k2, err := kernel.Restore(campaignNode(), cp)
	if err != nil {
		return nil, fmt.Errorf("faultinject: restore: %w", err)
	}
	s.OnCycle = nil
	s.Revive(0, k2)
	s.Run(budget)
	res.Recovered = s.Done() && !s.Hung()
	res.RecoveredFP = machine.FingerprintThreads(meshThreads(s))
	res.Match = res.Recovered && res.RecoveredFP == res.CleanFP
	return res, nil
}

// autoRecoveryTrial is recoveryTrial's closed-loop counterpart under the
// tolerant stack: the same kill, but the system checkpoints itself on a
// cadence and the watchdog performs the restore — the harness only
// injects the kill and verifies the fingerprint.
func autoRecoveryTrial(seed uint64) (*RecoveryResult, error) {
	rng := NewRNG(seed)
	// The reference is the same bare run recoveryTrial compares against:
	// the fingerprint is architectural.
	clean, err := prepareMesh(2)
	if err != nil {
		return nil, err
	}

	s, err := clean.boot(tolerant, nil)
	if err != nil {
		return nil, err
	}
	killAt := 1 + rng.Uint64n(clean.cycles*3/4)
	s.OnCycle = func(c uint64) {
		if c == killAt {
			if err := s.Kill(0); err == nil {
				s.OnCycle = nil
			}
		}
	}
	s.Run(tolerant.budget(clean.cycles))
	res := &RecoveryResult{
		CheckpointCycle: killAt / tolCkptInterval * tolCkptInterval,
		KillCycle:       killAt,
		WatchdogTripped: s.Restores() > 0,
		CleanFP:         clean.fp,
		Recovered:       s.Done() && !s.Hung(),
		RecoveredFP:     machine.FingerprintThreads(meshThreads(s)),
	}
	res.Match = res.Recovered && res.RecoveredFP == res.CleanFP
	return res, nil
}
