package faultinject

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/word"
)

func TestRNGDeterministicAndNonZero(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatalf("step %d: %#x != %#x", i, va, vb)
		}
		if va == 0 {
			t.Fatalf("step %d: produced 0", i)
		}
	}
	if NewRNG(0).Next() == 0 {
		t.Fatal("seed 0 must be remapped, not absorbed")
	}
}

func TestMixSeedSeparatesTrials(t *testing.T) {
	seen := make(map[uint64]bool)
	for c := uint64(0); c < 10; c++ {
		for i := uint64(0); i < 100; i++ {
			s := mixSeed(1, c, i)
			if seen[s] {
				t.Fatalf("seed collision at class %d trial %d", c, i)
			}
			seen[s] = true
		}
	}
	if mixSeed(1, 3, 4) != mixSeed(1, 3, 4) {
		t.Fatal("mixSeed not deterministic")
	}
}

func TestInjectorReadDetectsWriteRepairs(t *testing.T) {
	th := &machine.Thread{ID: 7}
	other := &machine.Thread{ID: 8}

	// Reading the armed register is a machine check.
	inj := &Injector{}
	inj.Arm(th, 5)
	if err := inj.CheckInst(other, isa.Inst{Op: isa.ADD, Rd: 1, Ra: 5, Rb: 5}); err != nil {
		t.Fatalf("other thread read must not trip: %v", err)
	}
	if err := inj.CheckInst(th, isa.Inst{Op: isa.ADD, Rd: 1, Ra: 5, Rb: 2}); err == nil {
		t.Fatal("read of armed register: want CorruptionError")
	} else if !IsCorruptionDetected(err) {
		t.Fatalf("error %v must satisfy CorruptionDetected", err)
	}
	if inj.Armed() {
		t.Fatal("detection must disarm")
	}

	// Overwriting the armed register repairs it silently.
	inj = &Injector{}
	inj.Arm(th, 5)
	if err := inj.CheckInst(th, isa.Inst{Op: isa.LDI, Rd: 5, Imm: 1}); err != nil {
		t.Fatalf("overwrite must not trip: %v", err)
	}
	if inj.Armed() {
		t.Fatal("overwrite must disarm")
	}
	if err := inj.CheckInst(th, isa.Inst{Op: isa.ADD, Rd: 1, Ra: 5, Rb: 2}); err != nil {
		t.Fatalf("read after repair must pass: %v", err)
	}

	// Store reads both Ra and Rb; it never writes a register.
	inj = &Injector{}
	inj.Arm(th, 3)
	if err := inj.CheckInst(th, isa.Inst{Op: isa.ST, Ra: 1, Rb: 3}); err == nil {
		t.Fatal("store of armed register: want CorruptionError")
	}
}

func TestRegSets(t *testing.T) {
	cases := []struct {
		inst   isa.Inst
		reads  []int
		writes []int
	}{
		{isa.Inst{Op: isa.ADD, Rd: 1, Ra: 2, Rb: 3}, []int{2, 3}, []int{1}},
		{isa.Inst{Op: isa.LDI, Rd: 4}, nil, []int{4}},
		{isa.Inst{Op: isa.ST, Ra: 5, Rb: 6}, []int{5, 6}, nil},
		{isa.Inst{Op: isa.LD, Rd: 7, Ra: 8}, []int{8}, []int{7}},
		{isa.Inst{Op: isa.BNEZ, Ra: 9}, []int{9}, nil},
		{isa.Inst{Op: isa.JMPL, Rd: 14, Ra: 2}, []int{2}, []int{14}},
		{isa.Inst{Op: isa.HALT}, nil, nil},
	}
	for _, c := range cases {
		for r := 0; r < isa.NumRegs; r++ {
			wantR, wantW := false, false
			for _, x := range c.reads {
				if x == r {
					wantR = true
				}
			}
			for _, x := range c.writes {
				if x == r {
					wantW = true
				}
			}
			if got := readsReg(c.inst, r); got != wantR {
				t.Errorf("%v readsReg(%d) = %v, want %v", c.inst.Op, r, got, wantR)
			}
			if got := writesReg(c.inst, r); got != wantW {
				t.Errorf("%v writesReg(%d) = %v, want %v", c.inst.Op, r, got, wantW)
			}
		}
	}
}

func TestWorkloadsPrepare(t *testing.T) {
	for _, w := range localWorkloads() {
		if err := w.prepare(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if w.clean.cycles == 0 || w.clean.fp == 0 {
			t.Fatalf("%s: degenerate clean run %+v", w.name, w.clean)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := []*machine.Thread{{ID: 1, Instret: 10}}
	b := []*machine.Thread{{ID: 1, Instret: 11}}
	if machine.FingerprintThreads(a) == machine.FingerprintThreads(b) {
		t.Fatal("fingerprint must see instret")
	}
	c := []*machine.Thread{{ID: 1, Instret: 10}}
	c[0].Regs[3] = word.FromUint(9)
	if machine.FingerprintThreads(a) == machine.FingerprintThreads(c) {
		t.Fatal("fingerprint must see register contents")
	}
}

// TestSmallCampaignZeroEscapes is the heart of the audit contract: a
// reduced but class-complete campaign must classify every injection as
// detected or masked — never escaped, never a panic.
func TestSmallCampaignZeroEscapes(t *testing.T) {
	cfg := CampaignConfig{Seed: 3, LocalTrials: 60, MeshTrials: 12, NodeTrials: 8, Recovery: true}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Escaped != 0 {
		for _, cs := range res.Classes {
			if cs.Escaped > 0 {
				t.Errorf("class %v: %d escapes (details %v)", cs.Class, cs.Escaped, cs.Details)
			}
		}
		t.Fatalf("campaign had %d escapes\n%s", res.Escaped, res.Table())
	}
	if res.Trials != 4*60+4*12+2*8 {
		t.Fatalf("trials = %d", res.Trials)
	}
	for _, cs := range res.Classes {
		if cs.Trials > 0 && cs.Detected == 0 && cs.Class != NodeStall && cs.Class != NoCDelay && cs.Class != NoCDuplicate {
			t.Errorf("class %v never detected anything (details %v)", cs.Class, cs.Details)
		}
	}
	if res.Recovery == nil || !res.Recovery.Match {
		t.Fatalf("recovery failed: %+v", res.Recovery)
	}
}

// TestCampaignDeterministic: identical seeds must render byte-identical
// audit tables even though trials run on a racing worker pool.
func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{Seed: 9, LocalTrials: 25, MeshTrials: 6, NodeTrials: 4}
	a, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Fatalf("same seed, different tables:\n--- pool ---\n%s\n--- serial ---\n%s", a.Table(), b.Table())
	}
}

func TestRecoveryTrialMatchesUninterruptedRun(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1234} {
		rec, err := recoveryTrial(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rec.WatchdogTripped {
			t.Errorf("seed %d: node kill not detected by watchdog (%s)", seed, rec)
		}
		if !rec.Match {
			t.Errorf("seed %d: recovered fingerprint diverged (%s)", seed, rec)
		}
	}
}

func TestMessageFaulterHitsExactTarget(t *testing.T) {
	mf := &MessageFaulter{Target: 2, Fate: noc.Fate{Drop: true}}
	for i := 0; i < 5; i++ {
		fate := mf.Intercept(noc.ReadReq, 0, 1, uint64(i))
		if got, want := fate.Drop, i == 2; got != want {
			t.Fatalf("message %d: drop = %v, want %v", i, got, want)
		}
	}
	if !mf.Fired() || mf.Messages() != 5 {
		t.Fatalf("fired=%v messages=%d", mf.Fired(), mf.Messages())
	}
}

// TestTrialPanicIsEscape: a panic in any trial class is an escape, not
// a crash of the whole campaign. A persistence trial with no fixture
// panics on its first read of it.
func TestTrialPanicIsEscape(t *testing.T) {
	r := (&campaign{}).run(trialSpec{class: PersistTorn, seed: 1})
	if r.outcome != Escaped || r.detail != "panic" {
		t.Fatalf("outcome = %v/%s, want escaped/panic", r.outcome, r.detail)
	}
}

// TestGateNamesFirstUnexplainedTrial: the gate fails on an escape under
// either stack and on a detection only under tolerant, and its error
// names the trial to replay.
func TestGateNamesFirstUnexplainedTrial(t *testing.T) {
	replay := []FlightCapture{{Class: NoCDrop, Seed: 0xabc, Detail: "silent-divergence"}}
	cases := []struct {
		res  Result
		fail bool
	}{
		{Result{Escaped: 1, Flights: replay}, true},
		{Result{Escaped: 1}, true},
		{Result{Detected: 5}, false},
		{Result{Tolerant: true, Detected: 1, Flights: replay}, true},
		{Result{Tolerant: true, Tolerated: 3}, false},
		{Result{Recovery: &RecoveryResult{Match: false}}, true},
		{Result{Recovery: &RecoveryResult{Match: true}}, false},
	}
	for i, c := range cases {
		err := c.res.Gate()
		if (err != nil) != c.fail {
			t.Errorf("case %d: Gate() = %v, want failure %v", i, err, c.fail)
			continue
		}
		if err != nil && c.res.Flights != nil && !strings.Contains(err.Error(), "noc-drop trial seed 0xabc: silent-divergence") {
			t.Errorf("case %d: gate error does not name the trial to replay: %v", i, err)
		}
	}
}
