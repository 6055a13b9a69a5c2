package capverify_test

import (
	"testing"

	"repro"
	"repro/internal/asm"
	"repro/internal/capverify"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/word"
)

// runProgram boots prog exactly as cmd/mmsim does (one user thread,
// 4KB scratch segment in r1) and runs it to completion.
func runProgram(t *testing.T, prog *asm.Program) *machine.Thread {
	t.Helper()
	k, err := kernel.New(machine.MMachine())
	if err != nil {
		t.Fatal(err)
	}
	ip, err := k.LoadProgram(prog, false)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := k.AllocSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	th, err := k.Spawn(k.NewDomain(), ip, map[int]word.Word{1: seg.Word()})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(2_000_000)
	return th
}

// shippedPrograms assembles every shipped program, keyed by name, with
// usemem.s linked against memlib.s the way cmd/mmld does.
func shippedPrograms(t testing.TB) map[string]*asm.Program {
	t.Helper()
	progs, err := repro.Programs()
	if err != nil || len(progs) == 0 {
		t.Fatalf("no shipped programs: %v", err)
	}
	out := make(map[string]*asm.Program, len(progs))
	for _, p := range progs {
		out[p.Name] = p.Prog
	}
	return out
}

// TestShippedProgramsSound is the fault-free half of the differential
// soundness argument: no shipped program may be flagged with a provable
// fault, and each must in fact run to a clean halt on the simulator.
func TestShippedProgramsSound(t *testing.T) {
	for name, prog := range shippedPrograms(t) {
		rep := capverify.Verify(prog, capverify.Config{})
		for _, d := range rep.Faults() {
			t.Errorf("%s: false provable fault: %s", name, d)
		}
		th := runProgram(t, prog)
		if th.State != machine.Halted || th.Fault != nil {
			t.Errorf("%s: dynamic run ended %v (fault %v), want clean halt", name, th.State, th.Fault)
		}
		t.Logf("%s: %d/%d checks discharged (%.0f%%)", name,
			rep.Totals.Safe, rep.Totals.Safe+rep.Totals.Unknown, 100*rep.DischargeRatio())
	}
}

// TestWorkloadsSound runs the same argument over the fault-injection
// campaign's workloads: the programs the campaign injects faults into
// are themselves verifiably fault-free.
func TestWorkloadsSound(t *testing.T) {
	for name, src := range faultinject.WorkloadSources() {
		rep, err := capverify.VerifySource(name+".s", src, capverify.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Abyss {
			t.Errorf("%s: analysis fell into the abyss (unbounded indirect jump)", name)
		}
		for _, d := range rep.Faults() {
			t.Errorf("%s: false provable fault: %s", name, d)
		}
		prog, err := asm.AssembleNamed(name+".s", src)
		if err != nil {
			t.Fatal(err)
		}
		th := runProgram(t, prog)
		if th.State != machine.Halted || th.Fault != nil {
			t.Errorf("%s: dynamic run ended %v (fault %v), want clean halt", name, th.State, th.Fault)
		}
	}
}

// badProgram is a crafted capability violation with the fault code the
// hardware raises for it.
type badProgram struct {
	name string
	src  string
	want core.FaultCode
}

// badPrograms covers every fault code and every check class at least
// once. The differential test requires each to be flagged as a provable
// fault with the right predicted code, and to raise exactly that code
// when run.
var badPrograms = []badProgram{
	{"store-through-readonly", `
		ldi r2, 2            ; PermReadOnly
		restrict r3, r1, r2
		st r3, 0, r2         ; store through a read-only pointer
		halt
	`, core.FaultPerm},
	{"lea-on-key", `
		ldi r2, 1            ; PermKey
		restrict r3, r1, r2
		st r3, 8, r2         ; displacement LEA on an immutable key
		halt
	`, core.FaultImmutable},
	{"jmp-data-pointer", `
		jmp r1               ; r1 is read/write, not executable
	`, core.FaultPerm},
	{"jmp-untagged", `
		ldi r2, 16
		jmp r2               ; jump through a plain integer
	`, core.FaultTag},
	{"setptr-in-user-mode", `
		ldi r2, 8
		setptr r3, r2        ; privileged instruction, user IP
		halt
	`, core.FaultPriv},
	{"lea-out-of-segment", `
		leai r2, r1, 8192    ; 4KB data segment
		halt
	`, core.FaultBounds},
	{"load-uninitialized", `
		ld r2, r9, 0         ; r9 was never written: untagged 0
		halt
	`, core.FaultTag},
	{"subseg-grow", `
		ldi r2, 13
		subseg r3, r1, r2    ; 2^13 > the 2^12 segment
		halt
	`, core.FaultLength},
	{"restrict-not-subset", `
		ldi r2, 4            ; PermExecuteUser
		restrict r3, r1, r2  ; execute is not a subset of read/write
		halt
	`, core.FaultPerm},
	{"unaligned-load", `
		leai r2, r1, 4
		ld r3, r2, 0         ; word access at offset 4
		halt
	`, core.FaultBounds},
	{"store-through-execute", `
		movip r2
		st r2, 0, r1         ; store through the execute pointer
		halt
	`, core.FaultPerm},
	{"run-off-segment-end", `
		ldi r2, 1            ; no halt: falls through NOP padding
	`, core.FaultBounds},
}

// TestBadProgramsDifferential is the fault half of the soundness
// argument: every crafted violation is a provable static fault with the
// right code, and the simulator raises exactly that code at runtime.
func TestBadProgramsDifferential(t *testing.T) {
	for _, bp := range badPrograms {
		rep, err := capverify.VerifySource(bp.name+".s", bp.src, capverify.Config{})
		if err != nil {
			t.Fatalf("%s: assemble: %v", bp.name, err)
		}
		if !rep.HasFault() {
			t.Errorf("%s: verifier found no provable fault, want %v", bp.name, bp.want)
			continue
		}
		if got := rep.FirstFaultCode(); got != bp.want {
			t.Errorf("%s: predicted fault %v, want %v", bp.name, got, bp.want)
		}
		for _, d := range rep.Faults() {
			if d.File != bp.name+".s" || d.Line <= 0 {
				t.Errorf("%s: fault diagnostic lacks source position: %q line %d", bp.name, d.File, d.Line)
			}
		}

		prog, err := asm.AssembleNamed(bp.name+".s", bp.src)
		if err != nil {
			t.Fatal(err)
		}
		th := runProgram(t, prog)
		if th.State != machine.Faulted {
			t.Errorf("%s: dynamic run ended %v, want a fault", bp.name, th.State)
			continue
		}
		if got := core.CodeOf(th.Fault); got != bp.want {
			t.Errorf("%s: dynamic fault %v (%v), predicted %v", bp.name, got, th.Fault, bp.want)
		}
	}
}

// TestFibDischarge pins the headline claim: on fib.s well over half of
// the dynamic permission/bounds checks are statically discharged.
func TestFibDischarge(t *testing.T) {
	rep := capverify.Verify(shippedPrograms(t)["fib.s"], capverify.Config{})
	if r := rep.DischargeRatio(); r < 0.5 {
		t.Errorf("fib.s discharge ratio %.2f, want >= 0.5", r)
	}
	if rep.HasFault() || rep.Abyss {
		t.Errorf("fib.s: fault=%v abyss=%v, want neither", rep.HasFault(), rep.Abyss)
	}
}

// TestRegisterProvenance checks that a register-borne fault names the
// definition site of the offending register.
func TestRegisterProvenance(t *testing.T) {
	src := `
	ldi r4, 99
	mov r5, r4
	ld r6, r5, 0
	halt
`
	rep, err := capverify.VerifySource("prov.s", src, capverify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	faults := rep.Faults()
	if len(faults) == 0 {
		t.Fatal("want a provable tag fault")
	}
	d := faults[0]
	if d.Reg != 5 {
		t.Errorf("fault blames r%d, want r5", d.Reg)
	}
	// MOV propagates value provenance: the culprit is the LDI on line 2.
	if d.RegFile != "prov.s" || d.RegLine != 2 {
		t.Errorf("register provenance %s:%d, want prov.s:2", d.RegFile, d.RegLine)
	}
}
