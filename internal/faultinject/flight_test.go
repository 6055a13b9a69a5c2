package faultinject

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestEscapedMeshTrialCapturesFlight: a mesh trial the audit cannot
// classify (here: stopped mid-run, so neither done nor hung — a
// timeout escape) must carry the system's flight-recorder dump.
func TestEscapedMeshTrialCapturesFlight(t *testing.T) {
	s, err := buildMesh(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	r := classifyMesh(s, &meshClean{}, "x")
	if r.outcome != Escaped || r.detail != "timeout" {
		t.Fatalf("outcome = %v/%s, want escaped/timeout", r.outcome, r.detail)
	}
	if r.flight == "" {
		t.Fatal("escaped trial has no flight dump")
	}
	if got := strings.Count(r.flight, `"flight":true`); got != len(s.Nodes)+1 {
		t.Fatalf("flight dump has %d section headers, want %d (nodes + mesh)\n%s",
			got, len(s.Nodes)+1, r.flight)
	}
	if !strings.Contains(r.flight, `"reason":"timeout"`) {
		t.Errorf("flight dump does not carry the escape reason:\n%.400s", r.flight)
	}
}

// TestMaskedMeshTrialCarriesNoFlight: explained outcomes must stay
// lean — no dump attached to a clean (masked) finish.
func TestMaskedMeshTrialCarriesNoFlight(t *testing.T) {
	s, err := buildMesh(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1_000_000)
	clean := &meshClean{fp: machine.FingerprintThreads(meshThreads(s))}
	r := classifyMesh(s, clean, "clean")
	if r.outcome != Masked {
		t.Fatalf("outcome = %v/%s, want masked", r.outcome, r.detail)
	}
	if r.flight != "" {
		t.Fatalf("masked trial carries a %d-byte flight dump", len(r.flight))
	}
}

// TestUnrecoveredTolerantTrialCapturesFlight: under the tolerance
// classifier, a hang the stack failed to repair (unrecovered-hang) is
// exactly the outcome that must ship its evidence.
func TestUnrecoveredTolerantTrialCapturesFlight(t *testing.T) {
	s, err := buildMesh(nil) // watchdog armed, no checkpoints → no repair
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	if err := s.Kill(3); err != nil { // home of the remote segment
		t.Fatal(err)
	}
	s.Run(20 * meshWatchdog)
	if !s.Hung() {
		t.Fatal("expected the watchdog to trip")
	}
	r := classifyMeshTolerant(s, &meshClean{}, "x")
	if r.outcome != Detected || r.detail != "unrecovered-hang" {
		t.Fatalf("outcome = %v/%s, want detected/unrecovered-hang", r.outcome, r.detail)
	}
	if r.flight == "" || !strings.Contains(r.flight, `"flight":true`) {
		t.Fatalf("unrecovered trial has no flight dump: %q", r.flight)
	}
}
