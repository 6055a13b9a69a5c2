package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"E1 ", "E6 ", "E20"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %q:\n%s", id, out)
		}
	}
}

func TestRunSingle(t *testing.T) {
	code, out, _ := runCLI("-run", "E1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "=== E1:") || !strings.Contains(out, "permission") {
		t.Errorf("output:\n%s", out)
	}
}

func TestUnknownID(t *testing.T) {
	code, _, stderr := runCLI("-run", "E99")
	if code != 2 || !strings.Contains(stderr, "unknown id") {
		t.Errorf("exit %d stderr %q", code, stderr)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runCLI("-nope"); code != 2 {
		t.Errorf("exit %d", code)
	}
}
