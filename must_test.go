package repro

import "repro/internal/asm"

// Test-local stand-in for the removed library panic helper:
// production code must handle the errors; statically known test
// fixtures may panic.

func mustAssemble(src string) *asm.Program {
	p, err := asm.Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}
