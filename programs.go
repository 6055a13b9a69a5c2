// Package repro embeds the shipped sample programs under programs/, so
// the tools and tests that run them work from any directory: a built
// cmd/experiments needs no checkout beside it.
package repro

import (
	"embed"
	"fmt"
	"io/fs"
	"path"
	"strings"

	"repro/internal/asm"
)

//go:embed programs/*.s
var programFiles embed.FS

// Program is one shipped program: its file's base name and its
// assembled image.
type Program struct {
	Name string
	Prog *asm.Program
}

// Programs assembles every shipped program in name order, linking
// usemem.s against memlib.s the way cmd/mmld does. memlib.s is a
// library, not a program.
func Programs() ([]Program, error) {
	files, err := fs.Glob(programFiles, "programs/*.s")
	if err != nil {
		return nil, err
	}
	lib, err := assembleModule("memlib.s")
	if err != nil {
		return nil, err
	}
	var out []Program
	for _, f := range files {
		name := path.Base(f)
		var prog *asm.Program
		switch name {
		case "memlib.s":
			continue
		case "usemem.s":
			m, err := assembleModule(name)
			if err != nil {
				return nil, err
			}
			if prog, err = asm.Link(m, lib); err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
		default:
			src, err := programFiles.ReadFile(f)
			if err != nil {
				return nil, err
			}
			if prog, err = asm.AssembleNamed(name, string(src)); err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
		}
		out = append(out, Program{Name: name, Prog: prog})
	}
	return out, nil
}

// assembleModule assembles the shipped file name as a module named for
// it, ready to link.
func assembleModule(name string) (*asm.Module, error) {
	src, err := programFiles.ReadFile("programs/" + name)
	if err != nil {
		return nil, err
	}
	m, err := asm.AssembleModule(strings.TrimSuffix(name, ".s"), string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	return m, nil
}
