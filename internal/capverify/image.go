package capverify

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/word"
)

// Config fixes the execution environment the verifier assumes: it must
// match how the program will be loaded (cmd/mmsim's defaults) for the
// verdicts to be meaningful.
type Config struct {
	// DataBytes is the size of the scratch data segment handed to the
	// program in r1 (mmsim's -data flag; 0 means the default 4096).
	// The kernel rounds it up to a power of two of at least one word.
	DataBytes uint64

	// Privileged analyzes the program as if loaded with an
	// execute-privileged pointer (LoadProgram's priv argument).
	Privileged bool

	// RegistersOnly disables the whole-program machinery — the abstract
	// store, affine register relations, and interprocedural call
	// contexts — restoring the original per-register analysis. Used by
	// differential tests and `mmlint -stats` to measure what the flow
	// analysis buys; every RegistersOnly fact is also a fact of the full
	// analysis.
	RegistersOnly bool
}

// minSegLog mirrors kernel.MinSegLog: the kernel never allocates a
// segment smaller than one word. (Not imported to keep capverify's
// dependencies to asm/isa/core/word.)
const minSegLog = 3

// ceilLog2 returns the smallest l with 2^l ≥ n (n ≥ 1).
func ceilLog2(n uint64) uint {
	l := uint(0)
	for uint64(1)<<l < n {
		l++
	}
	return l
}

// segLogFor returns the segment-length exponent the kernel would grant
// for an n-byte allocation.
func segLogFor(n uint64) uint {
	if n == 0 {
		n = 1
	}
	l := ceilLog2(n)
	if l < minSegLog {
		l = minSegLog
	}
	return l
}

// Image is the analyzed form of a loaded program: the code segment's
// words padded to the allocated power-of-two size, pre-decoded, plus
// the source map.
type Image struct {
	Words   []word.Word  // padded to 2^CodeLog bytes
	Insts   []isa.Inst   // decoded form; valid iff Decodable[i]
	Decodes []bool       // word decodes as an instruction
	Origins []asm.Origin // source position per program word (not padding)
	Labels  map[string]int

	ProgWords int  // words before padding
	CodeLog   uint // code segment length exponent
	DataLog   uint // data segment length exponent
}

// NewImage lays out prog the way kernel.LoadProgram does: into a
// power-of-two segment whose padding words are zero (and therefore
// decode as NOPs).
func NewImage(prog *asm.Program, cfg Config) *Image {
	dataBytes := cfg.DataBytes
	if dataBytes == 0 {
		dataBytes = 4096
	}
	img := &Image{
		Labels:    prog.Labels,
		ProgWords: len(prog.Words),
		CodeLog:   segLogFor(prog.ByteSize()),
		DataLog:   segLogFor(dataBytes),
	}
	segWords := int(uint64(1) << img.CodeLog / word.BytesPerWord)
	img.Words = make([]word.Word, segWords)
	copy(img.Words, prog.Words)
	img.Origins = prog.Origins
	img.Insts = make([]isa.Inst, segWords)
	img.Decodes = make([]bool, segWords)
	for i, w := range img.Words {
		inst, err := isa.Decode(w)
		if err == nil {
			img.Insts[i] = inst
			img.Decodes[i] = true
		}
	}
	return img
}

// SegWords returns the number of word slots in the code segment.
func (img *Image) SegWords() int { return len(img.Words) }

// Origin returns the source position of program word i, or a zero
// Origin for padding or data words.
func (img *Image) Origin(i int) asm.Origin {
	if i >= 0 && i < len(img.Origins) {
		return img.Origins[i]
	}
	return asm.Origin{}
}
