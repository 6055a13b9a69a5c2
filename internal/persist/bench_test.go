package persist

import (
	"io"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/vm"
	"repro/internal/word"
)

// encodeAllocs bounds what encoding one image allocates, whatever the
// number of pages it holds: the image buffer and the sorted segment and
// revocation keys. Every page is copied once, from its planes into the
// buffer.
const encodeAllocs = 3

// BenchmarkEncode times Encode of a base image of 512 resident pages,
// each holding a word, taken from a kernel. It fails if an encode
// allocates more than encodeAllocs objects.
func BenchmarkEncode(b *testing.B) {
	k, err := kernel.New(machine.MMachine())
	if err != nil {
		b.Fatal(err)
	}
	seg, err := k.AllocSegment(512 * vm.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	for p := uint64(0); p < 512; p++ {
		if err := k.M.Space.WriteWord(seg.Base()+p*vm.PageSize, word.FromInt(int64(p)+1)); err != nil {
			b.Fatal(err)
		}
	}
	cp, err := k.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	hdr := Header{Gen: 1, Parent: 1}
	if a := testing.AllocsPerRun(10, func() { err = Encode(io.Discard, hdr, cp) }); err != nil || a > encodeAllocs {
		b.Fatalf("an encode allocates %v times (err %v), want at most %d", a, err, encodeAllocs)
	}
	b.SetBytes(int64(EncodedSize(cp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, hdr, cp); err != nil {
			b.Fatal(err)
		}
	}
}
