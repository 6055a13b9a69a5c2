package migrate

import (
	"bytes"
	"testing"
)

// BenchmarkFrameCodec measures the wire codec alone: one max-payload
// frame encoded and decoded (header and payload CRCs both verified on
// the way back in).
func BenchmarkFrameCodec(b *testing.B) {
	payload := make([]byte, MaxFramePayload)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	f := &Frame{Kind: FrameImage, Round: 2, Seq: 7, Chunk: 1, Chunks: 4, Payload: payload}
	raw, err := EncodeFrame(f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err = EncodeFrame(f)
		if err != nil {
			b.Fatal(err)
		}
		got, err := DecodeFrame(raw)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got.Payload, payload) {
			b.Fatal("payload mismatch")
		}
	}
}
