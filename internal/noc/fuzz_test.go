package noc

import (
	"errors"
	"testing"
)

// FuzzTransport: the transport codec must never panic on arbitrary
// frame words; rejects are typed *HeaderError; accepted frames
// round-trip bit-exactly through Decode→Encode; and the receiver accepts
// each in-order sequence number exactly once, across the 16-bit wrap.
func FuzzTransport(f *testing.F) {
	// In-range frames of each kind, including wrap-edge sequence
	// numbers and both flags.
	for _, h := range []Header{
		{},
		{Kind: ReadReq, Src: 0, Dst: 7, Seq: 0, Ack: 0},
		{Kind: ReadReply, Src: 7, Dst: 0, Seq: 65535, Ack: 65535, Flags: FlagRetransmit},
		{Kind: WriteReq, Src: MaxTransportNode, Dst: MaxTransportNode, Seq: 0x8000, Ack: 0x7fff},
		{Kind: WriteAck, Src: 1, Dst: 2, Seq: 31, Ack: 32, Flags: FlagAckOnly},
	} {
		w, err := h.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(w, h.Seq, h.Ack, uint16(32))
	}
	// Hostile words: unused kind encodings, unknown flag bits.
	f.Add(^uint64(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint64(WriteAck+1), uint16(1), uint16(2), uint16(3))
	f.Add(uint64(0xF)<<hdrFlagsShift, uint16(9), uint16(9), uint16(1))

	// Only base is read; the two unused arguments keep the signature
	// the committed corpus was recorded with.
	f.Fuzz(func(t *testing.T, frame uint64, _, base, _ uint16) {
		h, err := DecodeHeader(frame)
		if err != nil {
			var he *HeaderError
			if !errors.As(err, &he) {
				t.Fatalf("DecodeHeader(%#x): untyped reject %v", frame, err)
			}
		} else {
			// Every field of an accepted frame is covered by the
			// layout, so re-encoding must reproduce the word exactly.
			back, err := h.Encode()
			if err != nil {
				t.Fatalf("DecodeHeader(%#x) = %+v but Encode rejected: %v", frame, h, err)
			}
			if back != frame {
				t.Fatalf("round trip %#x -> %+v -> %#x", frame, h, back)
			}
			h2, err := DecodeHeader(back)
			if err != nil || h2 != h {
				t.Fatalf("re-decode: %+v -> %+v (%v)", h, h2, err)
			}
		}

		// The receiver's dedup accept never panics and accepts each
		// in-order sequence number exactly once.
		cs := &chanState{recvNext: base}
		if cs.accept(base) != true {
			t.Fatalf("in-order seq %d rejected", base)
		}
		if cs.accept(base) {
			t.Fatalf("duplicate seq %d accepted twice", base)
		}
		if cs.recvNext != base+1 || cs.ackSeq != base+1 {
			t.Fatalf("accept did not advance: %+v", cs)
		}
	})
}
