package noc

import (
	"errors"
	"testing"
)

// scriptFaulter replays a fixed fate per Intercept call; calls past the
// script are clean deliveries.
type scriptFaulter struct {
	fates []Fate
	calls int
}

func (s *scriptFaulter) Intercept(k Kind, src, dst int, now uint64) Fate {
	i := s.calls
	s.calls++
	if i < len(s.fates) {
		return s.fates[i]
	}
	return Fate{}
}

// reliableMesh builds a 2×2×1 mesh with the transport enabled and the
// given fault script.
func reliableMesh(t *testing.T, tc TransportConfig, fates ...Fate) (*Network, *scriptFaulter) {
	t.Helper()
	tc.Enabled = true
	n, err := New(Config{DimX: 2, DimY: 2, DimZ: 1, RouterLatency: 2, InjectLatency: 1, Transport: tc})
	if err != nil {
		t.Fatal(err)
	}
	sf := &scriptFaulter{fates: fates}
	n.Interceptor = sf
	return n, sf
}

func TestTransportCleanDeliveryMatchesSend(t *testing.T) {
	n, _ := reliableMesh(t, TransportConfig{})
	ref := mesh(t, 2, 2, 1)
	want := send(t, ref, 0, 3, 100)
	arrive, delivered, err := n.Deliver(ReadReq, 0, 3, 100)
	if err != nil || !delivered {
		t.Fatalf("Deliver = (%d, %v, %v)", arrive, delivered, err)
	}
	if arrive != want {
		t.Fatalf("clean transport arrival %d, want Send's %d", arrive, want)
	}
	st := n.Stats()
	if st.Retransmits != 0 || st.DupSuppressed != 0 || st.TransportGaveUp != 0 {
		t.Fatalf("clean delivery touched transport counters: %+v", st)
	}
}

func TestTransportRetransmitsThroughDrop(t *testing.T) {
	n, sf := reliableMesh(t, TransportConfig{RetransmitTimeout: 16}, Fate{Drop: true})
	arrive, delivered, err := n.Deliver(ReadReq, 0, 1, 0)
	if err != nil || !delivered {
		t.Fatalf("Deliver = (%d, %v, %v), want recovered delivery", arrive, delivered, err)
	}
	// The first attempt is consumed at cycle 0; the retransmission
	// leaves 16 cycles later and arrives at 16 + zero-load.
	if want := 16 + n.ZeroLoadLatency(0, 1); arrive != want {
		t.Fatalf("arrival %d, want %d (timeout + zero-load)", arrive, want)
	}
	st := n.Stats()
	if st.Dropped != 1 || st.Retransmits != 1 || st.TimeoutCycles != 16 {
		t.Fatalf("stats %+v: want 1 drop, 1 retransmit, 16 timeout cycles", st)
	}
	if sf.calls != 2 {
		t.Fatalf("interceptor consulted %d times, want 2 (one per attempt)", sf.calls)
	}
}

func TestTransportRetransmitsThroughCorrupt(t *testing.T) {
	n, _ := reliableMesh(t, TransportConfig{RetransmitTimeout: 8}, Fate{Corrupt: true})
	arrive, delivered, err := n.Deliver(WriteReq, 0, 2, 0)
	if err != nil {
		t.Fatalf("corrupt frame surfaced to caller: %v", err)
	}
	if !delivered {
		t.Fatal("message not delivered")
	}
	if arrive <= n.ZeroLoadLatency(0, 2) {
		t.Fatalf("arrival %d not pushed past the CRC-failure timeout", arrive)
	}
	st := n.Stats()
	if st.Corrupted != 1 || st.Retransmits != 1 {
		t.Fatalf("stats %+v: want 1 corrupted, 1 retransmit", st)
	}
}

func TestTransportSuppressesDuplicate(t *testing.T) {
	n, _ := reliableMesh(t, TransportConfig{}, Fate{Duplicate: true})
	arrive, delivered, err := n.Deliver(ReadReply, 1, 0, 5)
	if err != nil || !delivered {
		t.Fatalf("Deliver = (%d, %v, %v)", arrive, delivered, err)
	}
	st := n.Stats()
	if st.Duplicated != 1 || st.DupSuppressed != 1 {
		t.Fatalf("stats %+v: want the duplicate copy sent and suppressed", st)
	}
	if st.Messages != 2 {
		t.Fatalf("Messages = %d, want 2 (duplicate consumes bandwidth)", st.Messages)
	}
}

// A retransmitted frame can itself be dropped: each attempt is
// intercepted independently, and backoff doubles per attempt.
func TestTransportDropOfRetransmittedFrame(t *testing.T) {
	n, sf := reliableMesh(t, TransportConfig{RetransmitTimeout: 10},
		Fate{Drop: true}, Fate{Drop: true})
	arrive, delivered, err := n.Deliver(ReadReq, 0, 1, 0)
	if err != nil || !delivered {
		t.Fatalf("Deliver = (%d, %v, %v)", arrive, delivered, err)
	}
	// Timeouts: 10 after attempt 0, 20 after attempt 1 → third attempt
	// injects at cycle 30.
	if want := 30 + n.ZeroLoadLatency(0, 1); arrive != want {
		t.Fatalf("arrival %d, want %d (exponential backoff)", arrive, want)
	}
	st := n.Stats()
	if st.Retransmits != 2 || st.TimeoutCycles != 30 || st.Dropped != 2 {
		t.Fatalf("stats %+v: want 2 retransmits over 30 timeout cycles", st)
	}
	if sf.calls != 3 {
		t.Fatalf("interceptor consulted %d times, want 3", sf.calls)
	}
}

func TestTransportDelayOnlyShiftsArrival(t *testing.T) {
	n, _ := reliableMesh(t, TransportConfig{}, Fate{Delay: 7})
	arrive, delivered, err := n.Deliver(WriteAck, 2, 0, 0)
	if err != nil || !delivered {
		t.Fatalf("Deliver = (%d, %v, %v)", arrive, delivered, err)
	}
	if want := 7 + n.ZeroLoadLatency(2, 0); arrive != want {
		t.Fatalf("arrival %d, want %d", arrive, want)
	}
	if st := n.Stats(); st.Retransmits != 0 || st.DelayCycles != 7 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTransportGivesUpAfterMaxRetries(t *testing.T) {
	drops := make([]Fate, 4)
	for i := range drops {
		drops[i] = Fate{Drop: true}
	}
	n, sf := reliableMesh(t, TransportConfig{MaxRetries: 3, RetransmitTimeout: 1}, drops...)
	_, delivered, err := n.Deliver(ReadReq, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("delivered through an unbroken drop storm")
	}
	st := n.Stats()
	if st.TransportGaveUp != 1 || st.Retransmits != 3 {
		t.Fatalf("stats %+v: want give-up after 3 retries", st)
	}
	if sf.calls != 4 {
		t.Fatalf("interceptor consulted %d times, want 4 attempts", sf.calls)
	}
}

// Sequence numbers advance per directed channel and the receiver
// dedups across messages, not just within one.
func TestTransportSequencesPerChannel(t *testing.T) {
	n, _ := reliableMesh(t, TransportConfig{})
	for i := 0; i < 3; i++ {
		if _, ok, err := n.Deliver(ReadReq, 0, 1, uint64(i*10)); !ok || err != nil {
			t.Fatalf("msg %d: (%v, %v)", i, ok, err)
		}
	}
	cs := n.chanFor(0, 1)
	if cs.nextSeq != 3 || cs.recvNext != 3 || cs.ackSeq != 3 {
		t.Fatalf("channel state %+v, want seq/recv/ack all 3", cs)
	}
	if rev := n.chanFor(1, 0); rev.nextSeq != 0 {
		t.Fatalf("reverse channel advanced: %+v", rev)
	}
}

func TestTransportOutOfRange(t *testing.T) {
	n, _ := reliableMesh(t, TransportConfig{})
	if _, _, err := n.Deliver(ReadReq, 0, 99, 0); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("err = %v, want ErrNodeRange", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	cases := []Header{
		{},
		{Kind: WriteAck, Src: MaxTransportNode, Dst: 0, Seq: 65535, Ack: 1, Flags: FlagRetransmit},
		{Kind: ReadReply, Src: 7, Dst: 3, Seq: 0x8000, Ack: 0x7fff, Flags: FlagAckOnly | FlagRetransmit},
	}
	for _, h := range cases {
		v, err := h.Encode()
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		got, err := DecodeHeader(v)
		if err != nil {
			t.Fatalf("%+v: decode: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip %+v → %+v", h, got)
		}
	}
}

func TestHeaderEncodeRejects(t *testing.T) {
	var he *HeaderError
	cases := []struct {
		name string
		h    Header
	}{
		{"kind", Header{Kind: 9}},
		{"src-neg", Header{Src: -1}},
		{"src-big", Header{Src: MaxTransportNode + 1}},
		{"dst-big", Header{Dst: 1 << 13}},
		{"flags", Header{Flags: 0x8}},
	}
	for _, c := range cases {
		if _, err := c.h.Encode(); !errors.As(err, &he) {
			t.Fatalf("%s: err = %v, want *HeaderError", c.name, err)
		}
	}
	// Decode rejects the unused kind and flag encodings.
	bad := uint64(WriteAck+1) | uint64(0x4)<<hdrFlagsShift
	if _, err := DecodeHeader(bad); !errors.As(err, &he) {
		t.Fatalf("decode bad kind: %v", err)
	}
	if _, err := DecodeHeader(uint64(0xC) << hdrFlagsShift); !errors.As(err, &he) {
		t.Fatalf("decode bad flags: %v", err)
	}
}
