// Reliable transport over the lossy mesh.
//
// The raw fabric of noc.go loses, duplicates, corrupts, and delays
// messages when a fault interceptor says so — that is the point of the
// fault-injection campaign. This file layers an end-to-end transport
// over Deliver so those fault classes are *tolerated* instead of
// surfaced: every frame carries a sequence number and a cumulative ack
// in a 64-bit header, the sender retransmits on a cycle-based timeout
// with exponential backoff when a frame is dropped or fails the link
// CRC, and the receiver suppresses duplicate sequence numbers. Payloads
// are never lost and never delivered twice; only timing changes.
//
// The transport is off by default (Config.Transport.Enabled) so the
// lossy semantics the E14/E23 baselines measure stay reproducible
// bit-for-bit.
package noc

import (
	"fmt"

	"repro/internal/telemetry"
)

// Transport frame-header layout (64 bits):
//
//	bits  0..3   kind   (4 bits — ReadReq..WriteAck)
//	bits  4..15  src    (12 bits — node id)
//	bits 16..27  dst    (12 bits — node id)
//	bits 28..43  seq    (16 bits — per-channel sequence number)
//	bits 44..59  ack    (16 bits — cumulative ack for the reverse channel)
//	bits 60..63  flags  (4 bits — FlagRetransmit | FlagAckOnly)
const (
	hdrKindBits = 4
	hdrNodeBits = 12
	hdrSeqBits  = 16

	hdrSrcShift   = hdrKindBits
	hdrDstShift   = hdrSrcShift + hdrNodeBits
	hdrSeqShift   = hdrDstShift + hdrNodeBits
	hdrAckShift   = hdrSeqShift + hdrSeqBits
	hdrFlagsShift = hdrAckShift + hdrSeqBits

	// MaxTransportNode is the largest node id the 12-bit header field
	// can address.
	MaxTransportNode = 1<<hdrNodeBits - 1
)

// Transport header flags.
const (
	// FlagRetransmit marks a frame the sender is re-sending after a
	// timeout; receivers treat it like any other frame (dedup is by
	// sequence number), the flag exists for tracing and the audit.
	FlagRetransmit uint8 = 1 << 0
	// FlagAckOnly marks a frame carrying no payload, sent purely to
	// advance the peer's cumulative ack.
	FlagAckOnly uint8 = 1 << 1
	// FlagTraced marks a frame carrying a causal-span context in its
	// side-band word (see SpanContext in noc.go): the trace/span/parent
	// ids of the operation this frame is a leg of. The flag has no
	// effect on transport behavior — dedup and retransmission ignore it
	// — it exists so receivers and the audit can tell which frames were
	// part of a traced flow.
	FlagTraced uint8 = 1 << 2

	flagsMask = FlagRetransmit | FlagAckOnly | FlagTraced
)

// TransportConfig tunes the reliable-transport layer. The zero value
// disables it, preserving the raw lossy Deliver semantics.
type TransportConfig struct {
	// Enabled turns the transport on: Deliver retransmits through
	// drop/corrupt faults and suppresses duplicates instead of
	// surfacing them.
	Enabled bool
	// RetransmitTimeout is the base retransmission timeout in cycles;
	// attempt k waits RetransmitTimeout << k (exponential backoff).
	// 0 means 64.
	RetransmitTimeout uint64
	// MaxRetries bounds the retransmission attempts per frame; after
	// MaxRetries timeouts the transport gives up and reports the frame
	// undelivered (the caller's watchdog territory). 0 means 8.
	MaxRetries int
}

// transportDefaults fills zero fields with the documented defaults.
func (c TransportConfig) withDefaults() TransportConfig {
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = 64
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	return c
}

// Header is the decoded transport frame header.
type Header struct {
	Kind     Kind
	Src, Dst int
	Seq, Ack uint16
	Flags    uint8
}

// HeaderError reports a header field that cannot be encoded or a frame
// word that does not decode to a valid header.
type HeaderError struct {
	Field string
	Value uint64
}

func (e *HeaderError) Error() string {
	return fmt.Sprintf("noc: transport header: bad %s %#x", e.Field, e.Value)
}

// Encode packs the header into its 64-bit frame word. Every field is
// range-checked; violations return a typed *HeaderError.
func (h Header) Encode() (uint64, error) {
	if h.Kind > WriteAck {
		return 0, &HeaderError{Field: "kind", Value: uint64(h.Kind)}
	}
	if h.Src < 0 || h.Src > MaxTransportNode {
		return 0, &HeaderError{Field: "src", Value: uint64(uint(h.Src))}
	}
	if h.Dst < 0 || h.Dst > MaxTransportNode {
		return 0, &HeaderError{Field: "dst", Value: uint64(uint(h.Dst))}
	}
	if h.Flags&^flagsMask != 0 {
		return 0, &HeaderError{Field: "flags", Value: uint64(h.Flags)}
	}
	return uint64(h.Kind) |
		uint64(h.Src)<<hdrSrcShift |
		uint64(h.Dst)<<hdrDstShift |
		uint64(h.Seq)<<hdrSeqShift |
		uint64(h.Ack)<<hdrAckShift |
		uint64(h.Flags)<<hdrFlagsShift, nil
}

// DecodeHeader unpacks a frame word, validating the kind and flags
// fields (the only ones with unused encodings). Valid frames round-trip:
// DecodeHeader(h.Encode()) == h and decoded.Encode() == word.
func DecodeHeader(v uint64) (Header, error) {
	h := Header{
		Kind:  Kind(v & (1<<hdrKindBits - 1)),
		Src:   int(v >> hdrSrcShift & MaxTransportNode),
		Dst:   int(v >> hdrDstShift & MaxTransportNode),
		Seq:   uint16(v >> hdrSeqShift),
		Ack:   uint16(v >> hdrAckShift),
		Flags: uint8(v >> hdrFlagsShift),
	}
	if h.Kind > WriteAck {
		return Header{}, &HeaderError{Field: "kind", Value: uint64(h.Kind)}
	}
	if h.Flags&^flagsMask != 0 {
		return Header{}, &HeaderError{Field: "flags", Value: uint64(h.Flags)}
	}
	return h, nil
}

// chanKey names a directed transport channel.
type chanKey struct{ src, dst int }

// chanState is one directed channel's connection state: the sender's
// next sequence number and the receiver's expectation plus cumulative
// ack, kept together because the simulator holds both endpoints.
type chanState struct {
	nextSeq  uint16 // next sequence number the sender will assign
	recvNext uint16 // receiver: lowest sequence number not yet accepted
	ackSeq   uint16 // receiver: cumulative ack (== recvNext once data flows)
}

// accept runs the receiver's dedup check for an arriving frame: the
// expected in-order sequence number is accepted and advances the
// cumulative ack; anything else is a stale retransmission or a
// duplicated copy and is suppressed. (A frame ahead of the expected
// one is impossible in the synchronous model — frames are injected in
// sequence order.)
func (c *chanState) accept(seq uint16) bool {
	if seq == c.recvNext {
		c.recvNext++
		c.ackSeq = c.recvNext
		return true
	}
	return false
}

// chanFor returns (allocating on first use) the channel state for
// src→dst.
func (n *Network) chanFor(src, dst int) *chanState {
	if n.chans == nil {
		n.chans = make(map[chanKey]*chanState)
	}
	k := chanKey{src, dst}
	cs := n.chans[k]
	if cs == nil {
		cs = &chanState{}
		n.chans[k] = cs
	}
	return cs
}

// deliverReliable is Deliver with the transport enabled: one logical
// message becomes as many frame transmissions as the fault interceptor
// forces, and the caller sees a clean delivery (at a later arrival
// cycle) unless every retry is exhausted.
//
// Each transmission attempt consults the interceptor independently, so
// a retransmitted frame can itself be dropped, delayed, corrupted, or
// duplicated. Drop and corrupt trigger a timeout of
// RetransmitTimeout << attempt cycles and a retransmission; a
// duplicated frame's second copy is suppressed by the receiver's
// sequence check; delay simply pushes injection later. After
// MaxRetries timeouts the transport gives up and reports the message
// undelivered — the escalation path (node watchdog) takes over.
//
// extraFlags is OR-ed into every attempt's header (DeliverSpan passes
// FlagTraced); it never affects timing or dedup.
func (n *Network) deliverReliable(k Kind, src, dst int, now uint64, extraFlags uint8) (arrive uint64, delivered bool, err error) {
	if src < 0 || src >= n.Nodes() || dst < 0 || dst >= n.Nodes() {
		return 0, false, n.rangeErr(src, dst)
	}
	tc := n.transport
	cs := n.chanFor(src, dst)
	rev := n.chanFor(dst, src)
	seq := cs.nextSeq
	cs.nextSeq++
	for attempt := 0; ; attempt++ {
		flags := extraFlags
		if attempt > 0 {
			flags |= FlagRetransmit
		}
		// The frame header is encoded and decoded for every physical
		// transmission — the codec the fuzzer exercises is the one on
		// the wire path.
		frame, err := Header{Kind: k, Src: src, Dst: dst, Seq: seq, Ack: rev.ackSeq, Flags: flags}.Encode()
		if err != nil {
			return 0, false, err
		}
		hdr, err := DecodeHeader(frame)
		if err != nil {
			return 0, false, err
		}

		var fate Fate
		if n.Interceptor != nil {
			fate = n.Interceptor.Intercept(k, src, dst, now)
		}
		if fate.Delay > 0 {
			n.stats.DelayCycles += fate.Delay
			now += fate.Delay
		}
		lost := false
		if fate.Drop {
			n.stats.Dropped++
			lost = true // consumed at the interface; receiver sees nothing
		} else {
			arrive, err = n.Send(src, dst, now)
			if err != nil {
				return 0, false, err
			}
			if fate.Duplicate {
				// The second copy consumes fabric bandwidth and reaches
				// the receiver, which rejects its repeated sequence
				// number.
				n.stats.Duplicated++
				if _, err := n.Send(src, dst, now); err != nil {
					return 0, false, err
				}
			}
			if fate.Corrupt {
				// The link CRC rejects the frame on arrival; the
				// receiver discards it without acking, so the sender
				// times out exactly as for a drop.
				n.stats.Corrupted++
				lost = true
			}
		}
		if !lost {
			if cs.accept(hdr.Seq) {
				if fate.Duplicate && !cs.accept(hdr.Seq) {
					n.stats.DupSuppressed++
				}
				return arrive, true, nil
			}
			// A duplicate of an already-accepted frame (a prior copy
			// won the race): suppressed, but the payload was delivered.
			n.stats.DupSuppressed++
			return arrive, true, nil
		}
		if attempt >= tc.MaxRetries {
			n.stats.TransportGaveUp++
			if n.Flight != nil {
				n.Flight.Note(now, telemetry.EvNoCMsg,
					fmt.Sprintf("transport give-up: %v %d->%d seq=%d after %d attempts", k, src, dst, seq, attempt+1))
			}
			if n.OnGiveUp != nil {
				n.OnGiveUp(k, src, dst, now)
			}
			return 0, false, nil
		}
		backoff := tc.RetransmitTimeout << uint(attempt)
		n.stats.TimeoutCycles += backoff
		n.stats.Retransmits++
		if n.HistRetransmit != nil {
			n.HistRetransmit.Observe(backoff)
		}
		if n.Flight != nil {
			n.Flight.Note(now, telemetry.EvNoCMsg,
				fmt.Sprintf("transport retransmit: %v %d->%d seq=%d backoff=%d", k, src, dst, seq, backoff))
		}
		now += backoff
	}
}
