// Package noc models the M-Machine's 3-dimensional mesh interconnect
// (Sec 3: "The M-Machine is a multicomputer with a 3-dimensional mesh
// interconnect and multithreaded processing nodes").
//
// Routing is dimension-order (X, then Y, then Z), the standard
// deadlock-free choice for meshes of the period. Timing uses link
// reservation: every directed link transmits one message per cycle, a
// router adds a fixed per-hop latency, and a message's arrival time is
// computed by reserving each link on its path no earlier than both the
// message's arrival at that router and the link's previous departure —
// which captures serialization and head-of-line contention without
// simulating individual flits.
//
// The network is protection-oblivious by design: capabilities travel
// inside pointer words like any other data, so no per-node protection
// state, ACLs, or translation tables appear anywhere in the fabric.
// That absence is the paper's point.
package noc

import (
	"errors"
	"fmt"

	"repro/internal/telemetry"
)

// ErrNodeRange reports a Send whose source or destination is not a node
// of this mesh. Library code returns it instead of panicking so a
// malformed caller (or a corrupted node id) degrades into an error the
// simulator can account for.
var ErrNodeRange = errors.New("noc: node out of range")

// Coord is a node position in the mesh.
type Coord struct{ X, Y, Z int }

// Config fixes mesh geometry and timing.
type Config struct {
	DimX, DimY, DimZ int
	// RouterLatency is the cycles a message spends per hop (switch +
	// link traversal).
	RouterLatency uint64
	// InjectLatency is the fixed cost to enter/exit the network
	// (network interface serialization).
	InjectLatency uint64
	// Transport configures the reliable end-to-end transport layered
	// over Deliver (see transport.go). Disabled by default: the raw
	// lossy semantics the fault-injection baselines measure are the
	// zero value.
	Transport TransportConfig
}

// DefaultConfig is a 2×2×2 mesh with 2-cycle hops, matching the scale
// of early M-Machine configurations.
func DefaultConfig() Config {
	return Config{DimX: 2, DimY: 2, DimZ: 2, RouterLatency: 2, InjectLatency: 1}
}

// Kind distinguishes the transaction types remote memory access needs.
type Kind uint8

const (
	// ReadReq asks the home node for the word at Addr.
	ReadReq Kind = iota
	// ReadReply carries the word back.
	ReadReply
	// WriteReq carries a word to store at Addr on the home node.
	WriteReq
	// WriteAck confirms the store.
	WriteAck
)

var kindNames = [...]string{ReadReq: "read-req", ReadReply: "read-reply", WriteReq: "write-req", WriteAck: "write-ack"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Stats aggregates network activity.
type Stats struct {
	Messages         uint64
	TotalHops        uint64
	TotalLatency     uint64 // sum of (arrival − injection)
	ContentionCycles uint64 // cycles spent waiting for busy links
	// Fault-injection outcomes (all zero without an Interceptor).
	Dropped     uint64 // messages lost in the fabric
	Duplicated  uint64 // messages delivered twice
	Corrupted   uint64 // messages failing the link CRC on arrival
	DelayCycles uint64 // extra injection delay imposed on messages
	// Reliable-transport outcomes (all zero unless Transport.Enabled).
	Retransmits     uint64 // frames re-sent after a timeout
	DupSuppressed   uint64 // duplicate frames rejected by sequence check
	TimeoutCycles   uint64 // cycles spent waiting out retransmit timeouts
	TransportGaveUp uint64 // messages abandoned after MaxRetries
}

// Fate is an Interceptor's verdict on one message. The zero Fate is a
// clean delivery.
type Fate struct {
	Drop      bool   // lose the message in the fabric
	Duplicate bool   // deliver it twice (second copy consumes bandwidth)
	Corrupt   bool   // flip payload bits; the link CRC catches it on arrival
	Delay     uint64 // hold the message this many cycles before injection
}

// Interceptor decides the fate of every message entering the network —
// the fault-injection point of docs/ROBUSTNESS.md. Implementations must
// be deterministic functions of their own state and the message
// parameters; the network consults the interceptor before any link
// reservation happens.
type Interceptor interface {
	Intercept(k Kind, src, dst int, now uint64) Fate
}

// PayloadError reports a message whose payload failed the link-level
// CRC on arrival — the delivery happened, the data cannot be trusted.
type PayloadError struct {
	Kind     Kind
	Src, Dst int
}

func (e *PayloadError) Error() string {
	return fmt.Sprintf("noc: %v %d→%d failed link CRC (payload corrupted)", e.Kind, e.Src, e.Dst)
}

// CorruptionDetected marks this error as an explicit
// corruption-detection signal for the fault-injection audit.
func (e *PayloadError) CorruptionDetected() bool { return true }

// link identifies a directed mesh link by its source router and
// direction.
type link struct {
	from Coord
	dim  int // 0=X 1=Y 2=Z
	pos  bool
}

// Network is a dimension-order-routed 3D mesh.
type Network struct {
	cfg   Config
	busy  map[link]uint64 // next free cycle per directed link
	stats Stats

	// Tracer, when non-nil, receives one cycle-stamped event per
	// injected message (Addr carries the source node, Code the
	// destination).
	Tracer *telemetry.Tracer

	// Interceptor, when non-nil, decides the fate of every message sent
	// through Deliver. Send itself stays fault-free so timing-model
	// callers are unaffected.
	Interceptor Interceptor

	// HistRetransmit, when non-nil, records each retransmission's
	// backoff delay (the cycles the sender waited out before re-sending)
	// — the transport-recovery latency distribution.
	HistRetransmit *telemetry.Histogram

	// Flight, when non-nil, receives a note per transport retransmission
	// and give-up — the mesh's contribution to a failure's run-up. All
	// FlightRecorder methods are nil-safe.
	Flight *telemetry.FlightRecorder

	// OnGiveUp, when non-nil, fires when the reliable transport abandons
	// a message after MaxRetries — the transport-give-up auto-dump
	// trigger.
	OnGiveUp func(k Kind, src, dst int, now uint64)

	// Reliable-transport state (transport.go): resolved configuration
	// and per-directed-channel sequence/ack state, allocated lazily.
	transport TransportConfig
	chans     map[chanKey]*chanState
}

// New validates the configuration and builds the network.
func New(cfg Config) (*Network, error) {
	if cfg.DimX < 1 || cfg.DimY < 1 || cfg.DimZ < 1 {
		return nil, fmt.Errorf("noc: non-positive mesh %dx%dx%d", cfg.DimX, cfg.DimY, cfg.DimZ)
	}
	if cfg.DimX*cfg.DimY*cfg.DimZ > MaxTransportNode+1 {
		return nil, fmt.Errorf("noc: mesh %dx%dx%d exceeds %d addressable nodes",
			cfg.DimX, cfg.DimY, cfg.DimZ, MaxTransportNode+1)
	}
	return &Network{cfg: cfg, busy: make(map[link]uint64), transport: cfg.Transport.withDefaults()}, nil
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.cfg.DimX * n.cfg.DimY * n.cfg.DimZ }

// CoordOf converts a node id to its mesh coordinate.
func (n *Network) CoordOf(id int) Coord {
	return Coord{
		X: id % n.cfg.DimX,
		Y: id / n.cfg.DimX % n.cfg.DimY,
		Z: id / (n.cfg.DimX * n.cfg.DimY),
	}
}

// IDOf converts a coordinate to a node id.
func (n *Network) IDOf(c Coord) int {
	return c.X + n.cfg.DimX*(c.Y+n.cfg.DimY*c.Z)
}

// Hops returns the Manhattan distance between two nodes.
func (n *Network) Hops(src, dst int) int {
	a, b := n.CoordOf(src), n.CoordOf(dst)
	return abs(a.X-b.X) + abs(a.Y-b.Y) + abs(a.Z-b.Z)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// path returns the directed links a dimension-order route traverses.
func (n *Network) path(src, dst int) []link {
	cur := n.CoordOf(src)
	goal := n.CoordOf(dst)
	var links []link
	step := func(dim int, curv, goalv *int) {
		for *curv != *goalv {
			pos := *goalv > *curv
			links = append(links, link{from: cur, dim: dim, pos: pos})
			if pos {
				*curv++
			} else {
				*curv--
			}
		}
	}
	step(0, &cur.X, &goal.X)
	step(1, &cur.Y, &goal.Y)
	step(2, &cur.Z, &goal.Z)
	return links
}

// reserve claims the directed link l no earlier than the message's
// arrival t at its source router, accounting link contention, and
// returns the departure time from the router.
func (n *Network) reserve(l link, t uint64) uint64 {
	n.stats.TotalHops++
	if b := n.busy[l]; b > t {
		n.stats.ContentionCycles += b - t
		t = b
	}
	n.busy[l] = t + 1 // the link is occupied for one cycle
	return t + n.cfg.RouterLatency
}

// ReleaseLinks drops every link reservation, for a mesh whose node
// clocks all restart at cycle 0 (a restore of every node): a link held
// until some cycle of the old timeline would otherwise stall the new
// one's messages until the clocks caught up with it.
func (n *Network) ReleaseLinks() { clear(n.busy) }

// Send injects a message from src to dst at cycle now and returns its
// arrival cycle at the destination's network interface. Sending to the
// local node costs only the interface latency. The dimension-order
// route is walked inline (rather than materialized via path) so the
// remote-access fast path allocates nothing. Out-of-range nodes return
// an error wrapping ErrNodeRange.
func (n *Network) Send(src, dst int, now uint64) (uint64, error) {
	if src < 0 || src >= n.Nodes() || dst < 0 || dst >= n.Nodes() {
		return 0, n.rangeErr(src, dst)
	}
	n.stats.Messages++
	t := now + n.cfg.InjectLatency
	if src == dst {
		n.stats.TotalLatency += t - now
		return t, nil
	}
	cur, goal := n.CoordOf(src), n.CoordOf(dst)
	for cur.X != goal.X {
		pos := goal.X > cur.X
		t = n.reserve(link{from: cur, dim: 0, pos: pos}, t)
		if pos {
			cur.X++
		} else {
			cur.X--
		}
	}
	for cur.Y != goal.Y {
		pos := goal.Y > cur.Y
		t = n.reserve(link{from: cur, dim: 1, pos: pos}, t)
		if pos {
			cur.Y++
		} else {
			cur.Y--
		}
	}
	for cur.Z != goal.Z {
		pos := goal.Z > cur.Z
		t = n.reserve(link{from: cur, dim: 2, pos: pos}, t)
		if pos {
			cur.Z++
		} else {
			cur.Z--
		}
	}
	t += n.cfg.InjectLatency
	n.stats.TotalLatency += t - now
	if n.Tracer != nil && n.Tracer.Enabled(telemetry.EvNoCMsg) {
		n.Tracer.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvNoCMsg,
			Thread: -1, Cluster: -1, Domain: -1, Addr: uint64(src), Code: int64(dst),
			Detail: fmt.Sprintf("node %d -> %d (arrive %d)", src, dst, t)})
	}
	return t, nil
}

// rangeErr is the cold-path constructor for ErrNodeRange wrapping.
//
//go:noinline
func (n *Network) rangeErr(src, dst int) error {
	return fmt.Errorf("%w (%d→%d of %d)", ErrNodeRange, src, dst, n.Nodes())
}

// Deliver is Send behind the fault-injection interception point: the
// Interceptor (if any) decides the message's Fate before it enters the
// fabric.
//
//   - Drop: the message is lost; delivered is false and no links are
//     reserved (the fault consumed it at the interface).
//   - Delay: injection is held for Fate.Delay cycles first.
//   - Duplicate: a second copy traverses the fabric (consuming link
//     bandwidth); arrival is the first copy's.
//   - Corrupt: the message arrives on time but its payload fails the
//     link CRC — err is a *PayloadError and the data must not be used.
//
// With no interceptor installed, Deliver is exactly Send.
//
// With Config.Transport.Enabled, the reliable transport takes over: the
// same fault fates are applied per transmission attempt but retried
// through, so drop/duplicate/corrupt never reach the caller (see
// deliverReliable in transport.go).
func (n *Network) Deliver(k Kind, src, dst int, now uint64) (arrive uint64, delivered bool, err error) {
	if n.transport.Enabled {
		return n.deliverReliable(k, src, dst, now, 0)
	}
	if n.Interceptor == nil {
		arrive, err = n.Send(src, dst, now)
		return arrive, err == nil, err
	}
	fate := n.Interceptor.Intercept(k, src, dst, now)
	if fate.Drop {
		n.stats.Dropped++
		return 0, false, nil
	}
	if fate.Delay > 0 {
		n.stats.DelayCycles += fate.Delay
		now += fate.Delay
	}
	arrive, err = n.Send(src, dst, now)
	if err != nil {
		return 0, false, err
	}
	if fate.Duplicate {
		n.stats.Duplicated++
		if _, err := n.Send(src, dst, now); err != nil {
			return 0, false, err
		}
	}
	if fate.Corrupt {
		n.stats.Corrupted++
		return arrive, true, &PayloadError{Kind: k, Src: src, Dst: dst}
	}
	return arrive, true, nil
}

// SpanContext carries causal-trace identity alongside a message:
// Trace names the whole flow (canonically the root span's id), Span
// this network leg, Parent the span that caused it. The 64-bit
// transport header is fully allocated, so the ids travel as this
// documented side-band word while the header's FlagTraced bit marks
// the frame as carrying one (see transport.go).
type SpanContext struct {
	Trace, Span, Parent uint64
}

// DeliverSpan is Deliver with causal-span emission: when sc.Span is
// nonzero and the network's tracer has span kinds enabled, the leg is
// bracketed with EvSpanBegin (at injection, Cluster = src) and
// EvSpanEnd (at arrival, Cluster = dst) events carrying sc's ids, and
// transport frames carry FlagTraced. An undelivered message leaves its
// span open — visibly unfinished in the trace, which is the point.
// Timing, statistics, and fault semantics are identical to Deliver.
func (n *Network) DeliverSpan(k Kind, src, dst int, now uint64, sc SpanContext) (arrive uint64, delivered bool, err error) {
	traced := sc.Span != 0 && n.Tracer != nil && n.Tracer.Enabled(telemetry.EvSpanBegin)
	if !traced {
		return n.Deliver(k, src, dst, now)
	}
	n.Tracer.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvSpanBegin,
		Thread: -1, Cluster: src, Domain: -1, Code: int64(dst), Detail: k.String(),
		Trace: sc.Trace, Span: sc.Span, Parent: sc.Parent})
	if n.transport.Enabled {
		arrive, delivered, err = n.deliverReliable(k, src, dst, now, FlagTraced)
	} else {
		arrive, delivered, err = n.Deliver(k, src, dst, now)
	}
	if delivered {
		n.Tracer.Emit(telemetry.Event{Cycle: arrive, Kind: telemetry.EvSpanEnd,
			Thread: -1, Cluster: dst, Domain: -1, Code: int64(dst), Detail: k.String(),
			Trace: sc.Trace, Span: sc.Span, Parent: sc.Parent})
	}
	return arrive, delivered, err
}

// ZeroLoadLatency returns the uncontended latency between two nodes.
func (n *Network) ZeroLoadLatency(src, dst int) uint64 {
	if src == dst {
		return n.cfg.InjectLatency
	}
	return 2*n.cfg.InjectLatency + uint64(n.Hops(src, dst))*n.cfg.RouterLatency
}

// Stats returns a copy of the counters.
func (n *Network) Stats() Stats { return n.stats }

// RegisterMetrics publishes the network counters under prefix
// (canonically "noc"): noc.msgs, noc.hops, noc.latency_cycles,
// noc.contention_cycles, plus the derived mean latency per message.
func (n *Network) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".msgs", func() uint64 { return n.stats.Messages })
	reg.Counter(prefix+".hops", func() uint64 { return n.stats.TotalHops })
	reg.Counter(prefix+".latency_cycles", func() uint64 { return n.stats.TotalLatency })
	reg.Counter(prefix+".contention_cycles", func() uint64 { return n.stats.ContentionCycles })
	reg.Counter(prefix+".dropped", func() uint64 { return n.stats.Dropped })
	reg.Counter(prefix+".duplicated", func() uint64 { return n.stats.Duplicated })
	reg.Counter(prefix+".corrupted", func() uint64 { return n.stats.Corrupted })
	reg.Counter(prefix+".delay_cycles", func() uint64 { return n.stats.DelayCycles })
	reg.Counter(prefix+".transport.retransmits", func() uint64 { return n.stats.Retransmits })
	reg.Counter(prefix+".transport.dup_suppressed", func() uint64 { return n.stats.DupSuppressed })
	reg.Counter(prefix+".transport.timeout_cycles", func() uint64 { return n.stats.TimeoutCycles })
	reg.Counter(prefix+".transport.gave_up", func() uint64 { return n.stats.TransportGaveUp })
	reg.Register(prefix+".mean_latency", func() float64 {
		if n.stats.Messages == 0 {
			return 0
		}
		return float64(n.stats.TotalLatency) / float64(n.stats.Messages)
	})
	if n.HistRetransmit != nil {
		reg.RegisterHistogram(prefix+".hist.retransmit_delay", n.HistRetransmit)
	}
}
