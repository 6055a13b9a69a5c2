// Package multi assembles the full M-Machine multicomputer of Sec 3:
// multithreaded MAP nodes on a 3-dimensional mesh, all sharing one
// 54-bit byte-addressable global address space.
//
// The address space is partitioned by high address bits: node i is the
// home of addresses [i·2^NodeShift, (i+1)·2^NodeShift). A guarded
// pointer minted on any node is valid machine-wide — when a thread
// dereferences an address homed elsewhere, the (already protection-
// checked) access travels the mesh as a read/write transaction and is
// serviced by the home node's banked cache. No inter-node protection
// state exists: capability transfer between nodes is just sending a
// tagged word.
package multi

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/jit"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/noc"
	"repro/internal/persist"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// Typed misuse errors for the node lifecycle API. A corrupted node id
// or a double fault-injection must degrade into an accountable error,
// not silent success or an index panic.
var (
	// ErrNodeID reports a node id outside the mesh.
	ErrNodeID = errors.New("multi: node id out of range")
	// ErrNodeDead reports an operation needing a live node (double
	// Kill, Stall of a dead node).
	ErrNodeDead = errors.New("multi: node is dead")
	// ErrNodeAlive reports a Revive of a node that was never killed.
	ErrNodeAlive = errors.New("multi: node is alive")
)

// NodeShift is the number of address bits each node owns: 4GB per
// node, leaving room for 2^22 nodes in the 54-bit space.
const NodeShift = 32

// Config fixes the multicomputer geometry.
type Config struct {
	Mesh noc.Config
	Node machine.Config
	// RegionLog is the per-node kernel segment region order (within
	// the node's 2^NodeShift slice).
	RegionLog uint
	// Workers is ignored: Run steps every node on the calling
	// goroutine.
	//
	// Deprecated: it sized a pool of goroutines that stepped nodes in
	// lockstep, which ran the mesh 1.8–3.3× slower than one goroutine
	// at every size from 8 to 256 nodes (docs/PERFORMANCE.md, "Mesh
	// stepping"). It remains only until the benchmark harness stops
	// setting it.
	Workers int
	// JIT enables the check-eliding superblock translator on every
	// node's machine (see internal/jit). Nodes run it in paced mode —
	// one compiled step per cycle, so the cycle schedule and remote
	// delivery order are untouched and results stay bit-identical to
	// the interpreter. Off by default: the fault-injection campaigns
	// corrupt state under the verifier's feet, so they keep the
	// interpreter. Callers load programs through Node.K and then
	// register them with k.M.JITRegister. A node restored by
	// auto-recovery or replaced by a migration keeps every registration
	// whose code the restored image holds at the same address.
	JIT bool
	// WatchdogCycles, when non-zero, arms a cycle-deadline watchdog:
	// if that many cycles elapse with no node retiring an instruction
	// (or taking a fault), Run stops and Hung reports true. This is how
	// a killed node or a dropped message — a thread parked forever on a
	// reply that is not coming — becomes a detected failure instead of
	// a silent maxCycles spin.
	WatchdogCycles uint64

	// CheckpointEvery, when non-zero, takes a coordinated checkpoint of
	// every node's kernel at each multiple of this many cycles — at the
	// end of the cycle, after remote delivery, so the set is globally
	// consistent. Each generation is committed to a checkpoint store
	// (internal/persist) as dirty-page deltas against the previous one,
	// with per-section checksums and a commit marker. Checkpoints are
	// skipped while any node is dead (the set would not be consistent).
	CheckpointEvery uint64
	// CheckpointKeep is how many of the newest generations the store
	// retains; 0 means 2. Delta chains pin their base images beyond the
	// window.
	CheckpointKeep int
	// AutoRecover escalates the watchdog from detection to repair: when
	// the cycle-deadline trips and a checkpoint generation exists, the
	// system restores every node from the newest generation and resumes
	// instead of stopping with Hung. Requires CheckpointEvery (or a
	// manual CheckpointNow) to have captured at least one generation.
	AutoRecover bool
	// MaxRestores bounds automatic recoveries per Run — a persistently
	// failing machine must eventually surface as Hung, not livelock
	// through the same checkpoint forever. 0 means 4.
	MaxRestores int

	// PersistDir, when non-empty, puts the checkpoint store in this
	// directory, opened at boot so generation numbering resumes after a
	// reboot; empty keeps it in memory, opened at the first capture.
	// Either way auto-recovery restores from the newest generation whose
	// whole chain verifies — a torn or bit-rotted newest generation
	// falls back to an older intact one.
	PersistDir string
	// PersistBaseEvery bounds delta-chain length in the checkpoint
	// store: a fresh base image every Nth generation. 0 means
	// persist.DefaultBaseEvery; 1 writes only base images.
	PersistBaseEvery int

	// MigrateAt, when non-zero, arms one live migration during Run:
	// when the system reaches this cycle count, node MigrateNode is
	// migrated onto a standby replica by iterative pre-copy
	// (internal/migrate) and, on commit, atomically swapped in. The
	// source keeps executing its normal schedule during pre-copy, so an
	// aborted (or never-started) migration is bit-identical to this
	// knob being off.
	MigrateAt uint64
	// MigrateNode is the node to migrate when MigrateAt trips.
	MigrateNode int
	// Migrate parameterizes the armed migration (rounds, convergence,
	// link shape). Zero values take the migrate package defaults.
	Migrate migrate.Config
}

// DefaultConfig is a 2×2×2-node machine of M-Machine nodes.
func DefaultConfig() Config {
	nodeCfg := machine.MMachine()
	nodeCfg.PhysBytes = 4 << 20 // keep 8 nodes affordable to simulate
	return Config{
		Mesh:      noc.DefaultConfig(),
		Node:      nodeCfg,
		RegionLog: 26,
	}
}

// System is the whole multicomputer.
type System struct {
	Net   *noc.Network
	Nodes []*Node
	cfg   Config
	stats Stats

	// OnCycle, when non-nil, runs after each cycle's remote delivery
	// with the completed-cycle count. It runs between cycles, with no
	// access in flight, so it may safely inspect or mutate any node (the
	// fault-injection campaigns checkpoint and kill nodes from here).
	OnCycle func(cycle uint64)

	// OnFlightDump, when non-nil, fires when the system crosses an
	// unrecoverable boundary — the watchdog trips with no repair left, a
	// node machine faults with no handler, or the reliable transport
	// gives a message up — with a human-readable reason. The canonical
	// handler calls FlightDump to persist the recorders' last events.
	// Fires at most once per Run escalation site; requires EnableFlight.
	OnFlightDump func(reason string)

	cycle      uint64   // completed cycles since boot
	dead       []bool   // killed nodes: never step, never service
	stallUntil []uint64 // frozen until this cycle count (transient stall)
	hung       bool     // the watchdog tripped

	lastProgress      uint64 // instret+faults sum at the last progress check
	lastProgressCycle uint64

	// Auto-recovery counters.
	checkpoints uint64 // generations captured (recovery.checkpoints)
	restores    uint64 // automatic recoveries performed (recovery.restores)

	// Checkpoint state: the store (nil until the first capture unless
	// Config.PersistDir opened it at boot) and the per-node incremental
	// capture baselines. A nil entry in capStates forces the next
	// generation to be a full base.
	store      *persist.Store
	capStates  []*kernel.CaptureState
	persistGen uint64 // newest generation committed to the store
	sinceBase  int    // deltas since the last base image

	// Live-migration state (Config.MigrateAt). OnMigrate, when non-nil,
	// runs just before the armed migration starts, with the wire link
	// and the standby receiver — the fault campaign's handle for frame
	// fates and standby crashes.
	OnMigrate      func(link *migrate.Link, recv *migrate.Receiver)
	migrated       bool             // the armed migration has run
	migrateMetrics *migrate.Metrics // non-nil iff MigrateAt is armed
	migrateReport  *migrate.Report  // outcome of the armed migration

	// Introspection state (all optional, all off by default).
	spans      *spanState                  // EnableSpans: causal-span allocator
	flights    []*telemetry.FlightRecorder // EnableFlight: per-node rings
	meshFlight *telemetry.FlightRecorder   // EnableFlight: transport ring
	histsOn    bool                        // EnableHistograms was called
	reg        *telemetry.Registry         // RegisterMetrics target, kept for re-registration after restore
}

// spanState is the deterministic span-id allocator. IDs are handed out
// only while remote accesses are delivered — Node.ReadWord/WriteWord
// run inside ServiceRemote at the end of each cycle, in node-id order —
// so the id sequence, and with it the whole trace, is a function of the
// simulated schedule alone.
type spanState struct {
	tr   *telemetry.Tracer
	next uint64
}

// Stats counts cross-node traffic.
type Stats struct {
	RemoteReads  uint64
	RemoteWrites uint64
}

// Node is one mesh node: a kernel-managed MAP machine plus its network
// interface.
type Node struct {
	ID  int
	K   *kernel.Kernel
	sys *System
}

// HomeOf returns the node id owning addr.
func HomeOf(addr uint64) int { return int(addr >> NodeShift) }

// New boots the multicomputer: one kernel+machine per mesh node, each
// with a segment region inside its slice of the global space, wired to
// the mesh for remote access.
func New(cfg Config) (*System, error) {
	net, err := noc.New(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	if cfg.RegionLog >= NodeShift {
		return nil, fmt.Errorf("multi: region 2^%d exceeds node slice 2^%d", cfg.RegionLog, NodeShift)
	}
	s := &System{Net: net, cfg: cfg}
	s.dead = make([]bool, net.Nodes())
	s.stallUntil = make([]uint64, net.Nodes())
	for i := 0; i < net.Nodes(); i++ {
		base := uint64(i) << NodeShift // aligned on any region ≤ 2^NodeShift
		k, err := kernel.NewWithRegion(cfg.Node, base, cfg.RegionLog)
		if err != nil {
			return nil, err
		}
		n := &Node{ID: i, K: k, sys: s}
		k.M.Remote = n
		// Remote accesses park on the issuing node and complete at the
		// end of the cycle (deliver), in node-id order: no node's step
		// sees another node's accesses of the same cycle.
		k.M.DeferRemote = true
		if cfg.JIT {
			k.M.EnableJIT(jit.DefaultConfig())
		}
		s.Nodes = append(s.Nodes, n)
	}
	if cfg.PersistDir != "" {
		st, err := persist.Open(cfg.PersistDir, net.Nodes())
		if err != nil {
			return nil, err
		}
		gen, err := st.MaxGen()
		if err != nil {
			return nil, err
		}
		s.useStore(st)
		s.persistGen = gen // numbering resumes after a reboot
	}
	if cfg.MigrateAt != 0 {
		if cfg.MigrateNode < 0 || cfg.MigrateNode >= net.Nodes() {
			return nil, fmt.Errorf("multi: migrate node %d out of range [0,%d)", cfg.MigrateNode, net.Nodes())
		}
		s.migrateMetrics = migrate.NewMetrics()
	}
	return s, nil
}

// Store returns the checkpoint store, or nil while a system without
// Config.PersistDir has not yet captured a generation.
func (s *System) Store() *persist.Store { return s.store }

// useStore installs the checkpoint store and publishes its metrics if a
// registry is already attached.
func (s *System) useStore(st *persist.Store) {
	s.store = st
	s.capStates = make([]*kernel.CaptureState, len(s.Nodes))
	if s.reg != nil {
		st.RegisterMetrics(s.reg, "persist")
	}
}

// Stats returns a copy of the cross-node counters.
func (s *System) Stats() Stats { return s.stats }

// Step advances every live node one cycle, in node-id order, then
// delivers the cycle's remote traffic.
func (s *System) Step() {
	for i, n := range s.Nodes {
		if s.skip(i) {
			continue
		}
		n.K.M.Step()
	}
	s.deliver()
}

// skip reports whether node i sits out this cycle: killed, or frozen by
// a transient stall.
func (s *System) skip(i int) bool {
	return s.dead[i] || s.stallUntil[i] > s.cycle
}

// deliver completes every remote access issued this cycle, visiting
// nodes in id order. During the step phase nodes touch only their own
// state (remote references are parked, not performed), so all
// cross-node effects — mesh link reservations, home-cache contention,
// traffic counters — happen here, in one deterministic order. It then
// retires the cycle: the periodic checkpoint, the watchdog progress
// check and the OnCycle hook all run here.
func (s *System) deliver() {
	for i, n := range s.Nodes {
		if s.dead[i] {
			continue
		}
		n.K.M.ServiceRemote()
	}
	s.cycle++
	if s.cfg.CheckpointEvery != 0 && s.cycle%s.cfg.CheckpointEvery == 0 {
		s.checkpointAll()
	}
	if s.cfg.WatchdogCycles > 0 && s.cycle&63 == 0 {
		s.checkProgress()
	}
	if s.OnCycle != nil {
		s.OnCycle(s.cycle)
	}
}

// checkProgress trips the watchdog if WatchdogCycles have elapsed since
// any node last retired an instruction or took a fault. (Faults count
// as progress: a demand-paging storm is slow, not hung.)
func (s *System) checkProgress() {
	var p uint64
	for _, n := range s.Nodes {
		st := n.K.M.Stats()
		p += st.Instructions + st.Faults
	}
	if p != s.lastProgress {
		s.lastProgress = p
		s.lastProgressCycle = s.cycle
		return
	}
	if s.cycle-s.lastProgressCycle >= s.cfg.WatchdogCycles {
		// Escalation: with AutoRecover armed and a consistent
		// generation banked, the watchdog repairs instead of reporting.
		if s.cfg.AutoRecover && s.recoverAll() {
			return
		}
		s.hung = true
		s.fireFlightDump(fmt.Sprintf(
			"watchdog: no progress for %d cycles at cycle %d", s.cycle-s.lastProgressCycle, s.cycle))
	}
}

// maxRestores resolves Config.MaxRestores.
func (s *System) maxRestores() uint64 {
	if s.cfg.MaxRestores > 0 {
		return uint64(s.cfg.MaxRestores)
	}
	return 4
}

// checkpointKeep resolves Config.CheckpointKeep.
func (s *System) checkpointKeep() int {
	if s.cfg.CheckpointKeep > 0 {
		return s.cfg.CheckpointKeep
	}
	return 2
}

// checkpointAll commits one coordinated generation — every node's
// kernel at the end of this cycle — to the checkpoint store, then prunes
// the store to CheckpointKeep. Skipped while any node is dead: the set
// would not be globally consistent. Capture reads memory through the
// ECC plane (mem.ReadWords), so latent single-bit errors in the pages it
// copies are healed on the way into the image.
//
// All nodes must capture the same kind, so the whole generation
// re-bases when any node's baseline is missing or stale (first capture,
// a Revive that swapped a kernel, a previous error) or the delta chain
// reached PersistBaseEvery. On ANY error every baseline is dropped: the
// failed generation never got a commit marker, so the next capture
// starts a fresh base — dirty bits cleared by a failed capture are
// swallowed by the full image, never lost.
func (s *System) checkpointAll() {
	for _, d := range s.dead {
		if d {
			return
		}
	}
	if s.store == nil {
		st, err := persist.OpenMemory(len(s.Nodes))
		if err != nil {
			return
		}
		s.useStore(st)
	}
	full := s.sinceBase >= s.persistBaseEvery()-1
	for i, n := range s.Nodes {
		if !s.capStates[i].Matches(n.K) {
			full = true
		}
	}
	cps := make([]*kernel.Checkpoint, len(s.Nodes))
	ncaps := make([]*kernel.CaptureState, len(s.Nodes))
	for i, n := range s.Nodes {
		prev := s.capStates[i]
		if full {
			prev = nil
		}
		cp, ncap, err := n.K.CheckpointIncremental(prev)
		if err != nil {
			s.resetCapStates() // e.g. uncorrectable memory: keep the older generations
			return
		}
		cps[i] = cp
		ncaps[i] = ncap
	}
	gen := s.persistGen + 1
	if err := s.store.WriteGeneration(gen, s.persistGen, s.cycle, cps); err != nil {
		s.resetCapStates()
		return
	}
	copy(s.capStates, ncaps)
	s.persistGen = gen
	if full {
		s.sinceBase = 0
	} else {
		s.sinceBase++
	}
	s.checkpoints++
	// Retention is part of the generation commit. Prune never removes a
	// base a retained delta still replays from.
	if err := s.store.Prune(s.checkpointKeep()); err != nil {
		s.resetCapStates() // store trouble: re-base defensively
	}
}

// persistBaseEvery resolves Config.PersistBaseEvery.
func (s *System) persistBaseEvery() int {
	if s.cfg.PersistBaseEvery > 0 {
		return s.cfg.PersistBaseEvery
	}
	return persist.DefaultBaseEvery
}

// resetCapStates drops every incremental baseline: the next generation
// is a full base.
func (s *System) resetCapStates() {
	for i := range s.capStates {
		s.capStates[i] = nil
	}
	s.sinceBase = 0
}

// CheckpointNow captures a coordinated generation immediately — the
// caller's chance to seed the store after workload setup, before any
// periodic boundary. Fails if a node is dead or a capture errors.
func (s *System) CheckpointNow() error {
	for i, d := range s.dead {
		if d {
			return fmt.Errorf("%w: node %d", ErrNodeDead, i)
		}
	}
	before := s.checkpoints
	s.checkpointAll()
	if s.checkpoints == before {
		return fmt.Errorf("multi: checkpoint capture failed")
	}
	return nil
}

// recoverAll restores every node from the newest coordinated generation
// and resumes: kernels are rebuilt from their images, rewired to the
// mesh, dead and stalled nodes brought back, and the watchdog rearmed.
// The generation is consistent by construction — all images were taken
// at one cycle end, with every in-flight remote access committed — so
// threads that were parked on a lost reply simply re-issue from
// their checkpointed IP. Returns false (leaving the watchdog to report
// Hung) when no generation exists, the restore budget is spent, or a
// rebuild fails.
func (s *System) recoverAll() bool {
	if s.restores >= s.maxRestores() {
		return false
	}
	if s.store == nil {
		return false
	}
	// The newest generation whose whole delta chain verifies. A damaged
	// newest generation is skipped (and counted) in favor of an older
	// intact one.
	cps, _, _, err := s.store.LoadNewestIntact()
	if err != nil {
		return false
	}
	// The restored kernels have fresh Spaces: every incremental baseline
	// is stale, so the next generation re-bases.
	s.resetCapStates()
	// Rebuild every kernel before installing any: a node whose image
	// fails to restore must not leave the others rewound to a cut the
	// mesh never resumes from.
	ks := make([]*kernel.Kernel, len(s.Nodes))
	for i := range s.Nodes {
		k, err := kernel.Restore(s.cfg.Node, cps[i])
		if err != nil {
			return false
		}
		ks[i] = k
	}
	for i, k := range ks {
		s.installKernel(i, k, cps[i])
	}
	// Every clock restarts at cycle 0, so the links' reservations, kept
	// in cycles of the old timeline, go with them.
	s.Net.ReleaseLinks()
	s.restores++
	s.hung = false
	// Reset the progress baseline to the restored machines' counters so
	// the next watchdog window measures fresh execution.
	var p uint64
	for _, n := range s.Nodes {
		st := n.K.M.Stats()
		p += st.Instructions + st.Faults
	}
	s.lastProgress = p
	s.lastProgressCycle = s.cycle
	return true
}

// installKernel rewires node id around kernel k exactly as New wired
// the original, clearing kill/stall status. cp is the image k was
// restored from, or nil for a caller's kernel. Internal: the public
// Revive enforces the liveness contract on top.
func (s *System) installKernel(id int, k *kernel.Kernel, cp *kernel.Checkpoint) {
	n := s.Nodes[id]
	old := n.K.M.JIT()
	n.K = k
	k.M.Remote = n
	k.M.DeferRemote = true
	if s.cfg.JIT {
		// A fresh engine, with no blocks: they describe code the restored
		// image may not contain. It takes over the old engine's
		// registrations whose code cp holds at the same address, so the
		// node compiles again from interpreter heat without verifying. A
		// caller's kernel (no cp) inherits nothing: the caller registers.
		e := k.M.EnableJIT(jit.DefaultConfig())
		if cp != nil {
			e.Inherit(old, cp.Holds)
		}
	}
	s.dead[id] = false
	s.stallUntil[id] = 0
	// Re-apply the introspection wiring the checkpoint image does not
	// capture: histograms (fresh, the old samples described a machine
	// that no longer exists), the flight ring (the same one — its tail
	// is the story of why this restore happened), and the metric
	// samplers under node.<id>.*.
	if s.histsOn {
		k.M.EnableHistograms()
	}
	s.attachFlight(id, k.M)
	s.registerNode(id)
}

// Checkpoints returns the number of coordinated generations captured.
func (s *System) Checkpoints() uint64 { return s.checkpoints }

// Restores returns the number of automatic recoveries performed.
func (s *System) Restores() uint64 { return s.restores }

// --- Live migration ----------------------------------------------------

// MigrateReport returns the outcome of the armed migration, or nil if
// it has not run.
func (s *System) MigrateReport() *migrate.Report { return s.migrateReport }

// MigrateMetrics returns the migration telemetry block, or nil when no
// migration is armed.
func (s *System) MigrateMetrics() *migrate.Metrics { return s.migrateMetrics }

// maybeMigrate fires the armed migration once the cycle threshold is
// reached, between Step calls. Its outcome, error included, is kept in
// MigrateReport and MigrateMetrics.
func (s *System) maybeMigrate() {
	if s.migrated || s.cfg.MigrateAt == 0 || s.cycle < s.cfg.MigrateAt || s.hung {
		return
	}
	s.migrated = true
	_, _ = s.MigrateNode(s.cfg.MigrateNode, s.cfg.Migrate)
}

// MigrateNode live-migrates node id onto a fresh standby replica:
// iterative pre-copy while the whole system keeps stepping its normal
// schedule, then a cutover barrier (final delta, fingerprint
// handshake, commit) and an atomic role swap via installKernel. On
// abort — wire gave up, standby died, source killed, or a configured
// abort point — the standby is discarded and the system is untouched:
// the source only ever executed the exact Step schedule it would have
// executed anyway.
//
// Must be called between cycles (Run calls it via maybeMigrate; tests
// may call it directly when the system is not running).
func (s *System) MigrateNode(id int, mcfg migrate.Config) (*migrate.Report, error) {
	if id < 0 || id >= len(s.Nodes) {
		return nil, fmt.Errorf("multi: migrate node %d out of range", id)
	}
	if s.dead[id] {
		return nil, fmt.Errorf("multi: migrate node %d is dead", id)
	}
	n := s.Nodes[id]
	recv := migrate.NewReceiver()
	link := migrate.NewLink(mcfg.Link)
	link.Deliver = recv.Deliver
	if s.OnMigrate != nil {
		s.OnMigrate(link, recv)
	}
	mcfg.Node = id
	prevAbort := mcfg.AbortIf
	mcfg.AbortIf = func() bool {
		return s.dead[id] || s.hung || (prevAbort != nil && prevAbort())
	}
	rep, err := migrate.Run(n.K, link, recv, func(cycles uint64) {
		for i := uint64(0); i < cycles && !s.Done() && !s.hung; i++ {
			s.Step()
		}
	}, mcfg)
	s.migrateReport = rep
	defer s.migrateMetrics.Note(rep)
	if err != nil || !rep.Committed {
		return rep, err
	}
	// Quiescence check: between cycles every deferred remote access
	// has completed, so the mesh wiring can be swapped safely. A
	// non-empty queue here means the caller broke the between-cycles
	// contract — refuse the swap, keep the source.
	if pend := n.K.M.RemotePending(); pend != 0 {
		rep.Committed = false
		rep.Reason = "not-quiescent"
		return rep, fmt.Errorf("multi: migrate node %d: %d remote accesses pending at cutover", id, pend)
	}
	k2, err := kernel.Restore(s.cfg.Node, rep.Image)
	if err != nil {
		rep.Committed = false
		rep.Reason = "restore-failed"
		return rep, err
	}
	s.installKernel(id, k2, rep.Image)
	return rep, nil
}

// --- Introspection: spans, histograms, flight recorders ----------------

// EnableSpans turns on causal spans for remote operations: every
// remote read/write emits a root span on the issuing node and one
// child span per mesh leg (request and reply), all tied together by
// trace/span/parent ids in tr's event stream. Span-carrying transport
// frames are flagged FlagTraced. Span ids are allocated during remote
// delivery in node-id order, so a trace is a function of the simulated
// schedule alone. Spans change no timing: the traced delivery path is
// cycle-for-cycle the untraced one.
func (s *System) EnableSpans(tr *telemetry.Tracer) {
	s.spans = &spanState{tr: tr}
	s.Net.Tracer = tr
}

// EnableHistograms allocates the latency histograms on every node
// (domain-switch penalty, remote-access round trip, TLB-refill cost)
// plus the mesh's retransmit-delay histogram. Idempotent; survives
// auto-recovery (installKernel re-enables on restored machines).
func (s *System) EnableHistograms() {
	s.histsOn = true
	for _, n := range s.Nodes {
		n.K.M.EnableHistograms()
	}
	if s.Net.HistRetransmit == nil {
		s.Net.HistRetransmit = telemetry.NewHistogram()
	}
}

// EnableFlight arms an always-on bounded flight recorder on every node
// (faults, traps, lost threads) and one on the mesh transport
// (retransmits, give-ups). size ≤ 0 selects DefaultFlightSize. The
// rings themselves survive auto-recovery — a restored machine keeps
// appending to the same ring, so a post-recovery dump still shows the
// events that led to the restore.
func (s *System) EnableFlight(size int) {
	if size <= 0 {
		size = telemetry.DefaultFlightSize
	}
	if s.flights == nil {
		s.flights = make([]*telemetry.FlightRecorder, len(s.Nodes))
		for i := range s.flights {
			s.flights[i] = telemetry.NewFlightRecorder(size)
		}
		s.meshFlight = telemetry.NewFlightRecorder(size)
	}
	s.Net.Flight = s.meshFlight
	s.Net.OnGiveUp = func(k noc.Kind, src, dst int, now uint64) {
		s.fireFlightDump(fmt.Sprintf("transport give-up: %v %d->%d at cycle %d", k, src, dst, now))
	}
	for i, n := range s.Nodes {
		s.attachFlight(i, n.K.M)
	}
}

// attachFlight wires node id's machine to its flight ring and dump
// escalation (shared by EnableFlight and installKernel).
func (s *System) attachFlight(id int, m *machine.Machine) {
	if s.flights == nil {
		return
	}
	m.Flight = s.flights[id]
	node := id
	m.OnFlightDump = func(reason string) {
		s.fireFlightDump(fmt.Sprintf("node %d %s", node, reason))
	}
}

// fireFlightDump forwards an escalation reason to OnFlightDump.
func (s *System) fireFlightDump(reason string) {
	if s.OnFlightDump != nil {
		s.OnFlightDump(reason)
	}
}

// FlightDump writes every flight recorder — one JSONL section per
// node, then the mesh transport's as node -1 — to w, each section
// headed by a {"flight":true,...} line carrying the reason. A no-op
// (and nil error) when EnableFlight was never called.
func (s *System) FlightDump(w io.Writer, reason string) error {
	for i, fr := range s.flights {
		if err := fr.Dump(w, reason, i); err != nil {
			return err
		}
	}
	if s.meshFlight != nil {
		return s.meshFlight.Dump(w, reason, -1)
	}
	return nil
}

// beginRemoteSpan opens the root span of one remote operation (the
// issuing node's view: begin at issue, end at completion). Returns the
// zero SpanContext — and emits nothing — when spans are off.
func (s *System) beginRemoteSpan(detail string, src, home int, now uint64) noc.SpanContext {
	sp := s.spans
	if sp == nil || sp.tr == nil || !sp.tr.Enabled(telemetry.EvSpanBegin) {
		return noc.SpanContext{}
	}
	sp.next++
	sc := noc.SpanContext{Trace: sp.next, Span: sp.next}
	sp.tr.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvSpanBegin,
		Thread: -1, Cluster: src, Domain: -1, Code: int64(home), Detail: detail,
		Trace: sc.Trace, Span: sc.Span})
	return sc
}

// legSpan allocates a child span of sc for one mesh leg.
func (s *System) legSpan(sc noc.SpanContext) noc.SpanContext {
	if sc.Span == 0 {
		return noc.SpanContext{}
	}
	s.spans.next++
	return noc.SpanContext{Trace: sc.Trace, Span: s.spans.next, Parent: sc.Span}
}

// endRemoteSpan closes a root span at cycle on node id. An operation
// that never completes (lost reply, dead home) leaves its span open —
// exactly what a hung trace should look like.
func (s *System) endRemoteSpan(sc noc.SpanContext, detail string, id int, cycle uint64) {
	if sc.Span == 0 {
		return
	}
	s.spans.tr.Emit(telemetry.Event{Cycle: cycle, Kind: telemetry.EvSpanEnd,
		Thread: -1, Cluster: id, Domain: -1, Detail: detail,
		Trace: sc.Trace, Span: sc.Span})
}

// RegisterMetrics publishes the multicomputer's cross-node and
// recovery counters plus the mesh's under the canonical namespaces
// (multi.*, recovery.*, noc.*), and every node's full machine metric
// set namespaced under node.<id>.* (node.3.machine.instructions,
// node.3.cache.l1.hits, ...). The registry is remembered: after an
// auto-recovery the restored kernels' samplers replace the dead ones
// under the same names, so a long-lived scrape endpoint never serves
// counters from a discarded machine.
func (s *System) RegisterMetrics(reg *telemetry.Registry) {
	s.reg = reg
	reg.Counter("multi.remote_reads", func() uint64 { return s.stats.RemoteReads })
	reg.Counter("multi.remote_writes", func() uint64 { return s.stats.RemoteWrites })
	reg.Counter("multi.cycle", func() uint64 { return s.cycle })
	reg.Counter("recovery.checkpoints", func() uint64 { return s.checkpoints })
	reg.Counter("recovery.restores", func() uint64 { return s.restores })
	if s.store != nil {
		s.store.RegisterMetrics(reg, "persist")
	}
	if s.migrateMetrics != nil {
		s.migrateMetrics.RegisterMetrics(reg, "migrate")
	}
	s.Net.RegisterMetrics(reg, "noc")
	for _, n := range s.Nodes {
		s.registerNode(n.ID)
	}
}

// registerNode (re-)publishes node id's machine metrics under
// node.<id>.*. Safe to call again after installKernel swaps the
// kernel: Register replaces samplers name-for-name.
func (s *System) registerNode(id int) {
	if s.reg == nil {
		return
	}
	sub := s.reg.Sub(fmt.Sprintf("node.%d.", id))
	s.Nodes[id].K.M.RegisterMetrics(sub)
}

// Hung reports whether the cycle-deadline watchdog stopped the last
// Run: some thread was waiting on a completion that can never arrive
// (killed node, message lost in the fabric).
func (s *System) Hung() bool { return s.hung }

// Cycle returns the number of completed system cycles since boot.
func (s *System) Cycle() uint64 { return s.cycle }

// checkID validates a node id against the mesh.
func (s *System) checkID(id int) error {
	if id < 0 || id >= len(s.Nodes) {
		return fmt.Errorf("%w: %d of %d", ErrNodeID, id, len(s.Nodes))
	}
	return nil
}

// Kill fails node id hard: it stops stepping, stops servicing remote
// requests, and every message homed there vanishes. Threads elsewhere
// that wait on it hang until the watchdog notices. Restore service with
// Revive. Killing a node that is already dead is a caller bug and
// returns ErrNodeDead.
func (s *System) Kill(id int) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	if s.dead[id] {
		return fmt.Errorf("%w: double kill of node %d", ErrNodeDead, id)
	}
	s.dead[id] = true
	return nil
}

// Stall freezes node id until the given system cycle count (a transient
// fault: the node loses time but no state). A dead node cannot stall —
// it is not running at all.
func (s *System) Stall(id int, until uint64) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	if s.dead[id] {
		return fmt.Errorf("%w: stall of dead node %d", ErrNodeDead, id)
	}
	s.stallUntil[id] = until
	return nil
}

// Revive brings a killed node back, optionally replacing its kernel
// with one rebuilt from a checkpoint (kernel.Restore). The new kernel's
// machine is rewired to the mesh exactly as New wired the original, and
// the watchdog is disarmed so the run can resume. Pass nil to revive
// the node with its old (pre-kill) state intact. Reviving a live node
// returns ErrNodeAlive — silently swapping a running kernel would
// destroy state the caller did not mean to lose.
func (s *System) Revive(id int, k *kernel.Kernel) error {
	if err := s.checkID(id); err != nil {
		return err
	}
	if !s.dead[id] {
		return fmt.Errorf("%w: revive of live node %d", ErrNodeAlive, id)
	}
	if k != nil {
		s.installKernel(id, k, nil)
	} else {
		s.dead[id] = false
	}
	s.hung = false
	s.lastProgressCycle = s.cycle
	return nil
}

// Run steps until every node's threads are done, the watchdog trips or
// maxCycles elapse, and returns the cycles it ran: the change in Cycle
// across the call. Each cycle is one Step: every live node steps once,
// in node-id order, then the cycle's remote traffic is delivered. An
// armed migration that fires inside the call steps the system through
// its pre-copy rounds itself, and a round cannot pause, so the call may
// run past maxCycles.
func (s *System) Run(maxCycles uint64) uint64 {
	start := s.cycle
	for s.cycle-start < maxCycles && !s.Done() && !s.hung {
		s.Step()
		s.maybeMigrate()
	}
	return s.cycle - start
}

// Done reports whether all threads on all nodes have finished.
func (s *System) Done() bool {
	for _, n := range s.Nodes {
		if !n.K.M.Done() {
			return false
		}
	}
	return true
}

// --- Node as the machine's RemoteAccess --------------------------------

// IsRemote implements machine.RemoteAccess.
func (n *Node) IsRemote(addr uint64) bool {
	return HomeOf(addr) != n.ID
}

// ReadWord implements machine.RemoteAccess: a read request travels to
// the home node, is serviced by the home's banked cache (contending
// with the home's own threads), and the reply travels back. It runs in
// the issuing node's ServiceRemote at the end of the issue cycle, after
// every node has stepped it: the home cache serves the request then,
// stamped with the request's future arrival cycle, not at that cycle. Both legs
// go through the mesh's fault-interception point: a dropped leg — or a
// dead home node — returns machine.NeverDone, parking the issuing
// thread on a reply that will never arrive; a corrupted leg surfaces
// the link-CRC error to fault the issuer.
func (n *Node) ReadWord(addr uint64, now uint64) (word.Word, uint64, error) {
	home := HomeOf(addr)
	if home >= len(n.sys.Nodes) {
		return word.Word{}, now, fmt.Errorf("multi: address %#x homed on nonexistent node %d", addr, home)
	}
	n.sys.stats.RemoteReads++
	sc := n.sys.beginRemoteSpan("remote-read", n.ID, home, now)
	reqArrive, delivered, err := n.sys.Net.DeliverSpan(noc.ReadReq, n.ID, home, now, n.sys.legSpan(sc))
	if err != nil {
		return word.Word{}, now, err
	}
	if !delivered || n.sys.dead[home] {
		return word.Word{}, machine.NeverDone, nil
	}
	w, served, err := n.sys.Nodes[home].K.M.Cache.ReadWord(addr, reqArrive)
	if err != nil {
		return word.Word{}, served, err
	}
	repArrive, delivered, err := n.sys.Net.DeliverSpan(noc.ReadReply, home, n.ID, served, n.sys.legSpan(sc))
	if err != nil {
		return word.Word{}, served, err
	}
	if !delivered {
		return word.Word{}, machine.NeverDone, nil
	}
	n.sys.endRemoteSpan(sc, "remote-read", n.ID, repArrive)
	return w, repArrive, nil
}

// WriteWord implements machine.RemoteAccess; fault semantics as in
// ReadWord, with one asymmetry: a write whose request leg arrives but
// whose ACK is lost HAS happened at the home — only the issuer hangs.
func (n *Node) WriteWord(addr uint64, w word.Word, now uint64) (uint64, error) {
	home := HomeOf(addr)
	if home >= len(n.sys.Nodes) {
		return now, fmt.Errorf("multi: address %#x homed on nonexistent node %d", addr, home)
	}
	n.sys.stats.RemoteWrites++
	sc := n.sys.beginRemoteSpan("remote-write", n.ID, home, now)
	reqArrive, delivered, err := n.sys.Net.DeliverSpan(noc.WriteReq, n.ID, home, now, n.sys.legSpan(sc))
	if err != nil {
		return now, err
	}
	if !delivered || n.sys.dead[home] {
		return machine.NeverDone, nil
	}
	served, err := n.sys.Nodes[home].K.M.Cache.WriteWord(addr, w, reqArrive)
	if err != nil {
		return served, err
	}
	ackArrive, delivered, err := n.sys.Net.DeliverSpan(noc.WriteAck, home, n.ID, served, n.sys.legSpan(sc))
	if err != nil {
		return served, err
	}
	if !delivered {
		return machine.NeverDone, nil
	}
	n.sys.endRemoteSpan(sc, "remote-write", n.ID, ackArrive)
	return ackArrive, nil
}
