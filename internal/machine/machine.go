// Package machine is a cycle-level simulator of a MAP-like
// multithreaded processor (Sec 3, Fig. 5): several clusters, each with a
// set of resident hardware threads issued cycle-by-cycle, in front of a
// banked virtually-addressed cache and a single external memory
// interface.
//
// Protection is entirely the guarded-pointer checks of internal/core,
// performed in the execution stage before a memory operation issues.
// The simulator can optionally model the *competing* schemes' context-
// switch costs (TLB flush, full purge) so experiment E6 can measure the
// paper's zero-cost-switch claim against page-based protection on
// identical workloads.
//
// Modeling notes (documented substitutions):
//   - each cluster issues one instruction per cycle (the MAP's 3-wide
//     LIW issue within a cluster is folded into that single slot; the
//     protection arguments depend on threads×clusters, not intra-
//     cluster ILP);
//   - instruction fetch is ideal (no I-cache traffic); data references
//     go through the banked cache with full bank/interface arbitration.
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/jit"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/word"
)

// Scheme selects the context-switch cost model applied when a cluster's
// issue slot moves between threads of different protection domains.
type Scheme int

const (
	// SchemeGuarded is the paper's design: protection travels in
	// pointers, so a domain switch costs nothing.
	SchemeGuarded Scheme = iota
	// SchemeFlushTLB models separate per-process address spaces without
	// ASIDs: each domain switch stalls the cluster and flushes the TLB
	// (Sec 5.1, "the old translations must be flushed from the TLB").
	SchemeFlushTLB
	// SchemeFlushAll additionally purges the (virtually addressed)
	// cache, as required when synonyms would otherwise leak data.
	SchemeFlushAll
)

func (s Scheme) String() string {
	switch s {
	case SchemeGuarded:
		return "guarded-pointers"
	case SchemeFlushTLB:
		return "page-flush-tlb"
	case SchemeFlushAll:
		return "page-flush-all"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Config fixes the machine geometry and cost knobs.
type Config struct {
	Clusters        int
	SlotsPerCluster int
	PhysBytes       uint64
	TLBEntries      int
	Cache           cache.Config

	Scheme        Scheme
	SwitchPenalty uint64 // cycles to install a new protection domain (non-guarded schemes)
	TrapCost      uint64 // pipeline-drain + vector cost of a TRAP

	// WideIssue enables the MAP's LIW cluster model: up to one
	// instruction per execution unit (integer, memory, floating point)
	// issues per cluster per cycle from the selected thread, subject to
	// dependence checks. Off by default so single-issue experiments are
	// directly comparable with the baseline models.
	WideIssue bool

	// ScrubEvery, when non-zero, runs the background memory scrubber:
	// every ScrubEvery cycles the machine sweeps ScrubWords physical
	// words through the ECC engine (mem.ScrubStep), correcting latent
	// single-bit errors before a demand read can widen them into
	// uncorrectable doubles. Requires mem.EnableECC; a no-op otherwise.
	// The scrubber ticks inside Run (not Step), so zero — the default —
	// leaves the per-cycle hot loop completely untouched.
	ScrubEvery uint64
	// ScrubWords is the sweep chunk per scrub tick; 0 means 64.
	ScrubWords int
}

// MMachine returns the configuration of the chip described in Sec 3:
// 4 clusters × 4 user threads, 128KB 4-banked cache, 8MB memory.
func MMachine() Config {
	return Config{
		Clusters:        4,
		SlotsPerCluster: 4,
		PhysBytes:       8 << 20,
		TLBEntries:      64,
		Cache:           cache.MMachine(),
		Scheme:          SchemeGuarded,
		SwitchPenalty:   24, // page-table-base swap + pipeline refill, used only by baselines
		TrapCost:        100,
	}
}

// Stats aggregates machine-level counters.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	IdleCycles   uint64 // cluster-cycles with no ready thread
	StallCycles  uint64 // cluster-cycles lost to domain-switch penalties
	Switches     uint64 // thread-to-thread issue changes
	DomainSwaps  uint64 // switches that crossed protection domains
	Traps        uint64
	Faults       uint64
	// IssuePackets counts cluster-cycles that issued at least one
	// instruction; Instructions/IssuePackets is the achieved issue
	// width under WideIssue.
	IssuePackets uint64
}

// TrapHandler is the kernel hook invoked by the TRAP instruction. It
// runs with the thread's state already advanced past the trap.
type TrapHandler func(m *Machine, t *Thread, code int64) error

// FaultHandler is the kernel hook for protection faults; returning true
// means the fault was handled and the thread may continue.
type FaultHandler func(m *Machine, t *Thread, err error) bool

type clusterState struct {
	slots      []*Thread
	resident   int // non-nil entries of slots; AddThread/RemoveThread keep it
	rr         int
	lastThread *Thread
	stallUntil uint64
}

// Decoded-instruction cache geometry: a direct-mapped array indexed by
// word address. 4096 entries cover 32KB of code, far more than any
// workload in the repo; conflict misses just re-decode.
const (
	decEntries = 4096
	decMask    = decEntries - 1
)

// decEntry caches the decode of one instruction word. key is the word's
// virtual address plus one, so the zero value (key 0) can never match a
// word-aligned fetch address.
type decEntry struct {
	key  uint64
	inst isa.Inst
}

// remoteKind tags a pendingRemote with the operation to complete.
type remoteKind uint8

const (
	remFetch remoteKind = iota
	remLoad
	remStore
	remLoadByte
	remStoreByte
)

// pendingSentinel parks a thread "forever": ServiceRemote is the only
// thing that wakes it.
const pendingSentinel = ^uint64(0)

// NeverDone is the completion cycle a RemoteAccess returns for an
// access that will never complete — the request or reply was consumed
// by the fabric (dropped message, dead home node). The machine commits
// no architectural effect and parks the thread forever; detecting the
// hang is the owner's job (the multicomputer's cycle-deadline
// watchdog).
const NeverDone = ^uint64(0)

// pendingRemote is one remote access (exec.go, remote): parked during
// Step for completion at the multicomputer's cycle barrier, or completed
// at once. cycle is the issue cycle, replayed as m.now during service so
// every latency computation matches an access performed immediately. rd
// is a load's destination register, val a store's value.
type pendingRemote struct {
	kind  remoteKind
	t     *Thread
	addr  uint64
	val   word.Word
	rd    int
	cycle uint64
}

// RemoteAccess connects the machine to a multicomputer interconnect:
// addresses whose home is another node are satisfied over the network
// instead of the local cache. The protection checks have already
// happened in the local execution unit by the time these are called —
// capabilities are valid machine-wide because every node shares the
// single 54-bit address space (Sec 3).
type RemoteAccess interface {
	// IsRemote reports whether addr's home is another node.
	IsRemote(addr uint64) bool
	// ReadWord performs a remote load issued at cycle now, returning
	// the word and its completion cycle.
	ReadWord(addr uint64, now uint64) (word.Word, uint64, error)
	// WriteWord performs a remote store issued at cycle now, returning
	// its completion (acknowledge) cycle.
	WriteWord(addr uint64, w word.Word, now uint64) (uint64, error)
}

// Machine is the simulated processor plus its memory system.
type Machine struct {
	cfg      Config
	Space    *vm.Space
	Cache    *cache.Cache
	clusters []*clusterState
	threads  []*Thread
	cycle    uint64
	stats    Stats

	// now is the cycle stamp execution paths use. During Step it equals
	// cycle; while ServiceRemote replays a deferred remote access it is
	// rewound to that access's issue cycle, so blocking and tracing
	// behave exactly as if the access had completed inline.
	now uint64

	// dec is the decoded-instruction cache: locally fetched instruction
	// words skip isa.Decode after their first execution. Stores through
	// the Space invalidate covering entries (see New); remote fetches
	// are never cached.
	dec []decEntry

	// DeferRemote, when set (the multicomputer sets it), makes remote
	// accesses enqueue onto pending instead of calling Remote inline;
	// ServiceRemote completes them at the end of the cycle. This fixes
	// when cross-node effects happen: after every node has stepped the
	// cycle, in one order, so no node's step sees another node's
	// accesses of the same cycle and the outcome does not depend on the
	// order in which nodes step.
	DeferRemote bool
	servicing   bool
	pending     []pendingRemote

	// Background-scrubber schedule, copied from Config at New so the
	// cycle loop reads fields, not config indirection. scrubEvery == 0
	// (the default) keeps the whole feature to one branch per cycle.
	scrubEvery uint64
	scrubWords int

	// runLimit is the absolute cycle bound of the Run call in progress
	// (0 = none). lone reads it, so a lone thread's back-to-back issue
	// stops exactly at the cap and never happens outside Run.
	runLimit uint64

	// stallEnd is the end of the latest domain-switch stall window on
	// any cluster. A window can outlive its threads when the owner
	// marks them done and removes them; lone waits it out, so tick
	// never credits a stalled cluster as idle.
	stallEnd uint64

	OnTrap  TrapHandler
	OnFault FaultHandler

	// OnIssue, when non-nil, observes every instruction as it issues
	// (tracing/debugging; no architectural effect).
	OnIssue func(t *Thread, inst isa.Inst)

	// Integrity, when non-nil, is consulted before every instruction
	// executes and may veto it with an error (raised as a fault). It
	// models datapath integrity checks — register-file parity in the
	// fault-injection harness: reading a corrupted operand register is a
	// machine check, overwriting it silently repairs it. No architectural
	// effect when nil.
	Integrity func(t *Thread, inst isa.Inst) error

	// Remote, when non-nil, handles references to other nodes of a
	// multicomputer.
	Remote RemoteAccess

	// Tracer, when non-nil, receives cycle-stamped structured events
	// (instructions, faults, traps, domain swaps, TLB flushes; install
	// with SetTracer so the memory system emits too). Nil costs one
	// pointer check per emit site.
	Tracer *telemetry.Tracer

	// hists holds the machine's latency histograms once
	// EnableHistograms has run; nil (the default) costs one pointer
	// check at each rare-event site.
	hists *Hists

	// Flight, when non-nil, is the machine's always-on flight recorder:
	// faults, traps, and lost threads land in its bounded ring so the
	// run-up to a failure can be dumped. All FlightRecorder methods are
	// nil-safe, so emit sites call it unconditionally.
	Flight *telemetry.FlightRecorder

	// OnFlightDump, when non-nil, fires when a thread enters the
	// Faulted state with no handler recovery — the machine-fault
	// auto-dump trigger. The owner decides where the dump goes.
	OnFlightDump func(reason string)

	// Profiler, when non-nil, samples the address of every issued
	// instruction for hot-spot attribution.
	Profiler *telemetry.Profiler

	// jit, when non-nil, is the superblock translator: execute enters
	// compiled blocks at their heads instead of fetching through the
	// interpreter. Installed by EnableJIT (blockexec.go).
	jit *jit.Engine
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Clusters <= 0 || cfg.SlotsPerCluster <= 0 {
		return nil, fmt.Errorf("machine: non-positive geometry %+v", cfg)
	}
	space, err := vm.NewSpace(cfg.PhysBytes, cfg.TLBEntries)
	if err != nil {
		return nil, err
	}
	c, err := cache.New(space, cfg.Cache)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, Space: space, Cache: c, dec: make([]decEntry, decEntries),
		scrubEvery: cfg.ScrubEvery, scrubWords: cfg.ScrubWords}
	if m.scrubEvery != 0 && m.scrubWords <= 0 {
		m.scrubWords = 64
	}
	for i := 0; i < cfg.Clusters; i++ {
		m.clusters = append(m.clusters, &clusterState{slots: make([]*Thread, cfg.SlotsPerCluster)})
	}
	// The decoded-instruction cache's invalidation contract: every store
	// through the space (word or byte, including the kernel's loader and
	// GC moves) kills the covering entry, and unmapping any range kills
	// them all. See docs/PERFORMANCE.md.
	space.OnWrite = m.invalidateDecodedWord
	space.OnUnmap = func(vaddr, size uint64) { m.FlushDecoded() }
	return m, nil
}

// invalidateDecodedWord drops the decoded-instruction entry covering
// vaddr, if present.
func (m *Machine) invalidateDecodedWord(vaddr uint64) {
	base := vaddr &^ (word.BytesPerWord - 1)
	e := &m.dec[(base>>3)&decMask]
	if e.key == base+1 {
		e.key = 0
	}
}

// FlushDecoded empties the decoded-instruction cache. Unmapping any
// address range triggers it — the pages behind a decoded entry may be
// recycled for unrelated code.
func (m *Machine) FlushDecoded() {
	for i := range m.dec {
		m.dec[i].key = 0
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetTracer installs tr as the event tracer for the machine and its
// whole memory system (cache misses, TLB misses, page faults, swap
// traffic all stamp events with the machine's cycle). Passing nil
// detaches tracing everywhere.
func (m *Machine) SetTracer(tr *telemetry.Tracer) {
	m.Tracer = tr
	m.Cache.Tracer = tr
	m.Space.Tracer = tr
	if tr == nil {
		m.Space.Now = nil
		return
	}
	m.Space.Now = func() uint64 { return m.cycle }
}

// Hists bundles the machine-level latency histograms (EnableHistograms).
type Hists struct {
	// DomainSwitch records the stall cycles each protection-domain
	// switch cost — identically zero under SchemeGuarded, which is the
	// paper's claim rendered as a distribution rather than asserted.
	DomainSwitch *telemetry.Histogram
	// RemoteRT records the round-trip cycles (completion − issue) of
	// every completed remote access: loads, stores, byte variants, and
	// remote instruction fetches.
	RemoteRT *telemetry.Histogram
}

// EnableHistograms allocates the machine's latency histograms — domain
// switch, remote round trip, and the cache's TLB-refill cost — and
// returns them. Subsequent RegisterMetrics calls publish them under
// machine.hist.* / cache.l1.hist.*. Idempotent.
func (m *Machine) EnableHistograms() *Hists {
	if m.hists == nil {
		m.hists = &Hists{
			DomainSwitch: telemetry.NewHistogram(),
			RemoteRT:     telemetry.NewHistogram(),
		}
		m.Cache.HistTLBRefill = telemetry.NewHistogram()
	}
	return m.hists
}

// Hists returns the histograms, or nil before EnableHistograms.
func (m *Machine) Hists() *Hists { return m.hists }

// RegisterMetrics publishes every machine-level counter plus the cache
// and vm counters into reg under the canonical namespace
// (machine.cycles, cache.l1.misses, vm.tlb.misses, …).
func (m *Machine) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("machine.cycles", func() uint64 { return m.stats.Cycles })
	reg.Counter("machine.instructions", func() uint64 { return m.stats.Instructions })
	reg.Counter("machine.idle_cycles", func() uint64 { return m.stats.IdleCycles })
	reg.Counter("machine.stall_cycles", func() uint64 { return m.stats.StallCycles })
	reg.Counter("machine.switches", func() uint64 { return m.stats.Switches })
	reg.Counter("machine.domain_swaps", func() uint64 { return m.stats.DomainSwaps })
	reg.Counter("machine.traps", func() uint64 { return m.stats.Traps })
	reg.Counter("machine.faults", func() uint64 { return m.stats.Faults })
	reg.Counter("machine.issue_packets", func() uint64 { return m.stats.IssuePackets })
	reg.Register("machine.ipc", func() float64 {
		if m.stats.Cycles == 0 {
			return 0
		}
		return float64(m.stats.Instructions) / float64(m.stats.Cycles)
	})
	reg.Register("machine.threads", func() float64 { return float64(len(m.threads)) })
	// Outstanding deferred remote accesses — the node's NoC service
	// queue depth as seen between barriers.
	reg.Register("machine.remote_pending", func() float64 { return float64(len(m.pending)) })
	if m.hists != nil {
		reg.RegisterHistogram("machine.hist.domain_switch", m.hists.DomainSwitch)
		reg.RegisterHistogram("machine.hist.remote_rt", m.hists.RemoteRT)
	}
	if m.jit != nil {
		reg.Counter("jit.compiled", func() uint64 { return m.jit.Counters.Compiled })
		reg.Counter("jit.invalidated", func() uint64 { return m.jit.Counters.Invalidated })
		reg.Counter("jit.entries", func() uint64 { return m.jit.Counters.Entries })
		reg.Counter("jit.elided_sites", func() uint64 { return m.jit.Counters.ElidedSites })
		reg.Counter("jit.retained_sites", func() uint64 { return m.jit.Counters.RetainedSites })
		reg.RegisterHistogram("jit.hist.compile_ns", m.jit.CompileLatency)
	}
	reg.Counter("mem.ecc.corrected", func() uint64 { return m.Space.Phys.ECCStats().Corrected })
	reg.Counter("mem.ecc.double_bit", func() uint64 { return m.Space.Phys.ECCStats().DoubleBit })
	reg.Counter("mem.ecc.scrub_words", func() uint64 { return m.Space.Phys.ECCStats().ScrubWords })
	m.Cache.RegisterMetrics(reg, "cache.l1")
	m.Space.RegisterMetrics(reg, "vm")
}

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Stats returns a copy of the counters.
func (m *Machine) Stats() Stats { return m.stats }

// Threads returns the resident threads in creation order.
func (m *Machine) Threads() []*Thread { return m.threads }

// RemotePending returns the number of deferred remote accesses parked
// for completion at the next ServiceRemote call. Zero between cycle
// barriers — the quiescence condition a migration cutover requires
// before it may swap the kernel out from under the mesh wiring.
func (m *Machine) RemotePending() int { return len(m.pending) }

// AddThread installs a new hardware thread in the first free slot and
// returns it. The caller (normally the kernel) must set IP and initial
// registers before running.
func (m *Machine) AddThread(domain int) (*Thread, error) {
	for ci, cl := range m.clusters {
		for si, s := range cl.slots {
			if s == nil {
				t := &Thread{
					ID:      len(m.threads),
					Domain:  domain,
					State:   Ready,
					cluster: ci,
					slot:    si,
				}
				cl.slots[si] = t
				cl.resident++
				m.threads = append(m.threads, t)
				return t, nil
			}
		}
	}
	return nil, fmt.Errorf("machine: all %d thread slots occupied",
		m.cfg.Clusters*m.cfg.SlotsPerCluster)
}

// RemoveThread frees the thread's slot (it must be Done).
func (m *Machine) RemoveThread(t *Thread) error {
	if !t.Done() {
		return fmt.Errorf("machine: removing live thread %d", t.ID)
	}
	cl := m.clusters[t.cluster]
	if cl.slots[t.slot] != t {
		return fmt.Errorf("machine: thread %d not resident", t.ID)
	}
	cl.slots[t.slot] = nil
	cl.resident--
	if cl.lastThread == t {
		cl.lastThread = nil
	}
	for i, th := range m.threads {
		if th == t {
			m.threads = append(m.threads[:i], m.threads[i+1:]...)
			break
		}
	}
	return nil
}

// Done reports whether every resident thread has halted or faulted.
func (m *Machine) Done() bool {
	if len(m.threads) == 0 {
		return true
	}
	for _, t := range m.threads {
		if !t.Done() {
			return false
		}
	}
	return true
}

// Step advances the machine one cycle: each cluster independently picks
// a ready thread (round-robin) and executes one instruction. With
// DeferRemote set, remote accesses issued this cycle are parked on the
// pending queue; the owner must call ServiceRemote afterwards.
//
// Called directly, Step is exactly one cycle on either tier. Only
// inside Run may a lone thread go on issuing on the following cycles
// within the same Step (lone), each extra cycle credited as its own
// Step would credit it (tick).
func (m *Machine) Step() {
	m.now = m.cycle
	for _, cl := range m.clusters {
		m.stepCluster(cl)
	}
	m.cycle++
	m.stats.Cycles++
}

// lone reports whether t, having just issued at m.cycle, issues again
// at m.cycle+1 inside the same Step. That needs a Run call in progress
// with a cycle left before its cap, t the machine's only thread and
// ready, and nothing that acts between cycles: no remote engine, no
// scrubber, no wide issue (one packet per Step), and no stall window
// still open on an emptied cluster. The first two compares reject a
// Step-driven machine (a mesh node) and a multithreaded one.
func (m *Machine) lone(t *Thread) bool {
	return m.cycle+1 < m.runLimit && len(m.threads) == 1 && t.State == Ready &&
		m.Remote == nil && m.scrubEvery == 0 && !m.cfg.WideIssue && m.stallEnd <= m.cycle+1
}

// tick moves the lone thread's issue on to the next cycle. It credits
// what Step credits for a cycle on which only that thread's cluster
// issues: the cycle, one issue packet, and an idle cycle on each other
// cluster (none is stalled while lone holds). The Step in progress
// closes the last cycle as usual.
func (m *Machine) tick() {
	m.cycle++
	m.now = m.cycle
	m.stats.Cycles++
	m.stats.IssuePackets++
	m.stats.IdleCycles += uint64(m.cfg.Clusters - 1)
}

// Run steps until every thread is done or maxCycles elapse; it returns
// the number of cycles executed.
//
// Spans in which no thread can issue are not stepped: Run jumps to the
// first cycle at which one could (nextIssueCycle) and credits the
// skipped cycles exactly as the Steps would have (skipTo), so stats,
// cycle counts and architectural state match a plain Step loop bit for
// bit. The jump stops at the cap and at every scrub tick. A lone thread
// issues back-to-back inside one Step (lone, tick) up to the cap.
//
// The background memory scrubber (if configured) ticks here rather
// than in Step. Callers that drive Step directly act between cycles —
// the multicomputer barrier loop services remote accesses (and brings
// its own recovery machinery), kernel.RunScheduled reaps and spawns
// threads, the Debugger checks breakpoints — so they neither scrub,
// fast-forward nor batch.
func (m *Machine) Run(maxCycles uint64) uint64 {
	start := m.cycle
	m.runLimit = start + maxCycles
	if m.runLimit < start {
		m.runLimit = ^uint64(0)
	}
	defer func() { m.runLimit = 0 }()
	for !m.Done() && m.cycle-start < maxCycles {
		if next := m.nextIssueCycle(); next-m.cycle > 1 {
			if next-start > maxCycles {
				next = start + maxCycles
			}
			if m.scrubEvery != 0 {
				if tick := m.cycle - m.cycle%m.scrubEvery + m.scrubEvery; tick < next {
					next = tick
				}
			}
			m.skipTo(next)
		} else {
			m.Step()
		}
		if m.scrubEvery != 0 && m.cycle%m.scrubEvery == 0 {
			m.Space.Phys.ScrubStep(m.scrubWords)
		}
	}
	return m.cycle - start
}

// nextIssueCycle returns the first cycle at which some live thread
// could issue: the current cycle if one is ready (or its wait has
// elapsed), else the earliest blockedUntil. It reads thread state
// afresh on every call — the kernel writes Thread.State directly, so a
// cached answer could go stale.
func (m *Machine) nextIssueCycle() uint64 {
	next := ^uint64(0)
	for _, t := range m.threads {
		if t.Done() {
			continue
		}
		if t.State != Blocked || t.blockedUntil <= m.cycle {
			return m.cycle
		}
		if t.blockedUntil < next {
			next = t.blockedUntil
		}
	}
	return next
}

// skipTo advances the machine to cycle end without stepping. Every
// thread is blocked until at least end, so each skipped Step would
// have found no thread to issue: it credits Cycles, and per cluster
// StallCycles for the overlap with its stall window and IdleCycles
// for the rest. now is left as the last skipped Step would leave it.
func (m *Machine) skipTo(end uint64) {
	n := end - m.cycle
	for _, cl := range m.clusters {
		var stall uint64
		if cl.stallUntil > m.cycle {
			stall = min(cl.stallUntil, end) - m.cycle
		}
		m.stats.StallCycles += stall
		m.stats.IdleCycles += n - stall
	}
	m.stats.Cycles += n
	m.cycle = end
	m.now = end - 1
}

func (m *Machine) stepCluster(cl *clusterState) {
	if cl.stallUntil > m.cycle {
		m.stats.StallCycles++
		return
	}
	t := m.pickThread(cl)
	if t == nil {
		m.stats.IdleCycles++
		return
	}
	if t != cl.lastThread {
		if cl.lastThread != nil {
			m.stats.Switches++
			if cl.lastThread.Domain != t.Domain {
				m.stats.DomainSwaps++
				if m.Tracer != nil && m.Tracer.Enabled(telemetry.EvDomainSwap) {
					m.Tracer.Emit(telemetry.Event{Cycle: m.cycle, Kind: telemetry.EvDomainSwap,
						Thread: t.ID, Cluster: t.cluster, Domain: t.Domain,
						Detail: fmt.Sprintf("domain %d -> %d", cl.lastThread.Domain, t.Domain)})
				}
				penalty := m.switchPenalty()
				if m.hists != nil {
					m.hists.DomainSwitch.Observe(penalty)
				}
				if penalty > 0 {
					// A page-based scheme must install the new domain
					// before the thread may issue: stall the cluster
					// and destroy the stale state.
					cl.stallUntil = m.cycle + penalty
					m.stallEnd = max(m.stallEnd, cl.stallUntil)
					cl.lastThread = t
					m.stats.StallCycles++
					return
				}
			}
		}
		cl.lastThread = t
	}
	m.stats.IssuePackets++
	if m.cfg.WideIssue {
		m.executeWide(t)
		return
	}
	m.execute(t)
	for m.lone(t) {
		m.tick()
		m.execute(t)
	}
}

// switchPenalty applies the selected scheme's domain-switch cost and
// returns the stall length.
func (m *Machine) switchPenalty() uint64 {
	switch m.cfg.Scheme {
	case SchemeFlushTLB:
		m.flushTLBTraced()
		return m.cfg.SwitchPenalty
	case SchemeFlushAll:
		m.flushTLBTraced()
		m.Cache.InvalidateAll()
		return m.cfg.SwitchPenalty
	}
	return 0
}

// flushTLBTraced flushes the TLB, recording how many live translations
// the flush destroyed.
func (m *Machine) flushTLBTraced() {
	live := 0
	if m.Tracer != nil && m.Tracer.Enabled(telemetry.EvTLBFlush) {
		live = m.Space.TLB.Live()
	}
	m.Space.TLB.Flush()
	if m.Tracer != nil && m.Tracer.Enabled(telemetry.EvTLBFlush) {
		m.Tracer.Emit(telemetry.Event{Cycle: m.cycle, Kind: telemetry.EvTLBFlush,
			Thread: -1, Cluster: -1, Domain: -1, Code: int64(live)})
	}
}

// pickThread selects the thread to issue this cycle. The guarded
// scheme round-robins freely — switching threads is free, so fairness
// wins. The flush-based schemes are sticky: they keep issuing from the
// current thread while it is ready, because every cross-domain switch
// costs a stall-and-flush. This is the paper's observation (Sec 1) that
// such schemes "preclude interleaving threads from different protection
// domains" made operational.
func (m *Machine) pickThread(cl *clusterState) *Thread {
	if m.cfg.Scheme != SchemeGuarded && cl.lastThread != nil {
		t := cl.lastThread
		if !t.Done() {
			if t.State == Blocked && m.cycle >= t.blockedUntil {
				t.State = Ready
			}
			if t.State == Ready {
				return t
			}
		}
	}
	if cl.resident == 0 {
		return nil
	}
	n := len(cl.slots)
	i := cl.rr
	for range n {
		if i++; i == n {
			i = 0
		}
		t := cl.slots[i]
		if t == nil || t.Done() {
			continue
		}
		if t.State == Blocked {
			if m.cycle < t.blockedUntil {
				continue
			}
			t.State = Ready
		}
		cl.rr = i
		return t
	}
	return nil
}
