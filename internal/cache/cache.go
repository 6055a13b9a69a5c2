// Package cache models the M-Machine's on-chip cache (Fig. 5): a
// virtually-addressed, virtually-tagged, multi-banked cache in front of
// the translation layer. Because guarded pointers carry all protection
// in the pointer and all processes share one address space, the cache
// needs no protection state, no process identifiers in its tags, and no
// TLB on the hit path — translation happens only on a miss (Sec 3).
//
// The timing model captures what the paper's arguments need:
//
//   - the cache is interleaved into banks, each able to accept one
//     request per cycle ("this allows the memory system to accept up to
//     four memory requests during each cycle");
//   - requests to a busy bank stall (bank conflicts);
//   - misses arbitrate for the single external memory interface, "which
//     can only handle one request at a time".
//
// Data always lives in the backing vm.Space; the cache tracks line
// residence, recency, and dirtiness, so functional reads/writes stay
// coherent by construction while the timing behaves like hardware.
package cache

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/word"
)

// Config fixes the cache geometry and timings.
type Config struct {
	Banks     int // number of independent banks (M-Machine: 4)
	Sets      int // sets per bank
	Ways      int // associativity
	LineBytes int // line size; also the bank-interleave granularity

	HitLatency  uint64 // cycles for a bank hit (M-Machine-ish: 1)
	MissPenalty uint64 // extra cycles for the external memory access
}

// MMachine is the configuration of the chip in Sec 3: 128KB split over
// 4 banks, 2-way associative, 32-byte (4-word) lines, 1-cycle hits and
// a 10-cycle external memory.
func MMachine() Config {
	return Config{Banks: 4, Sets: 512, Ways: 2, LineBytes: 32, HitLatency: 1, MissPenalty: 10}
}

// Stats aggregates the cache's event counters.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	// ConflictCycles is the total cycles requests spent waiting for a
	// busy bank; MemWaitCycles the cycles spent queued on the external
	// memory interface.
	ConflictCycles uint64
	MemWaitCycles  uint64
	// BankAccesses counts per-bank traffic, exposing interleave balance.
	BankAccesses []uint64
}

type line struct {
	tag   uint64 // virtual line address (addr >> log2(LineBytes))
	valid bool
	dirty bool
	used  uint64 // LRU clock
}

type bank struct {
	lines     []line // Sets × Ways: set s is lines[s*Ways : (s+1)*Ways]
	busyUntil uint64
}

// Cache is a banked, virtually addressed cache bound to a vm.Space.
type Cache struct {
	cfg   Config
	space *vm.Space
	banks []bank
	lines []line // every bank's lines, in one allocation

	// Tracer, when non-nil, receives a cycle-stamped event per miss
	// that goes to the external interface (set by the owning machine).
	Tracer *telemetry.Tracer

	// HistTLBRefill, when non-nil, records the experienced latency
	// (completion − issue cycles) of every access whose translation had
	// to page-walk — the refill cost a TLB miss imposes on the reference
	// that took it, the distribution behind the paper's miss-handling
	// arguments. Nil (the default) costs one pointer check per miss.
	HistTLBRefill *telemetry.Histogram

	lineShift uint
	clock     uint64 // LRU clock, monotone per access
	memBusy   uint64 // external interface busy-until cycle
	stats     Stats
}

// New builds a cache over space with the given configuration.
func New(space *vm.Space, cfg Config) (*Cache, error) {
	if cfg.Banks <= 0 || cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	if cfg.LineBytes < word.BytesPerWord || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d must be a power of two ≥ %d", cfg.LineBytes, word.BytesPerWord)
	}
	if cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, fmt.Errorf("cache: sets %d must be a power of two", cfg.Sets)
	}
	c := &Cache{cfg: cfg, space: space}
	c.lineShift = uint(log2(uint64(cfg.LineBytes)))
	c.banks = make([]bank, cfg.Banks)
	c.lines = make([]line, cfg.Banks*cfg.Sets*cfg.Ways)
	perBank := cfg.Sets * cfg.Ways
	for i := range c.banks {
		c.banks[i].lines = c.lines[i*perBank : (i+1)*perBank : (i+1)*perBank]
	}
	c.stats.BankAccesses = make([]uint64, cfg.Banks)
	return c, nil
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SizeBytes returns the total capacity.
func (c *Cache) SizeBytes() int { return c.cfg.Banks * c.cfg.Sets * c.cfg.Ways * c.cfg.LineBytes }

// bankOf selects the bank for an address: consecutive lines rotate
// around the banks, which is what lets four clusters streaming through
// memory hit four different banks in the same cycle.
func (c *Cache) bankOf(vaddr uint64) int {
	return int(vaddr >> c.lineShift % uint64(c.cfg.Banks))
}

// setOf selects the set within the bank.
func (c *Cache) setOf(vaddr uint64) int {
	return int(vaddr >> c.lineShift / uint64(c.cfg.Banks) % uint64(c.cfg.Sets))
}

func (c *Cache) lineTag(vaddr uint64) uint64 { return vaddr >> c.lineShift }

// Access performs the timing (not data) part of a reference to vaddr
// issued at cycle now: bank arbitration, tag check, miss handling, and
// replacement. It returns the cycle at which the request completes and
// whether it hit. Unmapped addresses return the translation error
// (raised at miss time — the hit path never translates).
func (c *Cache) Access(vaddr uint64, write bool, now uint64) (done uint64, hit bool, err error) {
	c.clock++
	c.stats.Accesses++
	b := &c.banks[c.bankOf(vaddr)]
	c.stats.BankAccesses[c.bankOf(vaddr)]++

	// Bank arbitration: one request per cycle per bank.
	start := now
	if b.busyUntil > start {
		c.stats.ConflictCycles += b.busyUntil - start
		start = b.busyUntil
	}

	s := c.setOf(vaddr) * c.cfg.Ways
	set := b.lines[s : s+c.cfg.Ways]
	tag := c.lineTag(vaddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].used = c.clock
			if write {
				set[i].dirty = true
			}
			done = start + c.cfg.HitLatency
			b.busyUntil = start + 1
			return done, true, nil
		}
	}

	// Miss: translate (the only time translation happens) and fetch
	// over the single external interface.
	c.stats.Misses++
	if c.Tracer != nil && c.Tracer.Enabled(telemetry.EvCacheMiss) {
		c.Tracer.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvCacheMiss,
			Thread: -1, Cluster: -1, Domain: -1, Addr: vaddr})
	}
	_, tlbHit, err := c.space.Translate(vaddr)
	if err != nil {
		b.busyUntil = start + 1
		return start + c.cfg.HitLatency, false, err
	}

	// Choose a victim (invalid first, else LRU) and account a
	// writeback if it is dirty.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range set {
		if !set[i].valid {
			victim, oldest = i, 0
			break
		}
		if set[i].used < oldest {
			victim, oldest = i, set[i].used
		}
	}
	penalty := c.cfg.MissPenalty
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
		penalty += c.cfg.MissPenalty // write back then fill, serialized
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, used: c.clock}

	// External memory interface: one request at a time.
	memStart := start + c.cfg.HitLatency // tag check happened first
	if c.memBusy > memStart {
		c.stats.MemWaitCycles += c.memBusy - memStart
		memStart = c.memBusy
	}
	done = memStart + penalty
	c.memBusy = done
	b.busyUntil = done // the bank is occupied by the fill
	if !tlbHit && c.HistTLBRefill != nil {
		c.HistTLBRefill.Observe(done - now)
	}
	return done, false, nil
}

// ReadWord performs a functional+timing read of the naturally aligned
// word at vaddr.
func (c *Cache) ReadWord(vaddr uint64, now uint64) (w word.Word, done uint64, err error) {
	done, _, err = c.Access(vaddr, false, now)
	if err != nil {
		return word.Word{}, done, err
	}
	w, err = c.space.ReadWord(vaddr)
	return w, done, err
}

// WriteWord performs a functional+timing write.
func (c *Cache) WriteWord(vaddr uint64, w word.Word, now uint64) (done uint64, err error) {
	done, _, err = c.Access(vaddr, true, now)
	if err != nil {
		return done, err
	}
	return done, c.space.WriteWord(vaddr, w)
}

// InvalidateAll empties the cache (used when a baseline model without
// address-space identifiers must purge on a context switch, Sec 5.1).
// It returns the number of lines invalidated.
func (c *Cache) InvalidateAll() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			c.lines[i].valid = false
			n++
		}
	}
	return n
}

// InvalidateRange removes lines overlapping [vaddr, vaddr+size) — the
// cache side of revocation-by-unmap.
func (c *Cache) InvalidateRange(vaddr, size uint64) int {
	if size == 0 {
		return 0
	}
	n := 0
	first := c.lineTag(vaddr)
	last := c.lineTag(vaddr + size - 1)
	for i := range c.lines {
		if l := &c.lines[i]; l.valid && l.tag >= first && l.tag <= last {
			l.valid = false
			n++
		}
	}
	return n
}

// Live returns the number of valid lines.
func (c *Cache) Live() int {
	n := 0
	for _, l := range c.lines {
		if l.valid {
			n++
		}
	}
	return n
}

// Stats returns a copy of the counters. The BankAccesses slice is
// always a fresh defensive copy: callers may hold the snapshot across a
// later ResetStats (or further accesses) without ever aliasing the live
// per-bank counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.BankAccesses = make([]uint64, len(c.stats.BankAccesses))
	copy(s.BankAccesses, c.stats.BankAccesses)
	return s
}

// ResetStats zeroes the counters, keeping contents. The live
// BankAccesses slice is replaced, never shared, so snapshots taken
// before the reset keep their values.
func (c *Cache) ResetStats() {
	c.stats = Stats{BankAccesses: make([]uint64, c.cfg.Banks)}
}

// RegisterMetrics publishes the cache counters under prefix
// (canonically "cache.l1"): hits, misses, writebacks, conflict cycles,
// memory-interface wait cycles, and per-bank access counts.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".accesses", func() uint64 { return c.stats.Accesses })
	reg.Counter(prefix+".hits", func() uint64 { return c.stats.Hits })
	reg.Counter(prefix+".misses", func() uint64 { return c.stats.Misses })
	reg.Counter(prefix+".writebacks", func() uint64 { return c.stats.Writebacks })
	reg.Counter(prefix+".conflict_cycles", func() uint64 { return c.stats.ConflictCycles })
	reg.Counter(prefix+".mem_wait_cycles", func() uint64 { return c.stats.MemWaitCycles })
	for i := 0; i < c.cfg.Banks; i++ {
		bank := i
		reg.Counter(fmt.Sprintf("%s.bank.%d.accesses", prefix, bank), func() uint64 {
			return c.stats.BankAccesses[bank]
		})
	}
	if c.HistTLBRefill != nil {
		reg.RegisterHistogram(prefix+".hist.tlb_refill", c.HistTLBRefill)
	}
}
