package vm

import (
	"math/rand"
	"slices"
	"testing"
)

// radixTable is the three-level radix page table the valid-entry table
// replaced, kept as the oracle of the property test below: 14 bits per
// level over the 42-bit VPN, every inner node a full 16,384-slot array,
// every leaf a 16,384-entry PTE slice. Its walk is a depth-first scan of
// the slots, so it visits pages in ascending order by construction.
type radixTable struct {
	root    *radixNode
	entries int
}

const (
	radixLevelBits = 14
	radixLevels    = 3
	radixFanout    = 1 << radixLevelBits
	radixLevelMask = radixFanout - 1
)

type radixNode struct {
	children [radixFanout]*radixNode
	ptes     []PTE
}

func newRadixTable() *radixTable { return &radixTable{root: &radixNode{}} }

func radixSlots(vpn uint64) [radixLevels]int {
	var s [radixLevels]int
	for i := radixLevels - 1; i >= 0; i-- {
		s[i] = int(vpn & radixLevelMask)
		vpn >>= radixLevelBits
	}
	return s
}

func (pt *radixTable) Map(vaddr, frame uint64) {
	n := pt.root
	s := radixSlots(vpnOf(vaddr))
	for i := 0; i < radixLevels-1; i++ {
		next := n.children[s[i]]
		if next == nil {
			next = &radixNode{}
			if i == radixLevels-2 {
				next.ptes = make([]PTE, radixFanout)
			}
			n.children[s[i]] = next
		}
		n = next
	}
	pte := &n.ptes[s[radixLevels-1]]
	if !pte.Valid {
		pt.entries++
	}
	*pte = PTE{Frame: frame, Valid: true}
}

func (pt *radixTable) lookup(vaddr uint64) *PTE {
	n := pt.root
	s := radixSlots(vpnOf(vaddr))
	for i := 0; i < radixLevels-1; i++ {
		n = n.children[s[i]]
		if n == nil {
			return nil
		}
	}
	return &n.ptes[s[radixLevels-1]]
}

func (pt *radixTable) Unmap(vaddr uint64) bool {
	pte := pt.lookup(vaddr)
	if pte == nil || !pte.Valid {
		return false
	}
	*pte = PTE{}
	pt.entries--
	return true
}

func (pt *radixTable) Lookup(vaddr uint64) (PTE, bool) {
	pte := pt.lookup(vaddr)
	if pte == nil || !pte.Valid {
		return PTE{}, false
	}
	return *pte, true
}

func (pt *radixTable) SetDirty(vaddr uint64) {
	if pte := pt.lookup(vaddr); pte != nil && pte.Valid {
		pte.Dirty = true
	}
}

func (pt *radixTable) walk(n *radixNode, level int, prefix uint64, fn func(uint64, *PTE) bool) bool {
	if n == nil {
		return true
	}
	if level == radixLevels-1 {
		for i := range n.ptes {
			if n.ptes[i].Valid {
				vpn := prefix<<radixLevelBits | uint64(i)
				if !fn(vpn<<PageShift, &n.ptes[i]) {
					return false
				}
			}
		}
		return true
	}
	for i, child := range n.children {
		if child != nil && !pt.walk(child, level+1, prefix<<radixLevelBits|uint64(i), fn) {
			return false
		}
	}
	return true
}

func (pt *radixTable) Walk(fn func(page uint64, pte PTE) bool) {
	pt.walk(pt.root, 0, 0, func(page uint64, pte *PTE) bool { return fn(page, *pte) })
}

func (pt *radixTable) CollectDirty(clear bool) []uint64 {
	var pages []uint64
	pt.walk(pt.root, 0, 0, func(page uint64, pte *PTE) bool {
		if pte.Dirty {
			pages = append(pages, page)
			if clear {
				pte.Dirty = false
			}
		}
		return true
	})
	return pages
}

// TestPageTableMatchesRadixOracle drives the page table and the radix
// oracle through the same seeded sequences of Map, remap, Unmap (absent
// pages included), SetDirty, Lookup, Walk with an early stop and
// CollectDirty, over pages clustered in one leaf, in neighboring leaves
// and spread across the 42-bit VPN space. Every answer must agree, and
// every walk must come out in strictly ascending page order.
func TestPageTableMatchesRadixOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool []uint64
		for i := 0; i < 8; i++ {
			pool = append(pool,
				0x1234<<radixLevelBits|uint64(rng.Intn(radixFanout)), // one leaf
				uint64(i)<<radixLevelBits|uint64(rng.Intn(4)),        // neighboring leaves
				uint64(rng.Int63())&(1<<VPNBits-1))                   // anywhere
		}
		pool = append(pool, 0, 1<<VPNBits-1)
		page := func() uint64 { return pool[rng.Intn(len(pool))]<<PageShift | uint64(rng.Intn(PageSize)) }

		pt, oracle := NewPageTable(), newRadixTable()
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(7); op {
			case 0, 1: // map or remap
				va, frame := page(), uint64(rng.Intn(1<<20))<<PageShift
				if err := pt.Map(va, frame); err != nil {
					t.Fatal(err)
				}
				oracle.Map(va, frame)
			case 2:
				va := page()
				if got, want := pt.Unmap(va), oracle.Unmap(va); got != want {
					t.Fatalf("seed %d step %d: Unmap(%#x) = %v, oracle %v", seed, step, va, got, want)
				}
			case 3:
				va := page()
				pt.SetDirty(va)
				oracle.SetDirty(va)
			case 4:
				va := page()
				got, gok := pt.Lookup(va)
				want, wok := oracle.Lookup(va)
				if got != want || gok != wok {
					t.Fatalf("seed %d step %d: Lookup(%#x) = %+v %v, oracle %+v %v", seed, step, va, got, gok, want, wok)
				}
			case 5:
				clear := rng.Intn(2) == 0
				if got, want := pt.CollectDirty(clear), oracle.CollectDirty(clear); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: CollectDirty(%v) = %#x, oracle %#x", seed, step, clear, got, want)
				}
			case 6:
				stop := rng.Intn(oracle.entries + 1)
				collect := func(walk func(func(uint64, PTE) bool)) (pages []uint64, ptes []PTE) {
					walk(func(page uint64, pte PTE) bool {
						pages, ptes = append(pages, page), append(ptes, pte)
						return len(pages) <= stop
					})
					return pages, ptes
				}
				gp, gptes := collect(pt.Walk)
				wp, wptes := collect(oracle.Walk)
				if !slices.Equal(gp, wp) || !slices.Equal(gptes, wptes) {
					t.Fatalf("seed %d step %d: Walk stopping after %d = %#x, oracle %#x", seed, step, stop+1, gp, wp)
				}
			}
			if pt.Entries() != oracle.entries {
				t.Fatalf("seed %d step %d: Entries = %d, oracle %d", seed, step, pt.Entries(), oracle.entries)
			}
		}
		var all []uint64
		pt.Walk(func(page uint64, _ PTE) bool { all = append(all, page); return true })
		for i := 1; i < len(all); i++ {
			if all[i] <= all[i-1] {
				t.Fatalf("seed %d: Walk not ascending: %#x after %#x", seed, all[i], all[i-1])
			}
		}
	}
}
