// Package vm implements the translation layer under guarded pointers:
// one single 54-bit virtual address space shared by every process, a
// page table of the valid translations from virtual pages to physical
// frames, and a TLB model with the statistics the paper's comparisons
// turn on (hits, misses, flushes, entry counts).
//
// Because protection lives in the pointers, this layer does *no* access
// checking at all — "only one level of address translation is required
// to perform a memory reference" (Abstract) and translation happens only
// on cache misses (Sec 3). The same TLB type, with its address-space
// identifier field, also serves the page-based baseline models of
// Sec 5.1.
package vm

import (
	"fmt"
	"slices"
)

// Page geometry: 4KB pages over the 54-bit space, leaving a 42-bit
// virtual page number.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1

	// VPNBits is the width of the virtual page number.
	VPNBits = 54 - PageShift
)

// PTE is a page-table entry: the physical frame base address and
// bookkeeping bits. Guarded-pointer PTEs carry no protection bits — the
// pointer already said what is allowed.
type PTE struct {
	Frame uint64 // physical base address of the frame
	Valid bool
	Dirty bool
}

// PageFaultError reports a reference to an unmapped virtual page. The
// kernel uses unmapping as the revocation/relocation hook of Sec 4.3:
// "all guarded pointers to a segment can be simultaneously invalidated
// by unmapping the segment's address space in the page table".
type PageFaultError struct {
	VAddr uint64
}

func (e *PageFaultError) Error() string {
	return fmt.Sprintf("vm: page fault at %#x", e.VAddr)
}

// PageTable holds the valid translations of the 42-bit VPN space, and
// nothing else: its cost follows the pages mapped, however sparsely they
// sit. It is shared by all processes in a guarded-pointer system ("all
// processes share a single virtual address space", Sec 2).
type PageTable struct {
	ptes map[uint64]PTE // VPN → translation; every entry is Valid
	vpns []uint64       // the keys of ptes, ascending
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{ptes: make(map[uint64]PTE)}
}

// vpnOf extracts the virtual page number of a 54-bit address.
func vpnOf(vaddr uint64) uint64 { return vaddr >> PageShift }

// Map installs a translation from the page containing vaddr to the
// physical frame at frame (frame must be page aligned). Remapping an
// existing page overwrites it, dirty bit included.
func (pt *PageTable) Map(vaddr, frame uint64) error {
	if frame&PageMask != 0 {
		return fmt.Errorf("vm: frame %#x not page aligned", frame)
	}
	vpn := vpnOf(vaddr)
	if _, ok := pt.ptes[vpn]; !ok {
		i, _ := slices.BinarySearch(pt.vpns, vpn)
		pt.vpns = slices.Insert(pt.vpns, i, vpn)
	}
	pt.ptes[vpn] = PTE{Frame: frame, Valid: true}
	return nil
}

// Unmap removes the translation for the page containing vaddr and
// reports whether one existed.
func (pt *PageTable) Unmap(vaddr uint64) bool {
	vpn := vpnOf(vaddr)
	if _, ok := pt.ptes[vpn]; !ok {
		return false
	}
	delete(pt.ptes, vpn)
	i, _ := slices.BinarySearch(pt.vpns, vpn)
	pt.vpns = slices.Delete(pt.vpns, i, i+1)
	return true
}

// Lookup returns the PTE for the page containing vaddr. The second
// result reports whether a valid translation exists.
func (pt *PageTable) Lookup(vaddr uint64) (PTE, bool) {
	pte, ok := pt.ptes[vpnOf(vaddr)]
	return pte, ok
}

// SetDirty marks the page containing vaddr dirty (called on stores).
func (pt *PageTable) SetDirty(vaddr uint64) {
	vpn := vpnOf(vaddr)
	if pte, ok := pt.ptes[vpn]; ok && !pte.Dirty {
		pte.Dirty = true
		pt.ptes[vpn] = pte
	}
}

// Entries returns the number of valid translations.
func (pt *PageTable) Entries() int { return len(pt.vpns) }

// Walk visits every valid translation in ascending virtual-page order;
// fn receives the page base address and its PTE. Returning false stops
// the walk. Checkpoint images, the persist encoding and the benchmark
// digests depend on the order. fn may set dirty bits but must not map
// or unmap.
func (pt *PageTable) Walk(fn func(page uint64, pte PTE) bool) {
	for _, vpn := range pt.vpns {
		if !fn(vpn<<PageShift, pt.ptes[vpn]) {
			return
		}
	}
}
