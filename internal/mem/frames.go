package mem

import "fmt"

// FrameAllocator hands out fixed-size physical page frames from a
// Memory. Physical space "is allocated on a page-by-page basis,
// independent of segmentation" (Sec 4.2), which is why power-of-two
// segment rounding wastes little physical memory: only the touched pages
// of a segment ever get frames.
type FrameAllocator struct {
	frameSize uint64
	free      []uint64 // physical base addresses, LIFO
	isFree    []uint64 // bitmap, 1 bit per frame: set while the frame is on free
	total     int
}

// NewFrameAllocator covers the whole of m with frames of frameSize bytes
// (a power of two dividing the memory size).
func NewFrameAllocator(m *Memory, frameSize uint64) (*FrameAllocator, error) {
	if frameSize == 0 || frameSize&(frameSize-1) != 0 {
		return nil, fmt.Errorf("mem: frame size %d is not a power of two", frameSize)
	}
	if m.Size()%frameSize != 0 {
		return nil, fmt.Errorf("mem: memory size %d not a multiple of frame size %d", m.Size(), frameSize)
	}
	n := m.Size() / frameSize
	fa := &FrameAllocator{
		frameSize: frameSize,
		free:      make([]uint64, 0, n),
		isFree:    make([]uint64, (n+63)/64),
		total:     int(n),
	}
	// Hand out low addresses first: push in reverse so the LIFO pops
	// ascending, which keeps test output and memory dumps readable.
	for i := int64(n) - 1; i >= 0; i-- {
		fa.push(uint64(i) * frameSize)
	}
	return fa, nil
}

// FrameSize returns the frame size in bytes.
func (fa *FrameAllocator) FrameSize() uint64 { return fa.frameSize }

// Free returns the number of free frames.
func (fa *FrameAllocator) Free() int { return len(fa.free) }

// Total returns the total number of frames.
func (fa *FrameAllocator) Total() int { return fa.total }

func (fa *FrameAllocator) push(paddr uint64) {
	f := paddr / fa.frameSize
	fa.isFree[f/64] |= 1 << (f % 64)
	fa.free = append(fa.free, paddr)
}

// checkFrame validates paddr as a frame base address for op and
// reports whether that frame is free.
func (fa *FrameAllocator) checkFrame(op string, paddr uint64) (free bool, err error) {
	if paddr%fa.frameSize != 0 {
		return false, fmt.Errorf("mem: %s of unaligned frame %#x", op, paddr)
	}
	f := paddr / fa.frameSize
	if f >= uint64(fa.total) {
		return false, fmt.Errorf("mem: %s of frame %#x beyond physical memory", op, paddr)
	}
	return fa.isFree[f/64]>>(f%64)&1 != 0, nil
}

// Alloc returns the physical base address of a free frame.
func (fa *FrameAllocator) Alloc() (uint64, error) {
	if len(fa.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical frames (%d in use)", fa.total)
	}
	paddr := fa.free[len(fa.free)-1]
	fa.free = fa.free[:len(fa.free)-1]
	f := paddr / fa.frameSize
	fa.isFree[f/64] &^= 1 << (f % 64)
	return paddr, nil
}

// Release returns a frame to the allocator. A frame that is already
// free, or lies beyond the end of memory, is refused: accepting it
// would hand one frame to two owners. The caller is responsible for
// zeroing it (Memory.ZeroRange) before reuse across protection
// domains.
func (fa *FrameAllocator) Release(paddr uint64) error {
	free, err := fa.checkFrame("release", paddr)
	if err != nil {
		return err
	}
	if free {
		return fmt.Errorf("mem: double release of frame %#x", paddr)
	}
	fa.push(paddr)
	return nil
}

// Claim removes the specific frame at paddr from the free list — the
// restore path for checkpointed page placements. It fails if the frame
// is not free. The free list keeps its order, so later Allocs hand out
// the same frames they would have without the claim.
func (fa *FrameAllocator) Claim(paddr uint64) error {
	free, err := fa.checkFrame("claim", paddr)
	if err != nil {
		return err
	}
	if !free {
		return fmt.Errorf("mem: frame %#x is not free", paddr)
	}
	f := paddr / fa.frameSize
	fa.isFree[f/64] &^= 1 << (f % 64)
	// Low frames, the usual claims, sit at the top of the LIFO.
	for i := len(fa.free) - 1; i >= 0; i-- {
		if fa.free[i] == paddr {
			fa.free = append(fa.free[:i], fa.free[i+1:]...)
			break
		}
	}
	return nil
}
