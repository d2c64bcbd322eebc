// Package mem provides the simulated flat address space that programs,
// instrumentation data (path counter arrays, metric accumulators) and the
// CCT heap live in. Keeping all profiling state in simulated memory is what
// lets instrumentation genuinely perturb the simulated caches, reproducing
// the perturbation phenomenon of Table 2 of the paper.
package mem

import (
	"fmt"
	"slices"
)

// Standard region bases. The layout mirrors a conventional process image:
// globals low, a downward-growing stack, then separate regions for
// instrumentation counters and the CCT heap (the paper memory-maps the CCT
// heap into its own demand-paged region).
const (
	GlobalBase  uint64 = 0x0001_0000
	StackTop    uint64 = 0x0800_0000 // stack grows down from here
	CounterBase uint64 = 0x4000_0000 // path counter arrays and accumulators
	CCTBase     uint64 = 0x8000_0000 // calling-context-tree heap
	TextBase    uint64 = 0x1000_0000 // instruction addresses (I-cache only)
)

const (
	pageWordShift = 9 // 512 words = 4 KiB pages
	pageWords     = 1 << pageWordShift
	wordShift     = 3 // 8-byte words
)

type page [pageWords]int64

// Memory is a sparse 64-bit word-addressable address space. All accesses
// are 8-byte words at 8-byte-aligned byte addresses; unaligned access
// panics, since it indicates a program or instrumentation bug.
//
// A Memory is not safe for concurrent use, not even by loads only: Load
// updates the one-page lookup memo.
type Memory struct {
	pages map[uint64]*page

	// lastPN and lastPage memoize the most recently used resident page,
	// so runs of accesses to one page skip the map. Pages are never freed,
	// so the memo cannot go stale. lastPN is noPage until a page is used.
	lastPN   uint64
	lastPage *page
}

// noPage is the "no page used yet" value of Memory.lastPN; page numbers
// are addresses shifted right, so none reaches it.
const noPage = ^uint64(0)

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page), lastPN: noPage}
}

func split(addr uint64) (pageNo uint64, idx uint64) {
	if addr&7 != 0 {
		panic(unalignedAccess(addr))
	}
	w := addr >> wordShift
	return w >> pageWordShift, w & (pageWords - 1)
}

// unalignedAccess is split's panic value. Formatting the message only when
// it is printed keeps split small enough to inline into Load and Store.
type unalignedAccess uint64

func (a unalignedAccess) Error() string {
	return fmt.Sprintf("mem: unaligned access at %#x", uint64(a))
}

// Load reads the 64-bit word at addr (0 if never written).
func (m *Memory) Load(addr uint64) int64 {
	pn, idx := split(addr)
	if pn == m.lastPN {
		return m.lastPage[idx]
	}
	p := m.pages[pn]
	if p == nil {
		return 0
	}
	m.lastPN, m.lastPage = pn, p
	return p[idx]
}

// Store writes the 64-bit word at addr.
func (m *Memory) Store(addr uint64, v int64) {
	pn, idx := split(addr)
	if pn == m.lastPN {
		m.lastPage[idx] = v
		return
	}
	p := m.pages[pn]
	if p == nil {
		p = new(page)
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage = pn, p
	p[idx] = v
}

// Add adds delta to the word at addr and returns the new value; a common
// operation for counters.
func (m *Memory) Add(addr uint64, delta int64) int64 {
	v := m.Load(addr) + delta
	m.Store(addr, v)
	return v
}

// FootprintBytes reports the bytes of simulated memory backed by pages.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(len(m.pages)) * pageWords * 8
}

// CopyRegion bulk-copies words (used to initialize the global segment).
func (m *Memory) CopyRegion(base uint64, words []int64) {
	for i, w := range words {
		m.Store(base+uint64(i)*8, w)
	}
}

// ReadRegion reads n words starting at base.
func (m *Memory) ReadRegion(base uint64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Load(base + uint64(i)*8)
	}
	return out
}

// Equal reports whether two address spaces hold identical contents: every
// word present in either must match the other, with absent pages reading as
// zero. Differential semantic-preservation tests compare the final memory
// images of original and rewritten programs with this.
func Equal(a, b *Memory) bool {
	check := func(x, y *Memory) bool {
		var zero page
		for pn, px := range x.pages {
			py := y.pages[pn]
			if py == nil {
				py = &zero
			}
			if *px != *py {
				return false
			}
		}
		return true
	}
	return check(a, b) && check(b, a)
}

// DiffWord returns the byte address and both values of the first differing
// word between two address spaces (scanning pages in ascending order), or
// ok=false when they are equal. Harnesses use it to report where a rewritten
// program's memory image diverged.
func DiffWord(a, b *Memory) (addr uint64, av, bv int64, ok bool) {
	seen := make(map[uint64]bool, len(a.pages)+len(b.pages))
	var pns []uint64
	for pn := range a.pages {
		seen[pn] = true
		pns = append(pns, pn)
	}
	for pn := range b.pages {
		if !seen[pn] {
			pns = append(pns, pn)
		}
	}
	slices.Sort(pns)
	var zero page
	for _, pn := range pns {
		pa, pb := a.pages[pn], b.pages[pn]
		if pa == nil {
			pa = &zero
		}
		if pb == nil {
			pb = &zero
		}
		for i := 0; i < pageWords; i++ {
			if pa[i] != pb[i] {
				byteAddr := ((pn << pageWordShift) + uint64(i)) << wordShift
				return byteAddr, pa[i], pb[i], true
			}
		}
	}
	return 0, 0, 0, false
}

// Allocator hands out non-overlapping address ranges within a region.
type Allocator struct {
	next  uint64
	limit uint64
}

// NewAllocator returns an allocator over [base, base+size).
func NewAllocator(base, size uint64) *Allocator {
	return &Allocator{next: base, limit: base + size}
}

// Alloc reserves n bytes aligned to align (a power of two, at least 8) and
// returns the base address. It panics when the region is exhausted, which
// indicates a configuration error rather than a runtime condition.
func (a *Allocator) Alloc(n, align uint64) uint64 {
	if align < 8 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (a.next + align - 1) &^ (align - 1)
	if base+n > a.limit || base+n < base {
		panic(fmt.Sprintf("mem: region exhausted (want %d bytes at %#x, limit %#x)", n, base, a.limit))
	}
	a.next = base + n
	return base
}

// Used reports how many bytes have been allocated (including alignment
// padding).
func (a *Allocator) Used(base uint64) uint64 { return a.next - base }

// Clone returns an independent allocator that continues from the same
// position. Callers that need identical address sequences from a shared
// starting point (e.g. wiring one instrumentation plan onto several
// machines) clone the allocator instead of mutating the shared one.
func (a *Allocator) Clone() *Allocator {
	c := *a
	return &c
}
