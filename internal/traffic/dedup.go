package traffic

import (
	"math/bits"

	"repro/internal/sched"
)

// FetchDedup tracks distinct (element, processor) first fetches — the
// deduplication rule of the paper's caching model ("once a data element
// is fetched, that element is stored locally"), shared by every traffic
// simulator in this package and by the 2D tile simulator
// (part2d.Traffic). Every element carries a bitmask of ⌈P/64⌉ words, one
// bit per processor, so any processor count takes the same path; the
// tracker holds 8·⌈P/64⌉·nnz bytes.
type FetchDedup struct {
	words int // mask words per element
	mask  []uint64
}

// NewFetchDedup sizes the tracker for a factor with nnz elements
// scheduled on p processors.
func NewFetchDedup(p, nnz int) *FetchDedup {
	sched.MustProcs("traffic", p)
	words := (p + 63) / 64
	return &FetchDedup{words: words, mask: make([]uint64, words*nnz)}
}

// FirstFetch reports whether processor proc fetches elem for the first
// time, marking the pair seen.
func (d *FetchDedup) FirstFetch(elem, proc int32) bool {
	w := &d.mask[int(elem)*d.words+int(proc>>6)]
	bit := uint64(1) << (uint(proc) & 63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// each calls fn for every (element, processor) pair marked so far,
// elements and, within one element, processors in increasing order.
func (d *FetchDedup) each(fn func(elem, proc int32)) {
	for i, w := range d.mask {
		for ; w != 0; w &= w - 1 {
			fn(int32(i/d.words), int32(i%d.words*64+bits.TrailingZeros64(w)))
		}
	}
}
