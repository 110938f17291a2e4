package traffic

import (
	"math/bits"

	"repro/internal/sched"
)

// fetchDedup tracks distinct (element, processor) first fetches — the
// deduplication rule of the paper's caching model ("once a data element
// is fetched, that element is stored locally"), shared by every traffic
// simulator in this package. Every element carries a bitmask of ⌈P/64⌉
// words, one bit per processor, so any processor count takes the same
// path; the tracker holds 8·⌈P/64⌉·nnz bytes.
type fetchDedup struct {
	words int // mask words per element
	mask  []uint64
}

// newFetchDedup sizes the tracker for a factor with nnz elements
// scheduled on p processors.
func newFetchDedup(p, nnz int) *fetchDedup {
	sched.MustProcs("traffic", p)
	words := (p + 63) / 64
	return &fetchDedup{words: words, mask: make([]uint64, words*nnz)}
}

// firstFetch reports whether processor proc fetches elem for the first
// time, marking the pair seen.
func (d *fetchDedup) firstFetch(elem, proc int32) bool {
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
func (d *fetchDedup) each(fn func(elem, proc int32)) {
	for i, w := range d.mask {
		for ; w != 0; w &= w - 1 {
			fn(int32(i/d.words), int32(i%d.words*64+bits.TrailingZeros64(w)))
		}
	}
}
