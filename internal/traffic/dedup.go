package traffic

import "fmt"

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
	if p < 1 {
		panic(fmt.Sprintf("traffic: invalid processor count %d", p))
	}
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
