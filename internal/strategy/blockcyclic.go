package strategy

import (
	"repro/internal/sched"
)

// defaultBlockSize is the blockcyclic column-block size when
// Options.BlockSize is unset.
const defaultBlockSize = 4

// blockCyclic deals fixed-size blocks of consecutive columns to
// processors cyclically: column j belongs to processor (j/b) mod P. Block
// size 1 is exactly the wrap mapping; growing b trades the wrap mapping's
// fine-grained balance for supernode locality (consecutive columns of a
// cluster tend to land together), the classical ScaLAPACK-style
// compromise between cyclic and contiguous layouts.
func blockCyclic(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	bs := opts.BlockSize
	if bs <= 0 {
		bs = defaultBlockSize
	}
	owner := make([]int32, sys.F.N)
	for j := range owner {
		owner[j] = int32((j / bs) % p)
	}
	return sched.ColumnMap(sys.F, sys.ElemWork, p, owner), nil
}
