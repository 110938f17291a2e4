package strategy

import (
	"repro/internal/sched"
)

// DefaultBlockSize is the blockcyclic column-block size when
// Options.BlockSize is unset.
const DefaultBlockSize = 4

// blockCyclicMapper deals fixed-size blocks of consecutive columns to
// processors cyclically: column j belongs to processor (j/b) mod P. Block
// size 1 is exactly the wrap mapping; growing b trades the wrap mapping's
// fine-grained balance for supernode locality (consecutive columns of a
// cluster tend to land together), the classical ScaLAPACK-style
// compromise between cyclic and contiguous layouts.
type blockCyclicMapper struct{}

func (blockCyclicMapper) Name() string { return "blockcyclic" }

func (blockCyclicMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	bs := opts.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	owner := make([]int32, sys.F.N)
	for j := range owner {
		owner[j] = int32((j / bs) % p)
	}
	return columnSchedule(sys, p, owner), nil
}

func init() { Register(blockCyclicMapper{}) }
