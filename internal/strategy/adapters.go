package strategy

import (
	"repro/internal/sched"
)

// blockMapper adapts the paper's Section 3.4 unit-block allocator.
type blockMapper struct{}

func (blockMapper) Name() string { return "block" }

func (blockMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	return sched.BlockMap(sys.Partition(opts.Part), p), nil
}

// blockGreedyMapper adapts the work-aware Section 3.4 variant.
type blockGreedyMapper struct{}

func (blockGreedyMapper) Name() string { return "blockgreedy" }

func (blockGreedyMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	return sched.BlockMapGreedy(sys.Partition(opts.Part), p), nil
}

// wrapMapper adapts the classical wrap (cyclic) column mapping.
type wrapMapper struct{}

func (wrapMapper) Name() string { return "wrap" }

func (wrapMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	return sched.WrapMap(sys.F, sys.ElemWork, p), nil
}

func init() {
	Register(blockMapper{})
	Register(blockGreedyMapper{})
	Register(wrapMapper{})
}
