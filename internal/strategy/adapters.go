package strategy

import (
	"repro/internal/sched"
)

// blockMapper adapts the paper's Section 3.4 unit-block allocator under
// either pick rule: "block" (the paper's) and "blockgreedy" (work-aware).
type blockMapper struct {
	name   string
	greedy bool
}

func (m blockMapper) Name() string { return m.name }

func (m blockMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	if m.greedy {
		return sched.BlockMapGreedy(sys.Partition(opts.Part), p), nil
	}
	return sched.BlockMap(sys.Partition(opts.Part), p), nil
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
	Register(blockMapper{name: "block"})
	Register(blockMapper{name: "blockgreedy", greedy: true})
	Register(wrapMapper{})
}
