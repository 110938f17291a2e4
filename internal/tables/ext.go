package tables

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// RelaxRow is one point of the cluster-relaxation ablation (Ext-D): the
// paper's "allowing some zeros to be part of a triangle", measured.
type RelaxRow struct {
	Frac       float64
	Merges     int
	PaddedNNZ  int
	Supernodes int
	Units      int
	Traffic    int64
	A          float64
	TotalWork  int64 // includes the cost of computing on padded zeros
}

// RelaxSweep measures cluster relaxation on an etree-postordered MMD
// ordering of the problem's matrix (postordering makes supernode parents
// adjacent, which is what gives relaxation room to merge).
func RelaxSweep(p *Problem, np, grain int, fracs []float64) ([]RelaxRow, error) {
	post, err := symbolic.PostOrderPerm(p.A, p.An.Perm)
	if err != nil {
		return nil, err
	}
	q, err := newProblem(p.Meta, p.A, post)
	if err != nil {
		return nil, err
	}
	var rows []RelaxRow
	for _, frac := range fracs {
		pl, err := q.An.Plan("block", np, strategy.Options{Part: core.Options{
			Grain: grain, MinClusterWidth: DefaultWidth, RelaxZeros: frac,
		}})
		if err != nil {
			return nil, err
		}
		part := q.An.Sys().Partition(pl.Opts.Part)
		rows = append(rows, RelaxRow{
			Frac: frac, Merges: part.Relax.Merges, PaddedNNZ: part.Relax.PaddedNNZ,
			Supernodes: len(part.F.Supernodes()) - 1, Units: len(part.Units),
			Traffic: pl.TrafficTotal(), A: pl.S1.Imbalance(), TotalWork: part.TotalWork,
		})
	}
	return rows, nil
}

// FormatRelaxSweep renders the relaxation ablation.
func FormatRelaxSweep(name string, np, grain int, rows []RelaxRow) string {
	return text(fmt.Sprintf("Ext-D: Cluster relaxation (allowed zeros), %s postordered, P=%d, g=%d\n", name, np, grain),
		"Frac\tMerges\tPadded nnz\tSupernodes\tUnits\tTraffic\tA\tTotal work", rows,
		func(r RelaxRow) string {
			return fmt.Sprintf("%.2f\t%d\t%d\t%d\t%d\t%d\t%.2f\t%d",
				r.Frac, r.Merges, r.PaddedNNZ, r.Supernodes, r.Units, r.Traffic, r.A, r.TotalWork)
		})
}

// AllocRow compares the Section 3.4 allocator with the work-aware greedy
// variant (Ext-E, the paper's Section 5 suggestion).
type AllocRow struct {
	Name                     string
	P                        int
	A34, AGreedy             float64
	Traffic34, TrafficGreedy int64
}

// AllocCompare runs both allocators over the suite at grain 25.
func AllocCompare(problems []*Problem) ([]AllocRow, error) {
	return overSuite(problems, DefaultProcs, func(p *Problem, np int) ([]AllocRow, error) {
		s34, err := p.An.Plan("block", np, Production)
		if err != nil {
			return nil, err
		}
		sgr, err := p.An.Plan("blockgreedy", np, Production)
		if err != nil {
			return nil, err
		}
		return []AllocRow{{
			Name: p.Meta.Name, P: np,
			A34: s34.S1.Imbalance(), AGreedy: sgr.S1.Imbalance(),
			Traffic34: s34.TrafficTotal(), TrafficGreedy: sgr.TrafficTotal(),
		}}, nil
	})
}

// FormatAllocCompare renders the allocator ablation.
func FormatAllocCompare(rows []AllocRow) string {
	return text("Ext-E: Allocator ablation (Section 3.4 vs work-aware greedy), g=25\n",
		"Appl\tP\tA §3.4\tA greedy\tTraffic §3.4\tTraffic greedy", rows,
		func(r AllocRow) string {
			return fmt.Sprintf("%s\t%d\t%.2f\t%.2f\t%d\t%d",
				r.Name, r.P, r.A34, r.AGreedy, r.Traffic34, r.TrafficGreedy)
		})
}

// OrderRow compares fill-reducing orderings end to end (Ext-F).
type OrderRow struct {
	Ordering     string
	FactorNNZ    int
	TotalWork    int64
	WrapTraffic  int64
	BlockTraffic int64 // g=25
	BlockA       float64
}

// OrderCompare runs the pipeline for natural, RCM, MMD, postordered MMD
// and nested dissection orderings of one matrix.
func OrderCompare(p *Problem, np int) ([]OrderRow, error) {
	a, mmd := p.A, p.An.Perm
	post, err := symbolic.PostOrderPerm(a, mmd)
	if err != nil {
		return nil, err
	}
	var rows []OrderRow
	for _, o := range []struct {
		name string
		perm []int
	}{
		{"natural", order.Natural(a.N)},
		{"RCM", order.RCM(a)},
		{"MMD", mmd},
		{"MMD+post", post},
		{"ND", order.NestedDissection(a, 32)},
	} {
		q, err := newProblem(p.Meta, a, o.perm)
		if err != nil {
			return nil, err
		}
		block, wrap, err := q.pair(np)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OrderRow{
			Ordering: o.name, FactorNNZ: q.F.NNZ(), TotalWork: q.Total,
			WrapTraffic: wrap.TrafficTotal(), BlockTraffic: block.TrafficTotal(),
			BlockA: block.S1.Imbalance(),
		})
	}
	return rows, nil
}

// FormatOrderCompare renders the ordering ablation.
func FormatOrderCompare(name string, np int, rows []OrderRow) string {
	return text(fmt.Sprintf("Ext-F: Ordering ablation, %s, P=%d (block at g=25)\n", name, np),
		"Ordering\tnnz(L)\tTotal work\tWrap traffic\tBlock traffic\tBlock A", rows,
		func(r OrderRow) string {
			return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%.2f",
				r.Ordering, r.FactorNNZ, r.TotalWork, r.WrapTraffic, r.BlockTraffic, r.BlockA)
		})
}

// SolveRow reports triangular-solve load balance under the factorization's
// assignment (Ext-G, the paper's Section 5 remark).
type SolveRow struct {
	Name                      string
	P                         int
	FactorABlock, SolveABlock float64
	CombinedABlock            float64
	FactorAWrap, SolveAWrap   float64
}

// SolveBalance measures how the factorization assignment balances the
// solve phase, block (g=25) vs wrap.
func SolveBalance(problems []*Problem) ([]SolveRow, error) {
	return overSuite(problems, DefaultProcs, func(p *Problem, np int) ([]SolveRow, error) {
		block, wrap, err := p.pair(np)
		if err != nil {
			return nil, err
		}
		solveW := model.SolveElementWork(p.F)
		bs, ws := block.S1, wrap.S1
		bSolve := bs.AccumulateElemWork(solveW)
		combined := make([]int64, np)
		for q := range combined {
			combined[q] = bs.Work[q] + bSolve[q]
		}
		return []SolveRow{{
			Name: p.Meta.Name, P: np,
			FactorABlock: bs.Imbalance(), SolveABlock: sched.ImbalanceOf(bSolve),
			CombinedABlock: sched.ImbalanceOf(combined),
			FactorAWrap:    ws.Imbalance(), SolveAWrap: sched.ImbalanceOf(ws.AccumulateElemWork(solveW)),
		}}, nil
	})
}

// FormatSolveBalance renders the solve-phase study.
func FormatSolveBalance(rows []SolveRow) string {
	return text("Ext-G: Triangular-solve load balance under the factorization assignment (block g=25)\n",
		"Appl\tP\tA factor (block)\tA solve (block)\tA combined\tA factor (wrap)\tA solve (wrap)", rows,
		func(r SolveRow) string {
			return fmt.Sprintf("%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f",
				r.Name, r.P, r.FactorABlock, r.SolveABlock, r.CombinedABlock, r.FactorAWrap, r.SolveAWrap)
		})
}

// DynamicRow compares static scan-order execution with dynamic
// critical-path execution (Ext-H).
type DynamicRow struct {
	Name                  string
	P                     int
	Scheme                string
	StaticEff, DynamicEff float64
	CritPathEff           float64 // upper bound: TotalWork / (P * CritPath)
}

// DynamicCompare measures how much a dynamic ready-queue recovers over
// static scan-order execution for the block scheme (g=25) and wrap.
func DynamicCompare(problems []*Problem) ([]DynamicRow, error) {
	return overSuite(problems, DefaultProcs, func(p *Problem, np int) ([]DynamicRow, error) {
		block, wrap, err := p.pair(np)
		if err != nil {
			return nil, err
		}
		row := func(scheme string, pl *pipeline.Plan) DynamicRow {
			st := pl.Makespan()
			return DynamicRow{
				Name: p.Meta.Name, P: np, Scheme: scheme,
				StaticEff:   st.Efficiency,
				DynamicEff:  pl.Simulate(exec.SimOptions{Dynamic: true}).Efficiency,
				CritPathEff: exec.Efficiency(np, exec.CriticalPath(pl.Tasks), st.TotalWork),
			}
		}
		return []DynamicRow{row("block g=25", block), row("wrap", wrap)}, nil
	})
}

// FormatDynamicCompare renders the static-vs-dynamic execution study.
func FormatDynamicCompare(rows []DynamicRow) string {
	return text("Ext-H: Static scan-order vs dynamic critical-path execution\n",
		"Appl\tP\tScheme\tEff static\tEff dynamic\tEff bound (CP)", rows,
		func(r DynamicRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%.3f\t%.3f\t%.3f",
				r.Name, r.P, r.Scheme, r.StaticEff, r.DynamicEff, r.CritPathEff)
		})
}

// CrossoverRow is one machine point of the block-vs-wrap crossover study
// (Ext-I). The paper's Section 4 argues that "if the application is run on
// a system with high communication cost as compared to computation cost,
// the block-based partitioning can give good performance, i.e. the savings
// in communication will more than offset the disadvantage of load
// imbalance". Modeling per-processor time as
//
//	T = Wmax + commCost * maxPerProcTraffic
//
// (work units per flop-pair, commCost work units per fetched element)
// makes that claim quantitative: the study sweeps commCost and reports the
// estimated times and the winner.
type CrossoverRow struct {
	CommCost  float64
	BlockTime float64 // block mapping, g=25
	WrapTime  float64
	Winner    string
}

// Crossover sweeps the communication/computation cost ratio for one
// problem and processor count. point is the communication cost at which
// the block scheme begins to beat wrap under the closed-form model: -1 if
// block never wins, 0 if it always does.
func Crossover(p *Problem, np int, costs []float64) (rows []CrossoverRow, point float64, err error) {
	block, wrap, err := p.pair(np)
	if err != nil {
		return nil, 0, err
	}
	bWork, bComm := float64(block.S1.MaxWork()), float64(block.Traffic().MaxPerProc())
	wWork, wComm := float64(wrap.S1.MaxWork()), float64(wrap.Traffic().MaxPerProc())
	for _, c := range costs {
		bt, wt := bWork+c*bComm, wWork+c*wComm
		rows = append(rows, CrossoverRow{CommCost: c, BlockTime: bt, WrapTime: wt, Winner: winner[bt < wt]})
	}
	// dw is block's balance penalty, dc its traffic saving.
	switch dw, dc := bWork-wWork, wComm-bComm; {
	case dc <= 0:
		point = -1
	case dw > 0:
		point = dw / dc
	}
	return rows, point, nil
}

// winner names the faster mapping of a block-vs-wrap comparison, keyed by
// whether block wins.
var winner = map[bool]string{true: "block", false: "wrap"}

// FormatCrossover renders the machine-parameter study.
func FormatCrossover(name string, np int, rows []CrossoverRow, point float64) string {
	return text(fmt.Sprintf("Ext-I: Block-vs-wrap crossover, %s, P=%d (T = Wmax + c*maxTraffic)\n", name, np),
		"Comm cost c\tBlock time\tWrap time\tWinner", rows,
		func(r CrossoverRow) string {
			return fmt.Sprintf("%.2f\t%.0f\t%.0f\t%s", r.CommCost, r.BlockTime, r.WrapTime, r.Winner)
		}) + fmt.Sprintf("crossover at c = %.2f work units per fetched element\n", point)
}

// MessageRow reports the consolidation study (Ext-K): the fifth step of
// the paper's pipeline, grouping element fetches into messages.
type MessageRow struct {
	Name                        string
	P                           int
	BlockMsgs, WrapMsgs         int64
	BlockVolume, WrapVolume     int64
	BlockMeanSize, WrapMeanSize float64
}

// Messages runs the consolidation for block (g=25) and wrap schedules.
func Messages(problems []*Problem) ([]MessageRow, error) {
	return overSuite(problems, DefaultProcs, func(p *Problem, np int) ([]MessageRow, error) {
		block, wrap, err := p.pair(np)
		if err != nil {
			return nil, err
		}
		b := traffic.Consolidate(p.An.Ops, block.S1, p.An.Sys().Partition(block.Opts.Part).ElemUnit)
		w := traffic.Consolidate(p.An.Ops, wrap.S1, p.An.Ops.F.ColIndex())
		return []MessageRow{{
			Name: p.Meta.Name, P: np,
			BlockMsgs: b.Messages, WrapMsgs: w.Messages,
			BlockVolume: b.Elements, WrapVolume: w.Elements,
			BlockMeanSize: b.MeanSize, WrapMeanSize: w.MeanSize,
		}}, nil
	})
}

// FormatMessages renders the consolidation study.
func FormatMessages(rows []MessageRow) string {
	return text("Ext-K: Message consolidation (paper pipeline step 5), block g=25 vs wrap\n",
		"Appl\tP\tBlock msgs\tWrap msgs\tBlock vol\tWrap vol\tBlock mean size\tWrap mean size", rows,
		func(r MessageRow) string {
			return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f",
				r.Name, r.P, r.BlockMsgs, r.WrapMsgs, r.BlockVolume, r.WrapVolume, r.BlockMeanSize, r.WrapMeanSize)
		})
}

// CommMakespanRow is one point of the communication-aware makespan study
// (Ext-L): task durations include c work units per fetched element, so
// traffic and load balance combine into one simulated time.
type CommMakespanRow struct {
	Name                string
	P                   int
	CommCost            float64
	BlockSpan, WrapSpan int64
	Winner              string
}

// CommMakespan sweeps the per-element communication cost and simulates
// dynamic execution with communication-inflated task durations.
func CommMakespan(p *Problem, np int, costs []float64) ([]CommMakespanRow, error) {
	block, wrap, err := p.pair(np)
	if err != nil {
		return nil, err
	}
	var rows []CommMakespanRow
	for _, c := range costs {
		sim := exec.SimOptions{Dynamic: true, Comm: exec.CommModel{Alpha: c}}
		bspan, wspan := block.Simulate(sim).Makespan, wrap.Simulate(sim).Makespan
		rows = append(rows, CommMakespanRow{
			Name: p.Meta.Name, P: np, CommCost: c,
			BlockSpan: bspan, WrapSpan: wspan, Winner: winner[bspan < wspan],
		})
	}
	return rows, nil
}

// FormatCommMakespan renders the communication-aware makespan study.
func FormatCommMakespan(name string, np int, rows []CommMakespanRow) string {
	return text(fmt.Sprintf("Ext-L: Communication-aware makespan (dynamic exec), %s, P=%d, g=25\n", name, np),
		"Comm cost c\tBlock makespan\tWrap makespan\tWinner", rows,
		func(r CommMakespanRow) string {
			return fmt.Sprintf("%.1f\t%d\t%d\t%s", r.CommCost, r.BlockSpan, r.WrapSpan, r.Winner)
		})
}
