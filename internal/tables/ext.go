package tables

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/sched"
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
func RelaxSweep(tm gen.TestMatrix, procs, grain int, fracs []float64) ([]RelaxRow, error) {
	if procs < 1 {
		return nil, fmt.Errorf("tables: invalid processor count %d", procs)
	}
	a := tm.Build()
	perm := order.MMD(a)
	perm, err := symbolic.PostOrderPerm(a, perm)
	if err != nil {
		return nil, err
	}
	pm, err := a.Permute(perm)
	if err != nil {
		return nil, err
	}
	f := symbolic.Analyze(pm)
	var rows []RelaxRow
	for _, frac := range fracs {
		part := core.NewPartition(f, core.Options{
			Grain: grain, MinClusterWidth: DefaultWidth, RelaxZeros: frac,
		})
		s := sched.BlockMap(part, procs)
		r := traffic.Simulate(model.NewOps(part.F), s)
		sn := part.F.Supernodes()
		rows = append(rows, RelaxRow{
			Frac: frac, Merges: part.Relax.Merges, PaddedNNZ: part.Relax.PaddedNNZ,
			Supernodes: len(sn) - 1, Units: len(part.Units),
			Traffic: r.Total, A: s.Imbalance(), TotalWork: part.TotalWork,
		})
	}
	return rows, nil
}

// FormatRelaxSweep renders the relaxation ablation.
func FormatRelaxSweep(name string, procs, grain int, rows []RelaxRow) string {
	mustProcs(procs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-D: Cluster relaxation (allowed zeros), %s postordered, P=%d, g=%d\n",
		name, procs, grain)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Frac\tMerges\tPadded nnz\tSupernodes\tUnits\tTraffic\tA\tTotal work")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%d\t%d\t%d\t%d\t%d\t%.2f\t%d\n",
			r.Frac, r.Merges, r.PaddedNNZ, r.Supernodes, r.Units, r.Traffic, r.A, r.TotalWork)
	}
	w.Flush()
	return sb.String()
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
func AllocCompare(problems []*Problem) []AllocRow {
	var rows []AllocRow
	for _, p := range problems {
		for _, np := range DefaultProcs {
			part := p.Part(25, DefaultWidth)
			s34 := sched.BlockMap(part, np)
			sgr := sched.BlockMapGreedy(part, np)
			r34 := traffic.Simulate(p.Ops, s34)
			rgr := traffic.Simulate(p.Ops, sgr)
			rows = append(rows, AllocRow{
				Name: p.Meta.Name, P: np,
				A34: s34.Imbalance(), AGreedy: sgr.Imbalance(),
				Traffic34: r34.Total, TrafficGreedy: rgr.Total,
			})
		}
	}
	return rows
}

// FormatAllocCompare renders the allocator ablation.
func FormatAllocCompare(rows []AllocRow) string {
	var sb strings.Builder
	sb.WriteString("Ext-E: Allocator ablation (Section 3.4 vs work-aware greedy), g=25\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tA §3.4\tA greedy\tTraffic §3.4\tTraffic greedy")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%d\t%d\n",
			r.Name, r.P, r.A34, r.AGreedy, r.Traffic34, r.TrafficGreedy)
	}
	w.Flush()
	return sb.String()
}

// OrderRow compares fill-reducing orderings end to end (Ext-F).
type OrderRow struct {
	Ordering     string
	FactorNNZ    int
	TotalWork    int64
	WrapTraffic  int64 // P=16
	BlockTraffic int64 // P=16, g=25
	BlockA       float64
}

// OrderCompare runs the pipeline for natural, RCM, MMD, postordered MMD
// and nested dissection orderings of one matrix.
func OrderCompare(tm gen.TestMatrix, procs int) ([]OrderRow, error) {
	if procs < 1 {
		return nil, fmt.Errorf("tables: invalid processor count %d", procs)
	}
	a := tm.Build()
	mmd := order.MMD(a)
	post, err := symbolic.PostOrderPerm(a, mmd)
	if err != nil {
		return nil, err
	}
	orderings := []struct {
		name string
		perm []int
	}{
		{"natural", order.Natural(a.N)},
		{"RCM", order.RCM(a)},
		{"MMD", mmd},
		{"MMD+post", post},
		{"ND", order.NestedDissection(a, 32)},
	}
	var rows []OrderRow
	for _, o := range orderings {
		pm, err := a.Permute(o.perm)
		if err != nil {
			return nil, err
		}
		f := symbolic.Analyze(pm)
		ops := model.NewOps(f)
		ew := model.ElementWork(ops)
		part := core.NewPartition(f, core.Options{Grain: 25, MinClusterWidth: DefaultWidth})
		bs := sched.BlockMap(part, procs)
		rows = append(rows, OrderRow{
			Ordering:     o.name,
			FactorNNZ:    f.NNZ(),
			TotalWork:    model.TotalWork(ew),
			WrapTraffic:  traffic.Simulate(ops, sched.WrapMap(f, ew, procs)).Total,
			BlockTraffic: traffic.Simulate(ops, bs).Total,
			BlockA:       bs.Imbalance(),
		})
	}
	return rows, nil
}

// FormatOrderCompare renders the ordering ablation.
func FormatOrderCompare(name string, procs int, rows []OrderRow) string {
	mustProcs(procs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-F: Ordering ablation, %s, P=%d (block at g=25)\n", name, procs)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ordering\tnnz(L)\tTotal work\tWrap traffic\tBlock traffic\tBlock A")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\n",
			r.Ordering, r.FactorNNZ, r.TotalWork, r.WrapTraffic, r.BlockTraffic, r.BlockA)
	}
	w.Flush()
	return sb.String()
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
func SolveBalance(problems []*Problem) []SolveRow {
	var rows []SolveRow
	for _, p := range problems {
		solveW := model.SolveElementWork(p.F)
		for _, np := range DefaultProcs {
			bs, _ := p.Block(25, DefaultWidth, np)
			ws, _ := p.Wrap(np)
			bSolve := bs.AccumulateElemWork(solveW)
			wSolve := ws.AccumulateElemWork(solveW)
			combined := make([]int64, np)
			for q := range combined {
				combined[q] = bs.Work[q] + bSolve[q]
			}
			rows = append(rows, SolveRow{
				Name: p.Meta.Name, P: np,
				FactorABlock: bs.Imbalance(), SolveABlock: sched.ImbalanceOf(bSolve),
				CombinedABlock: sched.ImbalanceOf(combined),
				FactorAWrap:    ws.Imbalance(), SolveAWrap: sched.ImbalanceOf(wSolve),
			})
		}
	}
	return rows
}

// FormatSolveBalance renders the solve-phase study.
func FormatSolveBalance(rows []SolveRow) string {
	var sb strings.Builder
	sb.WriteString("Ext-G: Triangular-solve load balance under the factorization assignment (block g=25)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tA factor (block)\tA solve (block)\tA combined\tA factor (wrap)\tA solve (wrap)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Name, r.P, r.FactorABlock, r.SolveABlock, r.CombinedABlock, r.FactorAWrap, r.SolveAWrap)
	}
	w.Flush()
	return sb.String()
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
func DynamicCompare(problems []*Problem) []DynamicRow {
	var rows []DynamicRow
	for _, p := range problems {
		for _, np := range DefaultProcs {
			part := p.Part(25, DefaultWidth)
			bs := sched.BlockMap(part, np)
			tasks := exec.BlockTasks(part, bs)
			st := exec.Simulate(tasks, np, exec.SimOptions{})
			dy := exec.Simulate(tasks, np, exec.SimOptions{Dynamic: true})
			cp := exec.CriticalPath(tasks)
			rows = append(rows, DynamicRow{
				Name: p.Meta.Name, P: np, Scheme: "block g=25",
				StaticEff: st.Efficiency, DynamicEff: dy.Efficiency,
				CritPathEff: exec.Efficiency(np, cp, st.TotalWork),
			})
			wtasks := exec.ColumnTasks(p.F, p.Ops, p.ElemWork, np)
			wst := exec.Simulate(wtasks, np, exec.SimOptions{})
			wdy := exec.Simulate(wtasks, np, exec.SimOptions{Dynamic: true})
			wcp := exec.CriticalPath(wtasks)
			rows = append(rows, DynamicRow{
				Name: p.Meta.Name, P: np, Scheme: "wrap",
				StaticEff: wst.Efficiency, DynamicEff: wdy.Efficiency,
				CritPathEff: exec.Efficiency(np, wcp, wst.TotalWork),
			})
		}
	}
	return rows
}

// FormatDynamicCompare renders the static-vs-dynamic execution study.
func FormatDynamicCompare(rows []DynamicRow) string {
	var sb strings.Builder
	sb.WriteString("Ext-H: Static scan-order vs dynamic critical-path execution\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tScheme\tEff static\tEff dynamic\tEff bound (CP)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%.3f\t%.3f\t%.3f\n",
			r.Name, r.P, r.Scheme, r.StaticEff, r.DynamicEff, r.CritPathEff)
	}
	w.Flush()
	return sb.String()
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
// problem and processor count.
func Crossover(p *Problem, procs int, costs []float64) []CrossoverRow {
	mustProcs(procs)
	bs, br := p.Block(25, DefaultWidth, procs)
	ws, wr := p.Wrap(procs)
	var rows []CrossoverRow
	for _, c := range costs {
		bt := float64(bs.MaxWork()) + c*float64(br.MaxPerProc())
		wt := float64(ws.MaxWork()) + c*float64(wr.MaxPerProc())
		winner := "wrap"
		if bt < wt {
			winner = "block"
		}
		rows = append(rows, CrossoverRow{CommCost: c, BlockTime: bt, WrapTime: wt, Winner: winner})
	}
	return rows
}

// CrossoverPoint returns the communication cost at which the block scheme
// begins to beat wrap (binary search over the closed-form model), or -1 if
// it always/never wins on the probed range.
func CrossoverPoint(p *Problem, procs int) float64 {
	mustProcs(procs)
	bs, br := p.Block(25, DefaultWidth, procs)
	ws, wr := p.Wrap(procs)
	dw := float64(bs.MaxWork() - ws.MaxWork())       // block's balance penalty
	dc := float64(wr.MaxPerProc() - br.MaxPerProc()) // block's traffic saving
	if dc <= 0 {
		return -1 // block never wins
	}
	if dw <= 0 {
		return 0 // block always wins
	}
	return dw / dc
}

// FormatCrossover renders the machine-parameter study.
func FormatCrossover(name string, procs int, rows []CrossoverRow, point float64) string {
	mustProcs(procs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-I: Block-vs-wrap crossover, %s, P=%d (T = Wmax + c*maxTraffic)\n", name, procs)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Comm cost c\tBlock time\tWrap time\tWinner")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%.0f\t%.0f\t%s\n", r.CommCost, r.BlockTime, r.WrapTime, r.Winner)
	}
	w.Flush()
	fmt.Fprintf(&sb, "crossover at c = %.2f work units per fetched element\n", point)
	return sb.String()
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
func Messages(problems []*Problem) []MessageRow {
	var rows []MessageRow
	for _, p := range problems {
		for _, np := range DefaultProcs {
			part := p.Part(25, DefaultWidth)
			bs := sched.BlockMap(part, np)
			ws := sched.WrapMap(p.F, p.ElemWork, np)
			b := traffic.Consolidate(part, p.Ops, bs)
			w := traffic.ConsolidateColumns(p.Ops, ws)
			rows = append(rows, MessageRow{
				Name: p.Meta.Name, P: np,
				BlockMsgs: b.Messages, WrapMsgs: w.Messages,
				BlockVolume: b.Elements, WrapVolume: w.Elements,
				BlockMeanSize: b.MeanSize, WrapMeanSize: w.MeanSize,
			})
		}
	}
	return rows
}

// FormatMessages renders the consolidation study.
func FormatMessages(rows []MessageRow) string {
	var sb strings.Builder
	sb.WriteString("Ext-K: Message consolidation (paper pipeline step 5), block g=25 vs wrap\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tBlock msgs\tWrap msgs\tBlock vol\tWrap vol\tBlock mean size\tWrap mean size")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\n",
			r.Name, r.P, r.BlockMsgs, r.WrapMsgs, r.BlockVolume, r.WrapVolume,
			r.BlockMeanSize, r.WrapMeanSize)
	}
	w.Flush()
	return sb.String()
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
func CommMakespan(p *Problem, procs int, costs []float64) []CommMakespanRow {
	mustProcs(procs)
	part := p.Part(25, DefaultWidth)
	bs := sched.BlockMap(part, procs)
	bVol := traffic.FetchVolumes(part, p.Ops, bs)
	bTasks := exec.BlockTasks(part, bs)
	ws := sched.WrapMap(p.F, p.ElemWork, procs)
	wVol := traffic.FetchVolumesColumns(p.Ops, ws)
	wTasks := exec.ColumnTasks(p.F, p.Ops, p.ElemWork, procs)
	var rows []CommMakespanRow
	for _, c := range costs {
		cm := exec.CommModel{Alpha: c}
		bspan := exec.Simulate(bTasks, procs, exec.SimOptions{Dynamic: true, Comm: cm, Vol: bVol}).Makespan
		wspan := exec.Simulate(wTasks, procs, exec.SimOptions{Dynamic: true, Comm: cm, Vol: wVol}).Makespan
		winner := "wrap"
		if bspan < wspan {
			winner = "block"
		}
		rows = append(rows, CommMakespanRow{
			Name: p.Meta.Name, P: procs, CommCost: c,
			BlockSpan: bspan, WrapSpan: wspan, Winner: winner,
		})
	}
	return rows
}

// FormatCommMakespan renders the communication-aware makespan study.
func FormatCommMakespan(name string, procs int, rows []CommMakespanRow) string {
	mustProcs(procs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-L: Communication-aware makespan (dynamic exec), %s, P=%d, g=25\n", name, procs)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Comm cost c\tBlock makespan\tWrap makespan\tWinner")
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f\t%d\t%d\t%s\n", r.CommCost, r.BlockSpan, r.WrapSpan, r.Winner)
	}
	w.Flush()
	return sb.String()
}
