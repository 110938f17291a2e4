package main

import "time"

// studyWL is the paper's experiment on two held patterns — LAP30, regular
// and the paper's flagship, and BUS1138, tree-like with almost no fill:
// every registered strategy at every simulated processor count, planned
// and scored. Nothing numeric runs; the block partitioner, the mappers,
// the traffic model and the makespan simulators do all the work. The
// analysis is fresh every round, so the partitioner runs every round too.
type studyWL struct {
	cfg    config
	mats   []named
	sweeps map[string][]cell // the cells of the round's three operations

	planCounts
}

func (w *studyWL) setup(int64) error {
	// The 1D sweep, the 2D sweep, and both registries at the two
	// processors this machine has.
	p2 := append(w.sweep1D([]int{reqProcs}), sweep2D([]int{reqProcs})...)
	w.sweeps = map[string][]cell{"request": w.sweep1D(w.cfg.Procs1D), "variant": sweep2D(w.cfg.Procs2D), "p2": p2}
	if !w.cfg.Suite {
		w.mats = []named{
			{name: "LAP30", a: grid9(w.cfg.Lap)},
			{name: "BUS1138", a: powerBus(w.cfg.BusN, w.cfg.BusExtra, 1138)},
		}
		return nil
	}
	for _, m := range suite() {
		if m.name == "LAP30" || m.name == "BUS1138" {
			w.mats = append(w.mats, m)
		}
	}
	return nil
}

// cell is one (strategy, options, P) point of a sweep.
type cell struct {
	name string
	opts options
	p    int
	dim2 bool
}

// sweep1D is every registered 1D strategy at every P, plus the paper's
// block scheme at its second grain (the first, g = 4, is the default).
func (w *studyWL) sweep1D(procs []int) []cell {
	var cells []cell
	for _, p := range procs {
		for _, name := range strategyNames() {
			cells = append(cells, cell{name: name, p: p})
		}
		cells = append(cells, cell{name: "block", opts: grainOptions(w.cfg.Grain), p: p})
	}
	return cells
}

func sweep2D(procs []int) []cell {
	var cells []cell
	for _, p := range procs {
		for _, name := range names2D() {
			cells = append(cells, cell{name: name, p: p, dim2: true})
		}
	}
	return cells
}

// scored is a planned cell with the numbers the study reads off it.
type scored struct {
	cell
	an             *analysis
	pl             *plan
	err            error
	span, spanComm int64
	traffic        int64
}

func planCell(an *analysis, c cell) scored {
	s := scored{cell: c, an: an}
	if c.dim2 {
		s.pl, s.err = analysisPlan2D(an, c.name, c.p, c.opts)
	} else {
		s.pl, s.err = analysisPlan(an, c.name, c.p, c.opts)
	}
	if s.err == nil {
		s.span, s.spanComm, s.traffic = planMakespan(s.pl), planMakespanComm(s.pl), planTraffic(s.pl)
	}
	return s
}

func (w *studyWL) analyses(r *recorder) []*analysis {
	var ans []*analysis
	for _, m := range w.mats {
		an, err := newAnalysis(m.a)
		if err != nil {
			r.check(false, "NewAnalysis %s: %v", m.name, err)
			continue
		}
		ans = append(ans, an)
	}
	return ans
}

func (w *studyWL) round(r *recorder, warmup bool) {
	ans := w.analyses(r)
	var tw, sw int64
	for _, op := range []string{"request", "variant", "p2"} {
		// A sweep is one request; its cells are timed one by one.
		var done []scored
		for _, an := range ans {
			for _, c := range w.sweeps[op] {
				t0 := time.Now()
				s := planCell(an, c)
				d := time.Since(t0)
				first := 0 // the sweep is one request, counted with its first cell
				if len(done) == 0 {
					first = 1
				}
				r.add(op, d, first)
				done = append(done, s)
			}
		}
		for _, s := range done {
			r.check(s.err == nil && s.spanComm >= s.span && s.span > 0, "%s P=%d: %v", s.name, s.p, s.err)
			tw += s.traffic
			sw += s.spanComm
			if warmup && s.err == nil && !s.dim2 {
				// The plan's fetch attribution must conserve the traffic
				// model's total; one simulation per cell is too dear for
				// every round, and the mappers are deterministic.
				_, sys, _, _ := analysisParts(s.an)
				sim := trafficWords(sys, s.opts, planSchedule(s.pl))
				r.check(s.traffic == sim, "%s P=%d: TrafficTotal %d, traffic.Simulate %d", s.name, s.p, s.traffic, sim)
			}
		}
	}
	if warmup {
		w.trafficWords, w.spanWork = tw, sw
	}
	r.check(tw == w.trafficWords && sw == w.spanWork, "study counts changed between rounds: traffic %d→%d, span %d→%d", w.trafficWords, tw, w.spanWork, sw)
}

// traced plans every cell twice: through the opaque Analysis.Plan[2D], and
// as the mapper, task-graph and fetch-attribution calls it makes; the
// simulators and the traffic model run on the opaque plan.
func (w *studyWL) traced(t *tracer, r *recorder) {
	var ans []*analysis
	for _, m := range w.mats {
		var an *analysis
		var err error
		t.call("pipeline.analysis", 0, 0, func() int64 { an, err = newAnalysis(m.a); return nnz(m.a) })
		if err != nil {
			r.check(false, "NewAnalysis %s: %v", m.name, err)
			continue
		}
		f, _, _, _ := analysisParts(an)
		for _, g := range []int{0, w.cfg.Grain} {
			t.call("core.partition", 0, 0, func() int64 { return int64(partitionUnits(f, g)) })
		}
		ans = append(ans, an)
	}
	req := t.round * 1000
	for _, op := range []string{"request", "variant", "p2"} {
		for _, an := range ans {
			for _, c := range w.sweeps[op] {
				req++
				w.tracedCell(t, r, req, an, c)
			}
		}
	}
}

func (w *studyWL) tracedCell(t *tracer, r *recorder, req int, an *analysis, c cell) {
	_, sys, _, _ := analysisParts(an)
	var s scored
	t.call("request.opaque", 0, req, func() int64 { s = planCell(an, c); return 0 })
	if s.err != nil {
		r.check(false, "%s P=%d: %v", c.name, c.p, s.err)
		return
	}

	var sc *schedule
	fetched, err := func() (fetched int64, err error) {
		root := t.begin("request.reenact", 0, req)
		defer t.end(root, 0)
		if c.dim2 {
			var s2 *schedule2D
			t.call("part2d.map."+c.name, root, req, func() int64 { s2, err = map2D(c.name, sys, c.p, c.opts); return 0 })
			if err != nil {
				return 0, err
			}
			var tasks []task
			var elemTask []int32
			t.call("part2d.tasks", root, req, func() int64 { tasks, elemTask = tasks2D(an, s2); return int64(len(tasks)) })
			t.call("part2d.fetch", root, req, func() int64 { fetched = fetch2D(an, s2, tasks, elemTask); return fetched })
		} else {
			t.call("strategy.map."+c.name, root, req, func() int64 { sc, err = strategyMap(c.name, sys, c.p, c.opts); return 0 })
			if err != nil {
				return 0, err
			}
			t.call("strategy.tasks", root, req, func() int64 { return int64(len(strategyTasks(sys, c.opts, sc))) })
			t.call("strategy.fetch", root, req, func() int64 { fetched = strategyFetch(sys, c.opts, sc); return fetched })
		}
		// The simulators score the opaque plan: the re-enacted schedule
		// is the same one (checked below through its fetch volume).
		t.call("exec.sim_static", root, req, func() int64 { planMakespan(s.pl); return planTasks(s.pl) })
		t.call("exec.sim_comm", root, req, func() int64 { planMakespanComm(s.pl); return planTasks(s.pl) })
		return fetched, nil
	}()
	r.check(err == nil && fetched == s.traffic, "re-enacted %s P=%d: fetch volume %d, plan's %d (%v)", c.name, c.p, fetched, s.traffic, err)
	if sc != nil {
		var sim int64
		t.call("traffic.simulate", 0, req, func() int64 { sim = trafficWords(sys, c.opts, sc); return sim })
		r.check(s.traffic == sim, "%s P=%d: TrafficTotal %d, traffic.Simulate %d", c.name, c.p, s.traffic, sim)
	}
}

func (w *studyWL) finish(*recorder, *tracer) {}
