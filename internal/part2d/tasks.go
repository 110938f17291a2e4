package part2d

import (
	"fmt"
	"math/bits"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// Tasks builds the makespan task graph of a 2D schedule and its
// element-to-task map, nil for a column graph (task j is column j). The
// granularity is the merged tile segment: for every target column, its
// row-block segments are grouped by owning processor and each group is
// one task (a processor computes all of its elements of a target column
// as one unit, so no dependency separates two segments it owns). Tasks are numbered column by column, within a column
// in the order their processors first appear going down its rows.
// Dependencies follow the fan-out/fan-in structure of the tile updates:
// the task of target (i, j) depends on the tasks of its pair-update
// sources (i, k) (fan-out along block row block(i)) and (j, k) (fan-in
// along block column block(j)), and every off-diagonal group of a column
// depends on the column's diagonal group (the scale).
//
// On a column-granular tiling — every tile of a block column on the
// owner of its diagonal tile, as produced by the col2d lift — each column
// collapses to a single group whose work is the column work and whose
// predecessor set is the column's row structure, which
// exec.ColumnTasksMapped's graph orders alike waiting on the column's
// elimination-tree children only. exec.Simulate is therefore
// bit-identical on a lift and on its 1D schedule, which the regression
// tests pin at P in {1, 4, 16}. The constructor reads that case off the
// tile owners once, in O(tiles), never assumed from the mapper, and Tasks
// answers it with exec.ColumnTasksMapped's graph over those column owners
// and a nil element map, which is how exec.Compile and FetchStats take a
// column graph.
//
// Any other schedule is priced by row-block segment, not by update (see
// segments): every update of the run (j, k) that reads one segment S of
// source column k writes rows of one segment of column j, so the run adds
// one (target task, source task) pair per segment it reads, plus the
// multiplier's. That is O(nnz(L) + segment visits) time, and the
// predecessor lists are cut from one shared slice.
func Tasks(ops *model.Ops, elemWork []uint32, s *Schedule2D) ([]exec.Task, []int32) {
	f := ops.F
	if s.colProc != nil {
		return exec.ColumnTasksMapped(f, elemWork, s.colProc), nil
	}
	return segmentTasks(ops, elemWork, s)
}

// segmentTasks is Tasks' segment pass, on any schedule.
func segmentTasks(ops *model.Ops, elemWork []uint32, s *Schedule2D) ([]exec.Task, []int32) {
	sg := tileSegments(ops.F, s)
	tasks, elemTask, first, rel := sg.tasks(elemWork)
	sg.preds(ops, tasks, first, rel)
	return tasks, elemTask
}

// FetchStats attributes the 2D schedule's non-local fetches to the merged
// tile-segment tasks of Tasks, with consolidated message counts (one
// message per distinct source processor feeding a task). The volumes
// partition Traffic(ops, s).Total exactly — the property that lets
// exec.Simulate under a CommModel charge every fetch exactly once.
//
// A nil task map, what Tasks returns for a column-granular schedule,
// declares the column graph (task j is column j): the attribution is
// traffic.FetchStats of the Schedule bridge, the closed form on the column
// owners, task by task the element walk's answer. FetchStats panics on a
// nil map for a schedule that is not column-granular. Any other task map
// must be constant on every row-block segment with tasks in [0, ntasks) —
// every map Tasks returns is — and takes the segment pass, task by task
// the walk's answer; FetchStats panics on a map that splits a segment.
func FetchStats(ops *model.Ops, s *Schedule2D, ntasks int, elemTask []int32) *traffic.TaskComm {
	f := ops.F
	if elemTask == nil {
		if s.colProc == nil || ntasks != f.N {
			panic(fmt.Sprintf("part2d: a nil task map needs a column-granular schedule and one task per column (%d tasks, %d columns)", ntasks, f.N))
		}
		return traffic.FetchStats(s.Schedule())
	}
	sg := tileSegments(f, s)
	segTask := sg.taskOf(elemTask, ntasks)
	vol, ch := make([]int64, len(segTask)), traffic.NewCharger(s.P, ntasks, nil)
	sg.fetches(f, s.P, vol, vol, &ch, segTask)
	tc := ch.Done()
	for u, t := range segTask {
		tc.Vol[t] += vol[u]
	}
	return tc
}

// segments cuts every column of the factor into its row-block segments:
// the maximal runs of positions whose rows share one row block. Column j's
// segments are u in [col[j], col[j+1]), rows ascending, so its first
// segment holds the diagonal and has block blockOf[j]; segment u covers
// positions [start[u], start[u+1]) (start carries a sentinel nnz(L)) and
// is owned by proc[u], the owner of its tile (block[u], blockOf[j]).
//
// Every element (i, j) of a schedule is owned by the owner of tile
// (block(i), block(j)), and the segment passes rest on three facts the
// fill theorem gives:
//
//   - The run (j, k) — the pair updates source column k makes to target
//     column j — reads the segments of struct(k) from row j down (the
//     first one from row j on). Segment S of block b is owned by
//     o = owner(b, block(k)), and every row of S is a row of column j in
//     block b, owned by p = owner(b, block(j)): one column-j segment.
//   - The runs of one source column come in increasing j, and every row j
//     of one segment g of struct(k) has block(j) = block(g). So every run
//     of g reads each later segment S on the same processor, and the
//     first of them (g's leader, its first row) reads all of S: a
//     processor's reads of S are nested suffixes, and its first read of S
//     is at the leader of the first segment g <= S whose rows make it
//     S's target owner.
//   - The multiplier (j, k) lies in the segment g holding row j. A target
//     owner of the run fetches it separately only when it neither owns g
//     nor has read g — the same test for every run of g.
type segments struct {
	col, start, block, proc []int32
}

// tileSegments cuts f, the factor s was built over, by s's tile index in
// one pass over the row indices.
func tileSegments(f *symbolic.Factor, s *Schedule2D) *segments {
	nnz := f.NNZ()
	sg := &segments{
		col:   make([]int32, f.N+1),
		start: make([]int32, 0, nnz+1),
		block: make([]int32, 0, nnz),
		proc:  make([]int32, 0, nnz),
	}
	// slot[rb] is the tile of row block rb in the current block column.
	slot := make([]int32, s.R())
	for j := 0; j < f.N; j++ {
		if c := s.blockOf[j]; j == 0 || c != s.blockOf[j-1] {
			for t := s.tilePtr[c]; t < s.tilePtr[c+1]; t++ {
				slot[s.tileRow[t]] = t
			}
		}
		for q, z := f.ColPtr[j], f.ColPtr[j+1]; q < z; {
			b := s.blockOf[f.RowInd[q]]
			sg.start = append(sg.start, int32(q))
			sg.block = append(sg.block, b)
			sg.proc = append(sg.proc, s.owner[slot[b]])
			for e := s.bounds[b+1]; q < z && int(f.RowInd[q]) < e; {
				q++
			}
		}
		sg.col[j+1] = int32(len(sg.block))
	}
	sg.start = append(sg.start, int32(nnz))
	return sg
}

// longest returns the most segments of one column.
func (sg *segments) longest() int {
	m := int32(0)
	for j := 0; j+1 < len(sg.col); j++ {
		m = max(m, sg.col[j+1]-sg.col[j])
	}
	return int(m)
}

// taskOf returns the task of every segment under the element-to-task map
// elemTask, which must cover the factor, be constant on every segment and
// name tasks in [0, ntasks) — what lets the fetch pass charge a segment's
// fetches to one task. It panics on any other map.
func (sg *segments) taskOf(elemTask []int32, ntasks int) []int32 {
	if len(elemTask) != int(sg.start[len(sg.block)]) {
		panic(fmt.Sprintf("part2d: task map covers %d elements, factor has %d", len(elemTask), sg.start[len(sg.block)]))
	}
	segTask := make([]int32, len(sg.block))
	for u := range segTask {
		t := elemTask[sg.start[u]]
		if t < 0 || int(t) >= ntasks {
			panic(fmt.Sprintf("part2d: element %d mapped to task %d of %d", sg.start[u], t, ntasks))
		}
		for _, x := range elemTask[sg.start[u]+1 : sg.start[u+1]] {
			if x != t {
				panic(fmt.Sprintf("part2d: task map splits the row-block segment at element %d", sg.start[u]))
			}
		}
		segTask[u] = t
	}
	return segTask
}

// tasks groups every column's segments by owner into tasks: their Proc
// and Work, and the task of every element. Column j's tasks are [first[j],
// first[j+1]), numbered as their owners first appear going down the
// column, and segment u's task is first[j] + rel[u]. Predecessors are left
// to preds.
func (sg *segments) tasks(elemWork []uint32) (tasks []exec.Task, elemTask, first, rel []int32) {
	n := len(sg.col) - 1
	first, rel = make([]int32, n+1), make([]int32, len(sg.block))
	groups := make([]int32, 0, sg.longest()) // first segment of each task of the current column
	for j := 0; j < n; j++ {
		groups = groups[:0]
		for u := sg.col[j]; u < sg.col[j+1]; u++ {
			g := 0
			for g < len(groups) && sg.proc[groups[g]] != sg.proc[u] {
				g++
			}
			if g == len(groups) {
				groups = append(groups, u)
			}
			rel[u] = int32(g)
		}
		first[j+1] = first[j] + int32(len(groups))
	}
	tasks = make([]exec.Task, first[n])
	elemTask = make([]int32, sg.start[len(sg.block)])
	for j := 0; j < n; j++ {
		for u := sg.col[j]; u < sg.col[j+1]; u++ {
			t := first[j] + rel[u]
			task := &tasks[t]
			task.Proc = sg.proc[u]
			for q := sg.start[u]; q < sg.start[u+1]; q++ {
				elemTask[q] = t
				task.Work += int64(elemWork[q])
			}
		}
	}
	return tasks, elemTask, first, rel
}

// preds fills every task's predecessor list, target column by target
// column: the run (j, k) adds, for each segment S of struct(k) it reads,
// the pair (task of S's rows in column j, task of S) and the pair (the
// same target, task of the multiplier's segment); every task of column j
// but its first depends on the first (the diagonal's: the scale). A run's
// sources are gathered as one mask per target over the source column's
// tasks, so they come out once and ascending; a target's runs come in
// increasing source column and the scale last, so a stable counting sort
// by target leaves every list sorted. The lists are cut from one slice of
// their exact total length.
func (sg *segments) preds(ops *model.Ops, tasks []exec.Task, first, rel []int32) {
	n := len(sg.col) - 1
	widest := int32(0)
	for j := 0; j < n; j++ {
		widest = max(widest, first[j+1]-first[j])
	}
	// run[x] is the segment of source column k holding the multiplier of
	// the x-th run (j, k), in row-structure order: the runs of one source
	// come in increasing target order, so a cursor per column finds them.
	// bound is a column's pair count were every pair new.
	cursor := make([]int32, n)
	copy(cursor, sg.col[:n])
	run := make([]int32, 0, int(sg.start[len(sg.block)])-n)
	most, total, ri := 0, 0, ops.F.Rows()
	for j := 0; j < n; j++ {
		bound := int(first[j+1]-first[j]) - 1
		for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
			last := ri.Last[x]
			for k := last - int32(ri.RunLen[x]) + 1; k <= last; k++ {
				u, p := cursor[k], int32(ops.F.ColPtr[k+1])-ri.Tail[x]
				for sg.start[u+1] <= p {
					u++
				}
				cursor[k] = u
				run = append(run, u)
				bound += 2 * int(sg.col[k+1]-u)
			}
		}
		most, total = max(most, bound), total+bound
	}
	// mask[t*words:][:words] holds the current run's sources for target t
	// of the column, tick[t] == r+1 once the r-th run touched t; tb[b] is
	// the column's target of row block b.
	words := int(widest+63) / 64
	mask, tick, touched := make([]uint64, int(widest)*words), make([]int32, widest), make([]int32, 0, widest)
	tb, cnt := make([]int32, n), make([]int32, widest+1)
	type entry struct {
		t, base int32 // t relative to the column's first task
		bits    uint64
	}
	buf := make([]entry, 0, most*words)
	all, begin := make([]int32, total), make([]int32, len(tasks)+1)
	w, r := int32(0), int32(0)
	for j := 0; j < n; j++ {
		f0, g := first[j], first[j+1]-first[j]
		buf = buf[:0]
		for u := sg.col[j]; u < sg.col[j+1]; u++ {
			tb[sg.block[u]] = rel[u]
		}
		for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
			last := ri.Last[x]
			for k := last - int32(ri.RunLen[x]) + 1; k <= last; k++ {
				u, z := run[r], sg.col[k+1]
				r++
				for s := u; s < z; s++ {
					t := tb[sg.block[s]]
					if tick[t] != r {
						tick[t] = r
						touched = append(touched, t)
					}
					v := rel[s]
					mask[int(t)*words+int(v>>6)] |= 1 << (v & 63)
				}
				v, k0 := rel[u], first[k]
				for _, t := range touched {
					m := mask[int(t)*words:][:words]
					m[v>>6] |= 1 << (v & 63)
					for y, b := range m {
						if b != 0 {
							buf = append(buf, entry{t, k0 + int32(64*y), b})
							m[y] = 0
						}
					}
				}
				touched = touched[:0]
			}
		}
		for t := int32(1); t < g; t++ {
			buf = append(buf, entry{t, f0, 1})
		}
		// Stable counting sort by target.
		clear(cnt[:g+1])
		for _, e := range buf {
			cnt[e.t+1] += int32(bits.OnesCount64(e.bits))
		}
		for t := int32(0); t < g; t++ {
			cnt[t+1] += cnt[t]
			begin[f0+t] = w + cnt[t]
		}
		for _, e := range buf {
			p := w + cnt[e.t]
			for b := e.bits; b != 0; b &= b - 1 {
				all[p] = e.base + int32(bits.TrailingZeros64(b))
				p++
			}
			cnt[e.t] = p - w
		}
		w += cnt[g-1]
	}
	begin[len(tasks)] = w
	out := make([]int32, w)
	copy(out, all)
	for t := range tasks {
		if b, e := begin[t], begin[t+1]; e > b {
			tasks[t].Preds = out[b:e:e]
		}
	}
}

// fetches replays the first fetches of the element walk (one per distinct
// non-local (element, processor) pair, as traffic.Simulate dedups them)
// from the segments, source column by source column. Every batch of n
// elements first fetched by the owner of target segment u, whose update
// (or scale) first required them, adds n to out[u] when they are a
// pair-update source and to in[u] when they are a multiplier or a
// diagonal; when ch is non-nil it also records a message from the sending
// processor to task key[u]. Per source column k
// it keeps a bitset over the processors per segment of k, set where the
// processor owns or has read the segment; the scales take one stamp pass.
func (sg *segments) fetches(f *symbolic.Factor, p int, out, in []int64, ch *traffic.Charger, key []int32) {
	longest := sg.longest()
	words := (p + 63) / 64
	held := make([]uint64, longest*words)     // held[(s-a)*words:][:words]: the holders of segment s
	seen := make([]int32, p)                  // seen[q] == g+1: q met in the runs of segment g
	mult := make([]int32, 0, min(p, longest)) // the blocks of the multiplier's separate readers
	send := func(u, owner int32) {
		if ch != nil {
			ch.Message(int(key[u]), owner)
		}
	}
	for k := 0; k+1 < len(sg.col); k++ {
		a, z, off := sg.col[k], sg.col[k+1], int32(f.ColPtr[k]+1)
		if sg.start[a+1] <= off {
			a++ // the diagonal alone
		}
		if a >= z {
			continue
		}
		col := held[:int(z-a)*words]
		clear(col)
		for s := a; s < z; s++ {
			q := sg.proc[s]
			col[int(s-a)*words+int(q>>6)] |= 1 << (q & 63)
		}
		for g := a; g < z; g++ {
			lo := max(sg.start[g], off)
			og := sg.proc[g]
			hg := col[int(g-a)*words:][:words]
			// g's leader reads every segment from g on.
			v := sg.col[f.RowInd[lo]]
			mult = mult[:0]
			for s := g; s < z; s++ {
				for sg.block[v] != sg.block[s] {
					v++
				}
				q := sg.proc[v]
				w, bit := &col[int(s-a)*words+int(q>>6)], uint64(1)<<(q&63)
				// A segment holding the diagonal is never charged here: its
				// leader's target lies in the same diagonal tile.
				if *w&bit == 0 {
					*w |= bit
					out[v] += int64(sg.start[s+1] - sg.start[s])
					send(v, sg.proc[s])
				}
				if seen[q] != g+1 {
					seen[q] = g + 1
					if hg[q>>6]&bit == 0 {
						mult = append(mult, sg.block[s])
						in[v]++
						send(v, og)
					}
				}
			}
			if len(mult) == 0 {
				continue
			}
			// The other runs of g fetch the same multiplier owners'.
			for x := lo + 1; x < sg.start[g+1]; x++ {
				v := sg.col[f.RowInd[x]]
				for _, b := range mult {
					for sg.block[v] != b {
						v++
					}
					in[v]++
					send(v, og)
				}
			}
		}
	}
	// The scales: column j's diagonal is read once by every other owner of
	// the column, charged to its first segment there.
	stamp := seen // stamp[q] == j+1: q charged column j's diagonal
	clear(stamp)
	for j := 0; j+1 < len(sg.col); j++ {
		d := sg.col[j]
		od := sg.proc[d]
		for u := d + 1; u < sg.col[j+1]; u++ {
			if q := sg.proc[u]; q != od && stamp[q] != int32(j+1) {
				stamp[q] = int32(j + 1)
				in[u]++
				send(u, od)
			}
		}
	}
}
