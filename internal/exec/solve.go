package exec

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/symbolic"
)

// SolveProgram is the two triangular solves of the paper's step 4 compiled
// for P workers. Disjoint subtrees of the elimination tree share no data:
// whole subtrees (a chunk per worker) are swept side by side and the columns
// above them (the top) serially. Every list ascends; chunks and top partition
// the columns. A program is immutable: concurrent Runs are safe.
type SolveProgram struct {
	f      *symbolic.Factor
	chunks [][]int32 // per worker: the columns of its subtrees
	top    []int32   // the ancestors of every chunk, swept by the caller
	// cut[j] splits column j where its rows (j's ancestors, ascending) leave
	// j's chunk for the top: [ColPtr[j], cut[j]) is the chunk's part, the rest
	// — all of a top column — the caller's. spill lists the columns with one.
	cut, spill []int32
}

// CompileSolve cuts the elimination tree of f for p workers in one heap
// pass, O(n log n). Subtrees weigh their column lengths (the nonzeros a
// sweep touches). The heaviest frontier subtree — the roots to begin with —
// is popped and packed whole onto the least-loaded worker if that keeps the
// worker within 1.1 × the mean frontier load; else its root moves to the top
// and its children join the frontier. Pops come in decreasing weight, so the
// chunks are the LPT packing of the frontier that is left. A chain never fits
// (p > 1) and lands in the top whole: the serial sweep.
func CompileSolve(f *symbolic.Factor, p int) (*SolveProgram, error) {
	if err := sched.CheckProcs("exec", p); err != nil {
		return nil, err
	}
	n := f.N
	// sub[j] weighs j's subtree (Parent[j] > j); child/sibling list the forest.
	sub := make([]int64, n)
	child, sibling := make([]int32, n), make([]int32, n)
	for j := range child {
		child[j] = -1
	}
	var frontier taskHeap
	var rest int64 // summed weight of the columns not in the top
	for j := 0; j < n; j++ {
		sub[j] += int64(f.ColLen(j))
		if pa := f.Parent[j]; pa >= 0 {
			sub[pa] += sub[j]
			sibling[j], child[pa] = child[pa], int32(j)
		} else {
			frontier = append(frontier, heapItem{id: int32(j), prio: sub[j]})
			rest += sub[j]
		}
	}
	heap.Init(&frontier)
	loads := make(taskHeap, p) // prio = -load: the least-loaded worker on top
	for w := range loads {
		loads[w].id = int32(w)
	}
	// A popped column's worker or inTop; below: its parent's, resolved later.
	const inTop, below = -1, -2
	owner := make([]int32, n)
	for j := range owner {
		owner[j] = below
	}
	for frontier.Len() > 0 {
		it := heap.Pop(&frontier).(heapItem)
		if float64(it.prio-loads[0].prio) <= 1.1*float64(rest)/float64(p) {
			owner[it.id] = loads[0].id
			loads[0].prio -= it.prio
			heap.Fix(&loads, 0)
			continue
		}
		owner[it.id] = inTop
		rest -= int64(f.ColLen(int(it.id)))
		for c := child[it.id]; c >= 0; c = sibling[c] {
			heap.Push(&frontier, heapItem{id: c, prio: sub[c]})
		}
	}
	sp := &SolveProgram{f: f, chunks: make([][]int32, p), cut: make([]int32, n)}
	for j := n - 1; j >= 0; j-- {
		if owner[j] == below {
			owner[j] = owner[f.Parent[j]] // resolved already: Parent[j] > j
		}
		col := f.Col(j) // j and its ancestors: chunk rows, then top rows
		sp.cut[j] = int32(f.ColPtr[j] + sort.Search(len(col), func(t int) bool { return owner[col[t]] == inTop }))
	}
	for j, w := range owner {
		if w == inTop {
			sp.top = append(sp.top, int32(j))
		} else {
			sp.chunks[w] = append(sp.chunks[w], int32(j))
		}
		if int(sp.cut[j]) < f.ColPtr[j+1] {
			sp.spill = append(sp.spill, int32(j))
		}
	}
	return sp, nil
}

// Run overwrites x, holding a right-hand side in elimination order, with
// the solution under the kernel-k factor values val over the program's
// structure. Two fork-joins, no lock. The forward sweep L·y = b is the
// serial column sweep cut in two: the chunks side by side, each column
// updating the rows of its own chunk, then the caller alone, over the spill
// columns, every update of a top row. The backward sweep Lᵀ·x = y reads
// only ancestors: the top first, then the chunks side by side. A component
// meets its updates in ascending source column, as in numeric's serial
// sweeps, on one goroutine per phase: the result is theirs bit for bit.
func (sp *SolveProgram) Run(k numeric.Kernel, val, x []float64) error {
	if err := k.Valid(); err != nil {
		return err
	}
	if len(x) != sp.f.N {
		return fmt.Errorf("exec: rhs length %d, want %d", len(x), sp.f.N)
	}
	if len(val) != sp.f.NNZ() {
		return fmt.Errorf("exec: %d factor values, want %d", len(val), sp.f.NNZ())
	}
	ldl := k == numeric.KernelLDL
	sp.fork(func(cols []int32) { sp.forward(cols, false, ldl, val, x) })
	sp.forward(sp.spill, true, ldl, val, x)
	sp.backward(sp.top, ldl, val, x)
	sp.fork(func(cols []int32) { sp.backward(cols, ldl, val, x) })
	return nil
}

// forward applies one part of every column of cols, ascending: the chunk's
// [ColPtr[j], cut[j]), or with spilled set the rest. A diagonal in the part
// finishes y[j] (LDLᵀ: holds D, y[j] stands); any other entry updates a later one.
func (sp *SolveProgram) forward(cols []int32, spilled, ldl bool, val, x []float64) {
	f, cut := sp.f, sp.cut
	for _, j := range cols {
		lo, hi := f.ColPtr[j], int(cut[j])
		if spilled {
			lo, hi = hi, f.ColPtr[j+1]
		}
		if lo == f.ColPtr[j] {
			if !ldl {
				x[j] /= val[lo]
			}
			lo++
		}
		xj := x[j]
		rs, vs := f.RowInd[lo:hi], val[lo:hi]
		for q, i := range rs {
			x[i] -= vs[q] * xj
		}
	}
}

// backward finishes x[j], descending, from its finished ancestors (LDLᵀ: from y[j]/D[j]).
func (sp *SolveProgram) backward(cols []int32, ldl bool, val, x []float64) {
	f := sp.f
	for t := len(cols) - 1; t >= 0; t-- {
		j := cols[t]
		base, end := f.ColPtr[j], f.ColPtr[j+1]
		sum := x[j]
		if ldl {
			sum /= val[base]
		}
		rs, vs := f.RowInd[base+1:end], val[base+1:end]
		for q, i := range rs {
			sum -= vs[q] * x[i]
		}
		if !ldl {
			sum /= val[base]
		}
		x[j] = sum
	}
}

// fork runs sweep over every chunk and joins. The caller and one goroutine
// per further chunk claim chunks off one counter: a goroutine the scheduler
// starts late finds its chunk swept and costs its start-up, not a chunk's wait.
func (sp *SolveProgram) fork(sweep func(cols []int32)) {
	var next atomic.Int32
	var wg sync.WaitGroup
	claim := func() {
		defer wg.Done()
		for w := next.Add(1) - 1; int(w) < len(sp.chunks); w = next.Add(1) - 1 {
			sweep(sp.chunks[w])
		}
	}
	for _, cols := range sp.chunks[1:] {
		if len(cols) > 0 {
			wg.Add(1)
			//repro:allow nondeterminism -- chunks are whole subtrees: sweeping one reads and writes its own components only (the forward sweep stops at cut[j], the backward one writes x[j] from finished ancestors), each in the serial order, whichever goroutine claims it; TestSolveProgramBitIdentity pins the result to the serial sweeps bit for bit
			go claim()
		}
	}
	wg.Add(1)
	claim()
	wg.Wait()
}
