package exec

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// parallelSolve is the compiled sweeps end to end on one right-hand side:
// CompileSolve over f for np workers, then one Run on a copy of b. Every
// test of the parallel solves in this package goes through it.
func parallelSolve(k numeric.Kernel, f *symbolic.Factor, val []float64, np int, b []float64) ([]float64, error) {
	sp, err := CompileSolve(f, np)
	if err != nil {
		return nil, err
	}
	x := append([]float64(nil), b...)
	return x, sp.Run(k, val, x)
}

// solveRHS is a right-hand side with no two neighbouring components alike.
func solveRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*13)%7) - 3 + 1/float64(i+2)
	}
	return b
}

// checkSolveProgram asserts the structural invariants of a compiled solve:
// the chunks and the top partition the columns, every list ascends, the
// top is closed under "ancestor of" and every chunk under "descendant of",
// and no chunk column has an ancestor in another chunk. It returns the
// summed column length of every chunk.
func checkSolveProgram(t *testing.T, what string, sp *SolveProgram, p int) []int64 {
	t.Helper()
	f := sp.f
	if len(sp.chunks) != p {
		t.Fatalf("%s: %d chunks, want %d", what, len(sp.chunks), p)
	}
	const top, unseen = -1, -2
	owner := make([]int, f.N)
	for j := range owner {
		owner[j] = unseen
	}
	loads := make([]int64, p)
	place := func(cols []int32, w int) {
		for at, j := range cols {
			if at > 0 && cols[at-1] >= j {
				t.Fatalf("%s: list %d not ascending at %d", what, w, at)
			}
			if owner[j] != unseen {
				t.Fatalf("%s: column %d in lists %d and %d", what, j, owner[j], w)
			}
			owner[j] = w
			if w != top {
				loads[w] += int64(f.ColLen(int(j)))
			}
		}
	}
	place(sp.top, top)
	for w, cols := range sp.chunks {
		place(cols, w)
	}
	for j, w := range owner {
		if w == unseen {
			t.Fatalf("%s: column %d in no list", what, j)
		}
		// The three local rules are the global ones by induction up the
		// tree: a column's parent shares its chunk or is in the top, and
		// the parent of a top column is a top column.
		if pa := f.Parent[j]; pa >= 0 && owner[pa] != w && owner[pa] != top {
			t.Fatalf("%s: column %d (list %d) has parent %d in list %d", what, j, w, pa, owner[pa])
		}
	}
	return loads
}

// checkSolveBits runs the program for both kernels on m (permuted, with
// values) and holds the result to the serial sweeps bit for bit.
func checkSolveBits(t *testing.T, what string, m *sparse.Matrix, sp *SolveProgram) {
	t.Helper()
	f := sp.f
	b := solveRHS(f.N)
	chol, err := numeric.Factorize(m, f)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ldl, err := numeric.FactorizeLDL(m, f)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for _, c := range []struct {
		k   numeric.Kernel
		val []float64
	}{
		{numeric.KernelCholesky, chol.Val},
		{numeric.KernelLDL, ldl.Val},
	} {
		want := append([]float64(nil), b...)
		c.k.Solve(f, c.val, want)
		x := append([]float64(nil), b...)
		if err := sp.Run(c.k, c.val, x); err != nil {
			t.Fatalf("%s %v: %v", what, c.k, err)
		}
		if q := firstBitDiff(x, want); q >= 0 {
			t.Fatalf("%s %v: x[%d] = %v, serial %v", what, c.k, q, x[q], want[q])
		}
		checkSolveWide(t, what, c.k, f, c.val, b)
	}
}

// checkSolveWide runs numeric's 8-wide sweep on eight right-hand sides
// derived from b (rhs r is b rotated by r places, plus r/8) and holds each
// solution to the serial sweeps on that rhs alone, bit for bit.
func checkSolveWide(t *testing.T, what string, k numeric.Kernel, f *symbolic.Factor, val, b []float64) {
	t.Helper()
	const w = numeric.SolveWidth
	n := f.N
	panel := make([]float64, n*w)
	for i := 0; i < n; i++ {
		for r := 0; r < w; r++ {
			panel[i*w+r] = b[(i+r)%n] + float64(r)/w
		}
	}
	k.SolveWide(f, val, panel)
	x := make([]float64, n)
	for r := 0; r < w; r++ {
		for i := range x {
			x[i] = b[(i+r)%n] + float64(r)/w
		}
		k.Solve(f, val, x)
		for i := range x {
			if math.Float64bits(panel[i*w+r]) != math.Float64bits(x[i]) {
				t.Fatalf("%s %v: 8-wide rhs %d x[%d] = %v, serial %v", what, k, r, i, panel[i*w+r], x[i])
			}
		}
	}
}

// TestSolveProgramShapes drives the compile through the tree shapes that
// bend it: more workers than columns, a forest, a chain, a single column,
// and worker counts that leave chunks empty.
func TestSolveProgramShapes(t *testing.T) {
	bus, _, err := gen.ByName("BUS1138")
	if err != nil {
		t.Fatal(err)
	}
	// Six disjoint paths of six: a forest of six chains, no serial part
	// on a worker count that divides six.
	var edges [][2]int
	for i := 0; i < 36; i++ {
		if i%6 != 5 {
			edges = append(edges, [2]int{i, i + 1})
		}
	}
	forest, err := sparse.NewPattern(36, edges)
	if err != nil {
		t.Fatal(err)
	}
	forest.SetLaplacianValues(1)
	for _, c := range []struct {
		name  string
		m     *sparse.Matrix
		procs []int
		// natural keeps the matrix in its own order (MMD would reshape
		// the tree); top is the number of columns every p > 1 must leave
		// to the serial part, -1 for any.
		natural bool
		top     int
	}{
		{"grid9-6x6", gen.Grid9(6, 6), []int{1, 2, 3, 5, 36, 37, 64}, false, -1},
		{"BUS1138", bus, []int{1, 2, 4, 16, 64, 1139}, false, -1},
		{"forest", forest, []int{1, 2, 3, 6}, true, 0},
		{"chain", gen.Grid5(1, 40), []int{1, 2, 3, 41}, true, 40},
		{"n=1", gen.Grid5(1, 1), []int{1, 2, 7}, true, 1},
	} {
		p := buildPipe(c.m, 4, 4)
		if c.natural {
			p = &pipe{m: c.m, f: symbolic.Analyze(c.m)}
		}
		if c.name == "forest" && len(symbolic.Roots(p.f.Parent)) != 6 {
			t.Fatalf("fixture: forest has roots %v", symbolic.Roots(p.f.Parent))
		}
		for _, np := range c.procs {
			what := fmt.Sprintf("%s P=%d", c.name, np)
			sp, err := CompileSolve(p.f, np)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkSolveProgram(t, what, sp, np)
			if np == 1 && len(sp.top) != 0 {
				t.Errorf("%s: %d top columns on one worker", what, len(sp.top))
			}
			if c.top >= 0 && np > 1 && len(sp.top) != c.top {
				t.Errorf("%s: top holds %d columns, want %d", what, len(sp.top), c.top)
			}
			checkSolveBits(t, what, p.m, sp)
		}
	}
}

// TestSolveProgramBalanced pins the quality of the cut on the benchmark's
// grid: a small serial top and chunks within the slack of their mean.
func TestSolveProgramBalanced(t *testing.T) {
	p := buildPipe(gen.Grid9(60, 60), 4, 4)
	for _, c := range []struct{ np, maxTop int }{{1, 0}, {2, 360}, {4, 540}, {16, 1080}} {
		sp, err := CompileSolve(p.f, c.np)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("grid9-60x60 P=%d", c.np)
		loads := checkSolveProgram(t, what, sp, c.np)
		var sum, max int64
		for _, l := range loads {
			sum += l
			if l > max {
				max = l
			}
		}
		t.Logf("%s: top %d of %d columns, chunk loads %v", what, len(sp.top), p.f.N, loads)
		if len(sp.top) > c.maxTop {
			t.Errorf("%s: top holds %d columns, want <= %d", what, len(sp.top), c.maxTop)
		}
		// A subtree is packed against the mean of the frontier of its day,
		// which later splits lower by the few columns they move to the top.
		if float64(max) > 1.15*float64(sum)/float64(c.np) {
			t.Errorf("%s: max chunk load %d over 1.15 x mean %d", what, max, sum/int64(c.np))
		}
	}
}

// TestSolveProgramConcurrentRuns shares one program between eight
// goroutines: a program is immutable, so every Run is the serial solve.
func TestSolveProgramConcurrentRuns(t *testing.T) {
	p := buildPipe(gen.Lap30(), 4, 4)
	chol, err := numeric.Factorize(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CompileSolve(p.f, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := solveRHS(p.f.N)
			b[g] += float64(g)
			want := chol.Solve(b)
			for r := 0; r < 3; r++ {
				x := append([]float64(nil), b...)
				if err := sp.Run(numeric.KernelCholesky, chol.Val, x); err != nil {
					t.Error(err)
					return
				}
				if q := firstBitDiff(x, want); q >= 0 {
					t.Errorf("goroutine %d run %d: x[%d] = %v, serial %v", g, r, q, x[q], want[q])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fuzzSolveCase decodes bytes into a small symmetric pattern with
// Laplacian values (n <= 32, natural order, so the fuzzer writes the
// elimination forest directly) and a worker count that may pass n.
func fuzzSolveCase(data []byte) (*sparse.Matrix, int) {
	if len(data) < 3 {
		return nil, 0
	}
	n := 1 + int(data[0])%32
	np := 1 + int(data[1])%40
	nedges := int(data[2]) % 96
	data = data[3:]
	var edges [][2]int
	for ; nedges > 0 && len(data) >= 2; nedges-- {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
		data = data[2:]
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		return nil, 0
	}
	m.SetLaplacianValues(1)
	return m, np
}

// FuzzSolveProgram holds the compile to its structural invariants and the
// run to the serial sweeps, bit for bit and for both kernels, on
// fuzzer-written patterns and worker counts.
func FuzzSolveProgram(f *testing.F) {
	f.Add([]byte{3, 1, 6, 0, 1, 1, 2, 0, 2, 0, 3, 1, 3, 2, 3})                                               // dense 4x4 on two workers: a chain, all top
	f.Add([]byte{15, 1, 8, 0, 1, 1, 2, 2, 3, 4, 5, 5, 6, 6, 7, 3, 7, 8, 9})                                  // two chains under one root, and singletons
	f.Add([]byte{11, 2, 0})                                                                                  // no edges: a forest of 12 roots on 3 workers
	f.Add([]byte{0, 5, 0})                                                                                   // n = 1, P = 6
	f.Add([]byte{5, 39, 5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5})                                                    // a chain of 6, P = 40 > n
	f.Add([]byte{20, 3, 12, 0, 20, 1, 20, 2, 19, 3, 19, 19, 20, 4, 18, 5, 18, 6, 17, 7, 17, 17, 18, 18, 20}) // a bushy tree on 4 workers
	f.Fuzz(func(t *testing.T, data []byte) {
		m, np := fuzzSolveCase(data)
		if m == nil {
			return
		}
		sp, err := CompileSolve(symbolic.Analyze(m), np)
		if err != nil {
			t.Fatal(err)
		}
		checkSolveProgram(t, "fuzz", sp, np)
		checkSolveBits(t, "fuzz", m, sp)
	})
}

// BenchmarkSolveProgram times the compiled sweeps and their compile on
// the benchmark's grid and on LAP30 beside the serial sweeps (EXPERIMENTS
// Solve-1) and the 8-wide sweep, per rhs (EXPERIMENTS Batch-1).
func BenchmarkSolveProgram(b *testing.B) {
	for _, c := range []struct {
		name string
		m    *sparse.Matrix
	}{{"grid9-60x60", gen.Grid9(60, 60)}, {"LAP30", gen.Lap30()}} {
		p := buildPipe(c.m, 4, 4)
		chol, err := numeric.Factorize(p.m, p.f)
		if err != nil {
			b.Fatal(err)
		}
		rhs := solveRHS(p.f.N)
		x := make([]float64, p.f.N)
		b.Run(c.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, rhs)
				numeric.KernelCholesky.Solve(p.f, chol.Val, x)
			}
		})
		panel := make([]float64, p.f.N*numeric.SolveWidth)
		b.Run(c.name+"/wide", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for q, v := range rhs {
					for r := 0; r < numeric.SolveWidth; r++ {
						panel[q*numeric.SolveWidth+r] = v
					}
				}
				numeric.KernelCholesky.SolveWide(p.f, chol.Val, panel)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*numeric.SolveWidth), "ns/rhs")
		})
		for _, np := range []int{1, 2, 4} {
			sp, err := CompileSolve(p.f, np)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/run/P=%d", c.name, np), func(b *testing.B) {
				b.ReportMetric(float64(len(sp.top)), "top-columns")
				for i := 0; i < b.N; i++ {
					copy(x, rhs)
					if err := sp.Run(numeric.KernelCholesky, chol.Val, x); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/compile/P=%d", c.name, np), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := CompileSolve(p.f, np); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
