package numeric_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/order"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/strategy"
)

// fuzzColumnCase decodes bytes into a small symmetric matrix in natural
// order (n <= 48: the fuzzer writes the elimination forest, so supernodes
// of every width and chains broken at any row occur): n, the edge count,
// what to poison and where, the edges, then one byte per value.
// Off-diagonals come from their bytes and every diagonal dominates its row
// strictly, so the matrix is positive definite until the poison — a NaN, an
// Inf, a negated or a zeroed diagonal — is planted.
func fuzzColumnCase(data []byte) *sparse.Matrix {
	if len(data) < 4 {
		return nil
	}
	n := 1 + int(data[0])%48
	nedges := int(data[1]) % 160
	poison, where := int(data[2])%8, int(data[3])
	data = data[4:]
	var edges [][2]int
	for ; nedges > 0 && len(data) >= 2; nedges-- {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
		data = data[2:]
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		return nil
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	m.Val = make([]float64, m.NNZ())
	rowSum := make([]float64, n)
	for j := 0; j < n; j++ {
		for q := m.ColPtr[j] + 1; q < m.ColPtr[j+1]; q++ {
			b := next()
			v := (1 + float64(b%32)) / 16
			if b < 128 {
				v = -v
			}
			m.Val[q] = v
			rowSum[j] += math.Abs(v)
			rowSum[m.RowInd[q]] += math.Abs(v)
		}
	}
	for j := 0; j < n; j++ {
		m.Val[m.ColPtr[j]] = rowSum[j] + 1 + float64(next()%8)/4
	}
	diag := m.ColPtr[where%n]
	switch poison {
	case 4:
		m.Val[where%m.NNZ()] = math.NaN()
	case 5:
		m.Val[where%m.NNZ()] = math.Inf(1 - 2*(where&1))
	case 6:
		m.Val[diag] = -m.Val[diag]
	case 7:
		m.Val[diag] = 0
	}
	return m
}

// errColumn is the column a rejected-pivot error of either package names.
func errColumn(err error) int {
	var npd *numeric.NotPositiveDefiniteError
	if errors.As(err, &npd) {
		return npd.Column
	}
	col := -1
	if _, tail, ok := strings.Cut(err.Error(), "at column "); ok {
		fmt.Sscanf(tail, "%d", &col)
	}
	return col
}

// FuzzColumnUpdate holds the grouped column body to the one-source-at-a-time
// oracle, bit for bit and for both kernels, and the compiled engine to the
// serial kernel — whole columns on a wrap plan at P = 1, 3 and n + 1, column
// segments on a block plan — on fuzzer-written matrices; a value either
// kernel must refuse is refused by the oracle, the serial kernel and every
// engine run at the same column.
func FuzzColumnUpdate(f *testing.F) {
	f.Add([]byte{3, 6, 0, 0, 0, 1, 1, 2, 0, 2, 0, 3, 1, 3, 2, 3, 200, 7, 130, 9, 77, 255})                     // dense 4x4: one supernode of width 4
	f.Add([]byte{9, 9, 0, 0, 0, 9, 1, 9, 2, 9, 3, 9, 4, 9, 5, 9, 6, 9, 7, 9, 8, 9})                            // an arrow: nine singles into one column
	f.Add([]byte{11, 0, 0, 0})                                                                                 // diagonal
	f.Add([]byte{0, 0, 7, 0})                                                                                  // n = 1, zero pivot
	f.Add([]byte{15, 30, 6, 8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 0, 8, 1, 8, 2, 9, 3, 9, 9, 15}) // a band with a negated diagonal mid-matrix
	f.Add([]byte{7, 12, 4, 5, 0, 4, 1, 4, 2, 4, 3, 4, 0, 5, 1, 5, 4, 5, 5, 6, 6, 7, 0, 7, 3, 7})               // a NaN off the diagonal
	f.Add([]byte{23, 40, 5, 3, 0, 20, 1, 20, 2, 19, 3, 19, 19, 20, 4, 18, 5, 18, 6, 17, 7, 17, 17, 18, 18, 20, 20, 21, 21, 22, 22, 23, 19, 23, 17, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzColumnCase(data)
		if m == nil {
			return
		}
		an, err := pipeline.NewAnalysisOrdered(m, order.Natural(m.N))
		if err != nil {
			t.Fatal(err)
		}
		type plan struct {
			name string
			p    int
		}
		plans := []plan{{"wrap", 1}, {"wrap", 3}, {"wrap", m.N + 1}, {"block", 3}}
		for _, k := range []numeric.Kernel{numeric.KernelCholesky, numeric.KernelLDL} {
			want, bad, err := numeric.RefFactorize(k, m, an.F)
			if err != nil {
				t.Fatal(err)
			}
			check := func(who string, got []float64, err error) {
				t.Helper()
				if bad >= 0 {
					if err == nil || errColumn(err) != bad {
						t.Fatalf("%v %s: err = %v, the oracle rejects column %d", k, who, err, bad)
					}
					return
				}
				if err != nil {
					t.Fatalf("%v %s: %v", k, who, err)
				}
				for q := range want {
					if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
						t.Fatalf("%v %s: position %d: %g, oracle %g", k, who, q, got[q], want[q])
					}
				}
			}
			got, err := k.Factorize(m, an.F)
			check("serial", got, err)
			for _, c := range plans {
				pl, err := an.Plan(c.name, c.p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				var val []float64
				fa, err := pl.FactorizeParallel(m, k)
				if err == nil {
					val = fa.Val
				}
				check(fmt.Sprintf("engine %s P=%d", c.name, c.p), val, err)
			}
		}
	})
}
