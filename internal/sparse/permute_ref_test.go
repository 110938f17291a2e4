package sparse

import (
	"errors"
	"fmt"
	"sort"
)

// refPermute is Permute as it stood before the counting-pass rewrite: one
// growing (row, value) list per new column, sorted with sort.Slice and
// copied into per-column slices for assembleWithDiagonal.
func (m *Matrix) refPermute(order []int) (*Matrix, error) {
	n := m.N
	if len(order) != n {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d", len(order), n)
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for newIdx, old := range order {
		if old < 0 || old >= n || inv[old] != -1 {
			return nil, errors.New("sparse: order is not a permutation")
		}
		inv[old] = newIdx
	}
	withVal := m.Val != nil
	colIdx := make([][]int, n)
	var colVal [][]float64
	if withVal {
		colVal = make([][]float64, n)
	}
	type ent struct {
		r int
		v float64
	}
	tmp := make([][]ent, n)
	for j := 0; j < n; j++ {
		cj := m.Col(j)
		var vj []float64
		if withVal {
			vj = m.ColVal(j)
		}
		for k, i := range cj {
			ni, nj := inv[i], inv[j]
			if ni < nj {
				ni, nj = nj, ni
			}
			var v float64
			if withVal {
				v = vj[k]
			}
			tmp[nj] = append(tmp[nj], ent{ni, v})
		}
	}
	for j := 0; j < n; j++ {
		sort.Slice(tmp[j], func(a, b int) bool { return tmp[j][a].r < tmp[j][b].r })
		colIdx[j] = make([]int, len(tmp[j]))
		if withVal {
			colVal[j] = make([]float64, len(tmp[j]))
		}
		for k, e := range tmp[j] {
			colIdx[j][k] = e.r
			if withVal {
				colVal[j][k] = e.v
			}
		}
	}
	return assembleWithDiagonal(n, colIdx, colVal, withVal), nil
}

// assembleWithDiagonal is the assembly refPermute used: it builds the CSC
// arrays from sorted, deduplicated per-column row lists, inserting each
// missing diagonal.
func assembleWithDiagonal(n int, colIdx [][]int, colVal [][]float64, withVal bool) *Matrix {
	m := &Matrix{N: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		m.ColPtr[j] = len(m.RowInd)
		if len(colIdx[j]) == 0 || colIdx[j][0] != j {
			m.RowInd = append(m.RowInd, int32(j))
			if withVal {
				m.Val = append(m.Val, 0)
			}
		}
		for k, r := range colIdx[j] {
			m.RowInd = append(m.RowInd, int32(r))
			if withVal {
				m.Val = append(m.Val, colVal[j][k])
			}
		}
	}
	m.ColPtr[n] = len(m.RowInd)
	return m
}
