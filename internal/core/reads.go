package core

import "sort"

// Read is one entry of a partition's read map: the positions of a source
// column k one unit reads, as word Word of a bitset over the column's
// positions below its diagonal (bit b of word w stands for position
// F.ColPtr[k]+1+64w+b of F.RowInd).
type Read struct {
	Unit int32
	Word int32
	Bits uint64
}

// ReadMap lists, per source column, every unit that reads it, in the
// order the element-level walk (model.Ops.ForEachRun) first reaches each.
//
// A walk that deduplicates per (element, processor) touches an element of
// column k only in the runs (j, k), j ascending, so it may be replayed one
// source column at a time. Within column k the targets come in groups,
// and a group's reads are two ranges of positions per unit:
//
//   - a single-column cluster's column j is one unit, reading [a, end) as
//     L[i,k] and a as the multiplier L[j,k], where a is the position of
//     (j, k);
//   - the columns of one class of a multi-column cluster share their unit
//     on every row, so the group of positions [a0, a1) of struct(k) in that
//     class reads, per row band of the cluster's territory from a0 down,
//     the band's positions from a0 on as L[i,k] and the multipliers
//     [a0, a1), all charged to the one unit (band, class). Every row of
//     struct(k) from a0 down lies in that territory: column a0's structure
//     holds column k's from there on.
//
// A group's bands come top to bottom — the walk meets a multiplier first
// in the band of its own row, then down the rows — so a processor's first
// read of an element is booked to the unit the walk books it to. An entry
// holds the union of a unit's two ranges, one entry per bitset word they
// touch.
type ReadMap struct {
	// Cols[k] lists source column k's entries in walk order.
	Cols [][]Read
}

// ReadMap returns the partition's read map, built on first use and shared
// read-only by every caller after that.
func (p *Partition) ReadMap() *ReadMap {
	p.readsOnce.Do(func() { p.reads = p.buildReadMap() })
	return p.reads
}

// readRun is a maximal range [lo, hi) of positions of one source column
// whose rows lie in row band band of a cluster.
type readRun struct{ lo, hi, band int32 }

// buildReadMap gathers each column's entries in a scratch list and cuts
// their slice from chunks shared across columns.
func (p *Partition) buildReadMap() *ReadMap {
	f := p.F
	rm := &ReadMap{Cols: make([][]Read, f.N)}
	reads := arena[Read]{chunk: max(f.NNZ(), 1024)}
	var col []Read
	var runs []readRun
	for k := 0; k < f.N; k++ {
		base := int32(f.ColPtr[k] + 1)
		end := int32(f.ColPtr[k+1])
		col = col[:0]
		// read adds unit u's reads [qLo, qHi) ∪ [lLo, lHi).
		read := func(u, qLo, qHi, lLo, lHi int32) {
			qLo, qHi, lLo, lHi = qLo-base, qHi-base, lLo-base, lHi-base
			if qHi <= 64 && lHi <= 64 {
				col = append(col, Read{Unit: u, Bits: lowBits[qHi]&^lowBits[qLo] | lowBits[lHi]&^lowBits[lLo]})
				return
			}
			for w := min(qLo, lLo) >> 6; w <= (max(qHi, lHi)-1)>>6; w++ {
				if bits := span(w, qLo, qHi) | span(w, lLo, lHi); bits != 0 {
					col = append(col, Read{Unit: u, Word: w, Bits: bits})
				}
			}
		}
		for a := base; a < end; {
			cl := &p.Clusters[p.ColCluster[f.RowInd[a]]]
			if cl.Single {
				read(int32(cl.ColUnit), a, end, a, a+1)
				a++
				continue
			}
			runs = cl.bandRuns(f.RowInd, a, end, runs[:0])
			x := sort.SearchInts(cl.classes, int(f.RowInd[a])+1) - 1 // class of row a
			r := 0
			for a < end && int(f.RowInd[a]) <= cl.ColHi {
				for int(f.RowInd[a]) >= cl.classes[x+1] {
					x++
				}
				g := a + 1
				for g < end && int(f.RowInd[g]) < cl.classes[x+1] {
					g++
				}
				for runs[r].hi <= a {
					r++
				}
				for _, rn := range runs[r:] {
					read(p.unitAt(cl, &cl.rows[rn.band], cl.classes[x]), max(rn.lo, a), rn.hi, a, g)
				}
				a = g
			}
		}
		if len(col) > 0 {
			rm.Cols[k] = reads.take(len(col))
			copy(rm.Cols[k], col)
		}
	}
	return rm
}

// lowBits[i] has the i lowest bits set.
var lowBits = func() (t [65]uint64) {
	for i := range t {
		t[i] = 1<<i - 1
	}
	return t
}()

// span returns the bits of word w of a column bitset that stand for
// positions [lo, hi).
func span(w, lo, hi int32) uint64 {
	lo, hi = min(max(lo-w<<6, 0), 64), min(max(hi-w<<6, 0), 64)
	return lowBits[hi] &^ lowBits[lo]
}

// bandRuns appends to dst the runs of positions [a, end) whose rows,
// increasing and all in the cluster's territory, share a row band.
func (cl *Cluster) bandRuns(rowInd []int32, a, end int32, dst []readRun) []readRun {
	b := 0
	for q := a; q < end; q++ {
		r := int(rowInd[q])
		if q > a && r <= cl.rows[b].hi {
			dst[len(dst)-1].hi = q + 1
			continue
		}
		for cl.rows[b].hi < r {
			if rest := cl.rows[b+1:]; rest[0].hi < r {
				b += 1 + sort.Search(len(rest), func(i int) bool { return rest[i].hi >= r })
				break
			}
			b++
		}
		dst = append(dst, readRun{lo: q, hi: q + 1, band: int32(b)})
	}
	return dst
}
