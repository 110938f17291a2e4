// Package hbio reads and writes symmetric sparse matrices in the
// Harwell-Boeing exchange format.
//
// The paper's test problems come from the Harwell-Boeing collection
// [Duff, Grimes & Lewis 1989], distributed as fixed-format Fortran card
// images. This package implements the subset needed for the reproduction:
// assembled symmetric matrices, real (RSA) or pattern-only (PSA), stored as
// the lower triangle in compressed column form — the same convention as
// sparse.Matrix, so conversion is direct.
//
// The original data tapes are not distributable with this repository;
// cmd/matgen regenerates the synthetic equivalents and writes them as HB
// files so that downstream tools expecting the format keep working.
package hbio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// Header carries the identifying fields of a Harwell-Boeing file.
type Header struct {
	Title string // up to 72 characters
	Key   string // up to 8 characters
	Type  string // MXTYPE, e.g. "RSA" (real symmetric assembled) or "PSA"
	NRow  int
	NCol  int
	NNZ   int
}

// format is a parsed Fortran edit descriptor such as (16I5) or (5E16.8).
type format struct {
	perLine int
	kind    byte // 'I', 'E', 'D', 'F'
	width   int
	prec    int
}

func (f format) String() string {
	switch f.kind {
	case 'I':
		return fmt.Sprintf("(%dI%d)", f.perLine, f.width)
	default:
		return fmt.Sprintf("(%d%c%d.%d)", f.perLine, f.kind, f.width, f.prec)
	}
}

// parseFormat parses a Fortran format descriptor. Scale factors such as
// "1P" are accepted and ignored (they affect printing, not parsing).
func parseFormat(s string) (format, error) {
	orig := s
	s = strings.ToUpper(strings.TrimSpace(s))
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	// Drop scale factor prefix, e.g. "1P," or "1P".
	if i := strings.Index(s, "P"); i >= 0 && i+1 < len(s) && allDigits(s[:i]) {
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	var f format
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i > 0 {
		n, err := strconv.Atoi(s[:i])
		if err != nil {
			return f, fmt.Errorf("hbio: bad format %q", orig)
		}
		f.perLine = n
	} else {
		f.perLine = 1
	}
	if i >= len(s) {
		return f, fmt.Errorf("hbio: bad format %q", orig)
	}
	f.kind = s[i]
	switch f.kind {
	case 'I', 'E', 'D', 'F', 'G':
		if f.kind == 'G' {
			f.kind = 'E'
		}
	default:
		return f, fmt.Errorf("hbio: unsupported format kind %q in %q", f.kind, orig)
	}
	rest := s[i+1:]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		w, err := strconv.Atoi(rest)
		if err != nil {
			return f, fmt.Errorf("hbio: bad width in %q", orig)
		}
		f.width = w
		return f, f.check(orig)
	}
	w, err := strconv.Atoi(rest[:dot])
	if err != nil {
		return f, fmt.Errorf("hbio: bad width in %q", orig)
	}
	p, err := strconv.Atoi(rest[dot+1:])
	if err != nil {
		return f, fmt.Errorf("hbio: bad precision in %q", orig)
	}
	f.width, f.prec = w, p
	return f, f.check(orig)
}

// check rejects a descriptor no field can be read with.
func (f format) check(orig string) error {
	if f.perLine < 1 || f.width < 1 {
		return fmt.Errorf("hbio: bad format %q: repeat count and width must be positive", orig)
	}
	return nil
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// Write emits m as a Harwell-Boeing file. Pattern-only matrices are
// written as PSA; matrices with values as RSA. title and key identify the
// matrix (truncated to 72 and 8 characters).
func Write(w io.Writer, m *sparse.Matrix, title, key string) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("hbio: refusing to write invalid matrix: %w", err)
	}
	bw := bufio.NewWriter(w)
	ptrFmt := format{perLine: 10, kind: 'I', width: 8}
	indFmt := format{perLine: 10, kind: 'I', width: 8}
	valFmt := format{perLine: 4, kind: 'E', width: 20, prec: 12}

	nnz := m.NNZ()
	ptrLines := cardCount(m.N+1, ptrFmt.perLine)
	indLines := cardCount(nnz, indFmt.perLine)
	valLines := 0
	mxtype := "PSA"
	if m.Val != nil {
		mxtype = "RSA"
		valLines = cardCount(nnz, valFmt.perLine)
	}
	total := ptrLines + indLines + valLines

	if len(title) > 72 {
		title = title[:72]
	}
	if len(key) > 8 {
		key = key[:8]
	}
	fmt.Fprintf(bw, "%-72s%-8s\n", title, key)
	fmt.Fprintf(bw, "%14d%14d%14d%14d%14d\n", total, ptrLines, indLines, valLines, 0)
	fmt.Fprintf(bw, "%-3s%11s%14d%14d%14d%14d\n", mxtype, "", m.N, m.N, nnz, 0)
	valStr := ""
	if m.Val != nil {
		valStr = valFmt.String()
	}
	fmt.Fprintf(bw, "%-16s%-16s%-20s%-20s\n", ptrFmt.String(), indFmt.String(), valStr, "")

	writeInts := func(xs []int, f format) {
		for k, x := range xs {
			fmt.Fprintf(bw, "%*d", f.width, x)
			if (k+1)%f.perLine == 0 || k == len(xs)-1 {
				bw.WriteByte('\n')
			}
		}
	}
	// 1-based pointers and indices, per the Fortran convention.
	ptr := make([]int, len(m.ColPtr))
	for i, p := range m.ColPtr {
		ptr[i] = p + 1
	}
	ind := make([]int, len(m.RowInd))
	for i, r := range m.RowInd {
		ind[i] = r + 1
	}
	writeInts(ptr, ptrFmt)
	writeInts(ind, indFmt)
	if m.Val != nil {
		for k, v := range m.Val {
			fmt.Fprintf(bw, "%*.*E", valFmt.width, valFmt.prec, v)
			if (k+1)%valFmt.perLine == 0 || k == len(m.Val)-1 {
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}

func cardCount(n, perLine int) int {
	if n == 0 {
		return 0
	}
	return (n + perLine - 1) / perLine
}

// Read parses a Harwell-Boeing file holding an assembled symmetric matrix
// (MXTYPE RSA or PSA). Right-hand-side blocks, if present, are skipped.
func Read(r io.Reader) (*sparse.Matrix, Header, error) {
	var hdr Header
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var lines []string
	size := 0
	for sc.Scan() {
		lines = append(lines, sc.Text())
		size += len(sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		return nil, hdr, err
	}
	if len(lines) < 4 {
		return nil, hdr, errors.New("hbio: file too short for header")
	}
	l1 := lines[0]
	if len(l1) > 72 {
		hdr.Title = strings.TrimRight(l1[:72], " ")
		hdr.Key = strings.TrimSpace(l1[72:])
	} else {
		hdr.Title = strings.TrimRight(l1, " ")
	}
	c2 := strings.Fields(lines[1])
	if len(c2) < 4 {
		return nil, hdr, fmt.Errorf("hbio: bad card-count line %q", lines[1])
	}
	ptrCrd, err1 := strconv.Atoi(c2[1])
	indCrd, err2 := strconv.Atoi(c2[2])
	valCrd, err3 := strconv.Atoi(c2[3])
	var rhsCrd int // RHSCRD is optional: absent means no right-hand side
	var err4 error
	if len(c2) >= 5 {
		rhsCrd, err4 = strconv.Atoi(c2[4])
	}
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || ptrCrd < 0 || indCrd < 0 || valCrd < 0 || rhsCrd < 0 {
		return nil, hdr, fmt.Errorf("hbio: bad card counts %q", lines[1])
	}
	l3 := lines[2]
	if len(l3) < 3 {
		return nil, hdr, fmt.Errorf("hbio: bad type line %q", l3)
	}
	hdr.Type = strings.ToUpper(strings.TrimSpace(l3[:3]))
	if hdr.Type != "RSA" && hdr.Type != "PSA" {
		return nil, hdr, fmt.Errorf("hbio: unsupported matrix type %q (want RSA or PSA)", hdr.Type)
	}
	c3 := strings.Fields(l3[3:])
	if len(c3) < 3 {
		return nil, hdr, fmt.Errorf("hbio: bad dimension line %q", l3)
	}
	hdr.NRow, err1 = strconv.Atoi(c3[0])
	hdr.NCol, err2 = strconv.Atoi(c3[1])
	hdr.NNZ, err3 = strconv.Atoi(c3[2])
	// Every entry takes at least one byte, which bounds what the parsers
	// below allocate by the size of the input.
	if err1 != nil || err2 != nil || err3 != nil ||
		hdr.NRow < 0 || hdr.NRow >= size || hdr.NNZ < 0 || hdr.NNZ > size {
		return nil, hdr, fmt.Errorf("hbio: bad dimensions %q", l3)
	}
	if hdr.NRow != hdr.NCol {
		return nil, hdr, fmt.Errorf("hbio: non-square symmetric matrix %dx%d", hdr.NRow, hdr.NCol)
	}
	l4 := lines[3]
	pad := func(s string, to int) string {
		for len(s) < to {
			s += " "
		}
		return s
	}
	l4 = pad(l4, 72)
	ptrFmt, err := parseFormat(l4[0:16])
	if err != nil {
		return nil, hdr, err
	}
	indFmt, err := parseFormat(l4[16:32])
	if err != nil {
		return nil, hdr, err
	}
	var valFmt format
	if valCrd > 0 {
		valFmt, err = parseFormat(l4[32:52])
		if err != nil {
			return nil, hdr, err
		}
	}
	body := 4
	if rhsCrd > 0 {
		body = 5 // skip the RHS descriptor card
	}
	need := body + ptrCrd + indCrd + valCrd
	if len(lines) < need {
		return nil, hdr, fmt.Errorf("hbio: file has %d lines, need %d", len(lines), need)
	}
	ptrBlock := lines[body : body+ptrCrd]
	indBlock := lines[body+ptrCrd : body+ptrCrd+indCrd]
	valBlock := lines[body+ptrCrd+indCrd : need]

	ptr, err := parseIntBlock(ptrBlock, ptrFmt, hdr.NCol+1)
	if err != nil {
		return nil, hdr, fmt.Errorf("hbio: pointer block: %w", err)
	}
	// Column j holds entries ptr[j]..ptr[j+1]-1, so the pointers must run
	// from 1 to NNZ+1 without decreasing, or entries are skipped or misread.
	if ptr[0] != 1 || ptr[hdr.NCol] != hdr.NNZ+1 || !slices.IsSorted(ptr) {
		return nil, hdr, fmt.Errorf("hbio: pointer block must run from 1 to %d without decreasing", hdr.NNZ+1)
	}
	ind, err := parseIntBlock(indBlock, indFmt, hdr.NNZ)
	if err != nil {
		return nil, hdr, fmt.Errorf("hbio: index block: %w", err)
	}
	var vals []float64
	if valCrd > 0 {
		vals, err = parseFloatBlock(valBlock, valFmt, hdr.NNZ)
		if err != nil {
			return nil, hdr, fmt.Errorf("hbio: value block: %w", err)
		}
	}
	// Convert from 1-based CSC lower triangle. The HB convention stores
	// the lower triangle for symmetric types, matching sparse.Matrix: every
	// row of column j lies in [j, NRow) and appears once, or FromTriplets
	// would mirror an upper entry or sum a repeated one without a word.
	var rows, cols []int
	var tv []float64
	seen := make([]int, hdr.NRow) // seen[i] == j+1: column j holds row i
	for j := 0; j < hdr.NCol; j++ {
		for p := ptr[j] - 1; p < ptr[j+1]-1; p++ {
			i := ind[p] - 1
			if i < j || i >= hdr.NRow || seen[i] == j+1 {
				return nil, hdr, fmt.Errorf("hbio: column %d: row %d repeated or outside %d..%d", j+1, i+1, j+1, hdr.NRow)
			}
			seen[i] = j + 1
			rows = append(rows, i)
			cols = append(cols, j)
			if vals != nil {
				tv = append(tv, vals[p])
			}
		}
	}
	m, err := sparse.FromTriplets(hdr.NRow, rows, cols, tv)
	if err != nil {
		return nil, hdr, fmt.Errorf("hbio: %w", err)
	}
	return m, hdr, nil
}

func parseIntBlock(block []string, f format, want int) ([]int, error) {
	out := make([]int, 0, want)
	for _, line := range block {
		for pos := 0; pos+f.width <= len(line) || (pos < len(line) && len(out) < want); pos += f.width {
			end := pos + f.width
			if end > len(line) {
				end = len(line)
			}
			field := strings.TrimSpace(line[pos:end])
			if field == "" {
				continue
			}
			x, err := strconv.Atoi(field)
			if err != nil {
				return nil, fmt.Errorf("bad integer field %q: %w", field, err)
			}
			out = append(out, x)
			if len(out) == want {
				break
			}
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("parsed %d integers, want %d", len(out), want)
	}
	return out, nil
}

func parseFloatBlock(block []string, f format, want int) ([]float64, error) {
	out := make([]float64, 0, want)
	for _, line := range block {
		for pos := 0; pos < len(line) && len(out) < want; pos += f.width {
			end := pos + f.width
			if end > len(line) {
				end = len(line)
			}
			field := strings.TrimSpace(line[pos:end])
			if field == "" {
				continue
			}
			// Fortran D exponents are not understood by strconv.
			field = strings.ReplaceAll(strings.ReplaceAll(field, "D", "E"), "d", "e")
			x, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("bad float field %q: %w", field, err)
			}
			out = append(out, x)
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("parsed %d floats, want %d", len(out), want)
	}
	return out, nil
}
