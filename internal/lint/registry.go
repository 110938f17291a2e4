package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// All returns every shipped analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, PanicPolicy, ProcGuard, NonDeterminism}
}

// Select resolves a comma-separated analyzer-name list against All().
func Select(only string) ([]*Analyzer, error) {
	if only == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(only, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// detCritical names the determinism-critical packages: every package on
// the path from matrix pattern to simulated or executed numbers, where
// iteration order or scheduling nondeterminism would break the
// bit-reproducibility claims (PR 7's bit-identical parallel engine, PR
// 8's content-addressed artifact keys). Identified by package name; the
// maporder and nondeterminism analyzers only fire inside this set.
var detCritical = map[string]bool{
	"exec":     true,
	"numeric":  true,
	"strategy": true,
	"part2d":   true,
	"traffic":  true,
	"symbolic": true,
	"order":    true,
	"sched":    true,
	"model":    true,
	"pipeline": true,
	"artifact": true,
	"tables":   true,
	"calib":    true,
}

// exprPath renders the selector/ident chain of a receiver type ("Store",
// "pkg.T"); expressions that are not plain chains render with a
// placeholder.
func exprPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprPath(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprPath(x.X)
	case *ast.StarExpr:
		return exprPath(x.X)
	}
	return fmt.Sprintf("<expr@%d>", e.Pos())
}

// funcName renders a FuncDecl's display name, with the receiver type for
// methods ("(*Store).Len").
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		return "(*" + exprPath(st.X) + ")." + fd.Name.Name
	}
	return "(" + exprPath(t) + ")." + fd.Name.Name
}
