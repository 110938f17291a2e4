package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` over map-typed expressions in the
// determinism-critical packages. Go randomizes map iteration order per
// run, so any map range on the path to simulated spans, traffic totals,
// schedules or factor values is a latent bit-reproducibility bug (which is
// why exec.CompileBlocks deduplicates predecessor sets with a stamp array).
// Either iterate sorted keys, collect insertion-ordered slices alongside
// the map, or suppress with an order-insensitivity argument:
//
//	//repro:allow maporder -- result is a map copy; per-key writes commute
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "range over a map has nondeterministic order; in determinism-critical packages " +
		"iterate sorted keys or suppress with an order-insensitivity argument",
	Run: func(pass *Pass) {
		if !detCritical[pass.Pkg.Name] {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(rs.Pos(),
						"range over map %s has nondeterministic iteration order in determinism-critical package %s; sort the keys or suppress with an order-insensitivity reason",
						types.ExprString(rs.X), pass.Pkg.Name)
				}
				return true
			})
		}
	},
}
