package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// panicPolicy enforces the repo's panic contract. Library panics mark
// caller bugs (mismatched schedules, invalid processor counts) and must
// identify their origin with the `"pkg: ..."` message prefix every
// existing panic carries. Command (package main) code faces
// caller-controlled input — flags, file paths, matrix files — where a
// panic is a crash that should have been a validated error (the PR 7
// ParallelSolve class), so commands must not panic at all.
var panicPolicy = &Analyzer{
	Name: "panicpolicy",
	Doc: "library panics must carry the \"pkg: \" message prefix; " +
		"main packages (cmd/, examples/) must not panic at all",
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, builtin := pass.Pkg.Info.Uses[id].(*types.Builtin); !builtin {
					return true // shadowed panic
				}
				if pass.Pkg.isCommand() {
					pass.reportf(call.Pos(),
						"panic in a main package; commands face caller-controlled input — validate it and return an error instead")
					return true
				}
				if len(call.Args) == 1 && hasPkgPrefix(pass, call.Args[0]) {
					return true
				}
				pass.reportf(call.Pos(),
					"panic message must be a string (or fmt.Sprintf) starting with %q so failures identify their package",
					pass.Pkg.Name+": ")
				return true
			})
		}
	},
}

// hasPkgPrefix reports whether the panic argument is a string literal —
// directly or as the format of a fmt.Sprintf/fmt.Errorf call — starting
// with the package-name prefix.
func hasPkgPrefix(pass *Pass, arg ast.Expr) bool {
	prefix := pass.Pkg.Name + ": "
	if lit := stringLit(arg); lit != "" {
		return strings.HasPrefix(lit, prefix)
	}
	call, ok := arg.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	if fn.Name() != "Sprintf" && fn.Name() != "Errorf" && fn.Name() != "Sprint" {
		return false
	}
	return strings.HasPrefix(stringLit(call.Args[0]), prefix)
}

func stringLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return s
}
