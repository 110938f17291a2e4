package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"strings"
)

// procNames are the parameter names (of type int) the analyzer treats as
// processor counts.
var procNames = map[string]bool{
	"p": true, "np": true, "procs": true, "nprocs": true,
	"procCount": true, "numProcs": true,
}

// ProcGuard requires every exported function or method with a
// processor-count parameter to validate it before first use: by handing
// it to an exported entry point of another package of the module, which
// this analyzer holds to the same contract (the module's one guard,
// sched.CheckProcs / sched.MustProcs, is such an entry point), to a
// same-package function or method that itself validates the forwarded
// parameter (so thin exported wrappers over a validating core pass), or by
// an explicit comparison against 0/1. Handing the count to package fmt
// only prints it and is not a use.
// An unvalidated P reaches `make([]T, p)` or `j % p` and dies as an
// index-out-of-range or divide-by-zero panic far from the caller's
// mistake — the exact class PR 7 fixed in exec.ParallelSolve.
var ProcGuard = &Analyzer{
	Name: "procguard",
	Doc: "exported functions with a processor-count parameter (p, np, procs, ...) must " +
		"validate it via sched.CheckProcs/MustProcs or an explicit < 1 guard before first use",
	Run: runProcGuard,
}

func runProcGuard(pass *Pass) {
	info := pass.Pkg.Info
	decls := make(map[types.Object]*ast.FuncDecl)
	var all []*ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			all = append(all, fd)
			if obj := info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
		}
	}

	type key struct {
		fd  *ast.FuncDecl
		idx int
	}
	memo := make(map[key]int) // 1 = in progress, 2 = validates, 3 = does not
	var validates func(fd *ast.FuncDecl, idx int) bool

	// guard is a source region that performs (or implies) validation:
	// uses of the parameter inside [lo, hi] are part of the guard itself,
	// and the parameter counts as validated from `at` on.
	type guard struct{ lo, hi, at token.Pos }

	analyze := func(fd *ast.FuncDecl, obj types.Object) bool {
		var uses []token.Pos
		var guards []guard
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if info.Uses[x] == obj {
					uses = append(uses, x.Pos())
				}
			case *ast.IfStmt:
				if condComparesProc(info, x.Cond, obj) {
					guards = append(guards, guard{x.Cond.Pos(), x.Cond.End(), x.Cond.End()})
				}
			case *ast.CallExpr:
				j := argIndexOf(info, x, obj)
				if j < 0 {
					return true
				}
				callee, _ := info.Uses[calleeIdent(x)].(*types.Func)
				target, local := decls[callee]
				switch {
				case local && validates(target, j), !local && forwardsProc(pass.Pkg.Types, callee, j):
					guards = append(guards, guard{x.Pos(), x.End(), x.End()})
				case callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt":
					// Only printed: not a use that can fail, and no validation
					// of the uses after it either.
					guards = append(guards, guard{x.Pos(), x.End(), token.Pos(math.MaxInt)})
				}
			}
			return true
		})
		first := token.Pos(-1)
		for _, u := range uses {
			inGuard := false
			for _, g := range guards {
				if g.lo <= u && u <= g.hi {
					inGuard = true
					break
				}
			}
			if !inGuard && (first < 0 || u < first) {
				first = u
			}
		}
		if first < 0 {
			return true // only used inside guards (or never)
		}
		for _, g := range guards {
			if g.at <= first {
				return true
			}
		}
		return false
	}

	validates = func(fd *ast.FuncDecl, idx int) bool {
		k := key{fd, idx}
		switch memo[k] {
		case 1: // recursion: assume unvalidated
			return false
		case 2:
			return true
		case 3:
			return false
		}
		memo[k] = 1
		obj := paramObjAt(info, fd, idx)
		ok := obj != nil && analyze(fd, obj)
		if ok {
			memo[k] = 2
		} else {
			memo[k] = 3
		}
		return ok
	}

	for _, fd := range all {
		if !fd.Name.IsExported() {
			continue
		}
		idx := 0
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if procNames[name.Name] && isInt(info.Defs[name]) && !validates(fd, idx) {
					pass.Reportf(name.Pos(),
						"exported %s does not validate processor count %q before first use; call sched.CheckProcs/MustProcs or guard with an explicit < 1 check",
						funcName(fd), name.Name)
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
}

func isInt(obj types.Object) bool {
	if obj == nil {
		return false
	}
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// paramObjAt returns the object of the idx-th (flattened) parameter.
func paramObjAt(info *types.Info, fd *ast.FuncDecl, idx int) types.Object {
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if i == idx {
				return info.Defs[name]
			}
			i++
		}
	}
	return nil
}

// argIndexOf returns the index of the call argument that is the bare
// parameter ident, or -1.
func argIndexOf(info *types.Info, call *ast.CallExpr, obj types.Object) int {
	for i, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok && info.Uses[id] == obj {
			return i
		}
	}
	return -1
}

// calleeIdent returns the identifier a call names its function or method
// by, or nil for a computed callee.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

// forwardsProc reports whether callee is an exported function or method of
// another package of this module whose own j-th parameter is a processor
// count. Such an entry point is held to this same contract, so handing it
// the bare parameter validates it: the caller returns the callee's
// "invalid processor count" error (or dies in its prefixed panic) rather
// than keeping a private copy of the check.
func forwardsProc(pkg *types.Package, callee *types.Func, j int) bool {
	if callee == nil || !callee.Exported() || callee.Pkg() == nil || callee.Pkg() == pkg {
		return false
	}
	module, _, _ := strings.Cut(pkg.Path(), "/")
	if other, _, _ := strings.Cut(callee.Pkg().Path(), "/"); other != module {
		return false
	}
	params := callee.Type().(*types.Signature).Params()
	return j < params.Len() && procNames[params.At(j).Name()] && isInt(params.At(j))
}

// condComparesProc reports whether the if-condition contains a comparison
// between the parameter and the constant 0 or 1 (p < 1, p <= 0, 0 >= p,
// p == 0, possibly under && / ||).
func condComparesProc(info *types.Info, cond ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if (isParam(info, be.X, obj) && isZeroOne(info, be.Y)) ||
				(isParam(info, be.Y, obj) && isZeroOne(info, be.X)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isParam(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && info.Uses[id] == obj
}

func isZeroOne(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && (v == 0 || v == 1)
}
