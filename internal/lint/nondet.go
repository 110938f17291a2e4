package lint

import (
	"go/ast"
	"go/types"
)

// randCreators are the math/rand package-level functions that construct
// explicitly seeded generators rather than drawing from the global
// source; they are the reproducible way to use the package.
var randCreators = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// nonDeterminism flags the three nondeterminism sources that would break
// the bit-reproducibility claims of the determinism-critical packages:
// time.Now (wall-clock values leaking into results), global math/rand
// calls (process-wide source, seeded per run since Go 1.20), and `go`
// statements (scheduling order). The real execution engines and the
// wall-clock measurement harness intentionally use goroutines and timers
// — their results are pinned bit-for-bit against serial references by the
// *BitIdentity tests — and carry explicit suppressions citing those
// tests.
var nonDeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc: "no time.Now, global math/rand, or go statements in packages claiming " +
		"bit-reproducibility; engines and the measurement harness suppress with the test that pins them",
	Run: func(pass *Pass) {
		if !detCritical[pass.Pkg.Name] {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GoStmt:
					pass.reportf(x.Pos(),
						"go statement in bit-reproducible package %s; results must not depend on goroutine scheduling — pin with a bit-identity test and suppress, or compute serially",
						pass.Pkg.Name)
				case *ast.CallExpr:
					sel, ok := x.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					switch fn.Pkg().Path() {
					case "time":
						if fn.Name() == "Now" {
							pass.reportf(x.Pos(),
								"time.Now in bit-reproducible package %s; wall-clock values must not reach simulated results — keep timing in measurement-only paths and suppress with the pinning test",
								pass.Pkg.Name)
						}
					case "math/rand", "math/rand/v2":
						sig, _ := fn.Type().(*types.Signature)
						if sig != nil && sig.Recv() == nil && !randCreators[fn.Name()] {
							pass.reportf(x.Pos(),
								"global math/rand call rand.%s draws from the process-wide source; use rand.New(rand.NewSource(seed)) so streams replay bit-for-bit",
								fn.Name())
						}
					}
				}
				return true
			})
		}
	},
}
