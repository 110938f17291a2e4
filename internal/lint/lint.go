// Package lint is a repo-native static-analysis framework enforcing the
// invariants the reproduction's headline claims rest on: bit-reproducible
// simulators (maporder, nondeterminism), the panic-message policy and the
// no-panic rule for commands (panicpolicy), and validated processor
// counts at exported entry points (procguard — the PR 7 ParallelSolve
// panic class). Mutex discipline is not linted: the CI race job owns it,
// with a concurrent test per mutex.
//
// The framework is stdlib-only (go/parser + go/types + a source importer;
// go.mod stays zero-dependency): a shared package loader resolves
// module-internal imports from the repo tree and standard-library imports
// from GOROOT source, analyzers walk the typed ASTs, and diagnostics print
// as "file:line: analyzer: message".
//
// Findings are suppressed in place with the directive
//
//	//repro:allow <analyzer>[,<analyzer>...] -- <reason>
//
// on the flagged line or the line above it. The directive is itself
// validated: the reason is mandatory, the analyzer name must exist, and a
// suppression that suppresses nothing is flagged as unused (so stale
// directives cannot rot in the tree).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a typed package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in //repro:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run reports the analyzer's findings on pass.Pkg via pass.reportf.
	Run func(pass *Pass)
}

// Diagnostic is one finding, printable as "file:line: analyzer: message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/exec").
	Path string
	// Name is the package name ("exec", or "main" for commands).
	Name string
	// Dir is the absolute directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	suppressions []*suppression
}

// isCommand reports whether the package is a main package (cmd/ binaries
// and examples), which panicpolicy holds to the no-panic rule.
func (p *Package) isCommand() bool { return p.Name == "main" }

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// typeOf returns the type of an expression, or nil when untyped.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Pkg.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Run runs the given analyzers over the packages, applies //repro:allow
// suppressions, validates the directives themselves (missing reason,
// unknown analyzer, unused suppression), and returns the surviving
// diagnostics sorted by file, line and analyzer. The unused-suppression
// check only considers directives naming analyzers in the run set, so
// running a subset (reprolint -only) never flags the other analyzers'
// suppressions.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(All()))
	for _, a := range All() {
		known[a.Name] = true
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &raw})
		}
		out = append(out, applySuppressions(pkg, raw)...)
		out = append(out, validateDirectives(pkg, known, ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
