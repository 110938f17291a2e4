package lint

import (
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreadWaivers lists the exported names of internal packages that keep
// their export with no reader in another package's non-test code. Every
// entry needs a reason, and an entry whose name has gained a reader or no
// longer exists fails TestEveryExportHasAReader, so the list only shrinks.
var unreadWaivers = map[string]string{
	"exec.Program.Tasks":               "the numeric, part2d and pipeline tests count a compiled program's tasks to see a column split",
	"gen.Random":                       "the random SPD fixture of the tests of eleven other packages",
	"numeric.NotPositiveDefiniteError": "the errors.As contract of a failed factorization, which the exec and pipeline tests check",
	"order.Natural":                    "the identity ordering the model, symbolic and numeric tests factor under",
	"symbolic.Factor.ColIndex":         "the column-index oracle of the exec, part2d, traffic and numeric tests",
	"symbolic.Factor.Has":              "the structure oracle of the model and part2d tests",
	"tables.LoadProblem":               "cmd/sweep's tests serve a small grid under a suite name through it",
}

// unreadExempt names the methods that satisfy an interface whose callers
// reach them through that interface (fmt, errors, exec.Hook, go/types).
var unreadExempt = map[string]bool{"String": true, "Error": true, "OnTask": true, "Import": true}

// TestEveryExportHasAReader holds internal/... to one surface: every
// exported package-level name, and every exported method of a named
// non-interface type, must be read by the non-test code of another
// package of the module (benchmark/, cmd/, examples/ and the root facade
// count). A name read only inside its package is unexported; a name no
// non-test code reads goes, or is waived with a reason.
func TestEveryExportHasAReader(t *testing.T) {
	l := fixtureLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range unreadExports(pkgs, l.ModulePath, unreadWaivers) {
		t.Error(msg)
	}
}

// TestUnreadFixture pins the rule's edges on a module of its own: what it
// flags, what it lets through, and that a stale waiver fails.
func TestUnreadFixture(t *testing.T) {
	root := fixtureLoader(t).RootDir
	l, err := NewLoader(filepath.Join(root, "internal", "lint", "testdata", "unread"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	got := unreadExports(pkgs, l.ModulePath, map[string]string{
		"shape.Gone":   "names nothing",
		"shape.Border": "has a reader in main",
		"shape.Hidden": "still unread",
	})
	want := []string{
		"shape.Area is read only inside its package",
		"shape.Square.Scale has no non-test reader",
		"waiver shape.Border: the name has a reader outside its package",
		"waiver shape.Gone: no such exported name",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// unreadExports returns one finding per exported name of a package under
// module/internal that no other package reads, and one per waiver that
// no longer waives anything, sorted.
func unreadExports(pkgs []*Package, module string, waivers map[string]string) []string {
	// Declared: every candidate, keyed "pkg.Name" or "pkg.Type.Method".
	declared := make(map[types.Object]string)
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, module+"/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[obj] = pkg.Name + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !unreadExempt[m.Name()] {
					declared[m] = pkg.Name + "." + name + "." + m.Name()
				}
			}
		}
	}

	// Readers: every use from another package, then every type that
	// something read names in its signature, fields or type.
	read := make(map[types.Object]bool)
	inside := make(map[types.Object]bool)
	var queue []types.Object
	use := func(from *types.Package, obj types.Object) {
		obj = origin(obj)
		if obj == nil || obj.Pkg() == nil {
			return
		}
		if obj.Pkg() == from {
			inside[obj] = true
			return
		}
		if !read[obj] {
			read[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			use(pkg.Types, obj)
		}
		for _, sel := range pkg.Info.Selections {
			use(pkg.Types, sel.Obj())
		}
	}
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			use(nil, t.Obj())
			walk(types.Unalias(t))
		case *types.Named:
			use(nil, t.Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			if t.Recv() != nil {
				walk(t.Recv().Type())
			}
			for i := 0; i < t.Params().Len(); i++ {
				walk(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				walk(t.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if tn, ok := obj.(*types.TypeName); ok {
			walk(tn.Type().Underlying())
			continue
		}
		walk(obj.Type())
	}

	var out []string
	names := make(map[string]types.Object, len(declared))
	for obj, name := range declared {
		names[name] = obj
		if read[obj] || waivers[name] != "" {
			continue
		}
		if inside[obj] {
			out = append(out, name+" is read only inside its package")
		} else {
			out = append(out, name+" has no non-test reader")
		}
	}
	for name, reason := range waivers {
		obj, ok := names[name]
		switch {
		case !ok:
			out = append(out, "waiver "+name+": no such exported name")
		case read[obj]:
			out = append(out, "waiver "+name+": the name has a reader outside its package")
		case strings.TrimSpace(reason) == "":
			out = append(out, "waiver "+name+": no reason given")
		}
	}
	sort.Strings(out)
	return out
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
