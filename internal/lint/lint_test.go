package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader loads every fixture through one Loader so the standard
// library is type-checked once for the whole test binary.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// wantRe extracts the expectation from a `want "regex"` comment.
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// expectations returns line -> expected-message regex for every fixture
// file in dir.
func expectations(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	out := make(map[string][]*regexp.Regexp) // "file:line" -> regexes
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, i+1, m[1], err)
				}
				key := fmt.Sprintf("%s:%d", path, i+1)
				out[key] = append(out[key], re)
			}
		}
	}
	return out
}

// runFixture lints one testdata package with the named analyzers and
// checks the diagnostics against the fixture's want comments: every
// diagnostic must match a want on its line, and every want must be hit.
// It returns the diagnostic count so callers can assert the fixture
// actually seeds failures (the reprolint exit-1 contract).
func runFixture(t *testing.T, fixture string, analyzers []*Analyzer) int {
	t.Helper()
	l := fixtureLoader(t)
	dir := filepath.Join(l.RootDir, "internal", "lint", "testdata", fixture)
	pkgs, err := l.Load("./internal/lint/testdata/" + fixture)
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	diags := Run(pkgs, analyzers)
	want := expectations(t, dir)
	matched := make(map[string]map[int]bool) // key -> index of regex -> hit
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		res := want[key]
		ok := false
		for i, re := range res {
			if re.MatchString(d.Message) {
				if matched[key] == nil {
					matched[key] = make(map[int]bool)
				}
				matched[key][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range want {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, re)
			}
		}
	}
	return len(diags)
}

// TestFixtures runs each analyzer over its seeded fixture package and
// asserts both halves of the contract: the diagnostics agree exactly
// with the want comments, and every fixture seeds at least one failure
// (so `reprolint` demonstrably exits non-zero on each analyzer's bug
// class).
func TestFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
	}{
		{"maporder", "maporder"},
		{"panicpolicy", "panicpolicy"},
		{"panicmain", "panicpolicy"},
		{"procguard", "procguard"},
		{"nondet", "nondeterminism"},
		{"suppress", "maporder"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			az, err := Select(c.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			if n := runFixture(t, c.fixture, az); n == 0 {
				t.Errorf("fixture %s produced no diagnostics; it must seed at least one %s failure",
					c.fixture, c.analyzer)
			}
		})
	}
}

// TestRepoSelfClean is the dogfood gate: the shipped tree must lint
// clean under every analyzer, so any new finding (or any suppression
// that stops suppressing) fails the build here as well as in CI.
func TestRepoSelfClean(t *testing.T) {
	l := fixtureLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages from the module root; the loader is missing most of the tree", len(pkgs))
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestSelect covers the -only flag's resolution, including the error on
// unknown names.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All()))
	}
	two, err := Select("maporder,procguard")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select subset = %d analyzers, err %v; want 2", len(two), err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(\"nosuch\") succeeded; want error")
	}
}
