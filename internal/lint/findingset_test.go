package lint

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateFindingSet = flag.Bool("update-findings", false, "rewrite testdata/findings.golden from the current analyzer")

// lockPasses are the passes that share the lockset engine; each must
// report exactly its own rows whether it runs alone or after the
// others have filled the per-Unit caches.
func lockPasses() []Pass { return []Pass{LockOrder(), LockScope(), GuardFlow()} }

// findingRow renders one finding as "<pass> <path>:<line>", path
// relative to base.
func findingRow(t *testing.T, base string, d Diagnostic) string {
	t.Helper()
	abs, err := filepath.Abs(d.Pos.Filename)
	if err == nil {
		abs, err = filepath.Rel(base, abs)
	}
	if err != nil {
		t.Fatalf("relativize %s: %v", d.Pos.Filename, err)
	}
	return d.Pass + " " + filepath.ToSlash(abs) + ":" + itoa(d.Pos.Line)
}

// passRows keeps the rows of one pass.
func passRows(rows []string, pass string) []string {
	var out []string
	for _, r := range rows {
		if strings.HasPrefix(r, pass+" ") {
			out = append(out, r)
		}
	}
	return out
}

// fixtureDirs lists every directory under testdata holding .go files,
// sorted: the set `zlint -testdata internal/lint/testdata` sweeps.
func fixtureDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir("testdata", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk testdata: %v", err)
	}
	sort.Strings(dirs)
	return dirs
}

// TestFindingSet pins the analyzer's exact output, pass by pass and
// line by line, in two sweeps:
//
//   - every fixture package under testdata with every pass and
//     FixtureConfig, after suppression (what `make lint-fixtures`
//     counts);
//   - the whole module with the lock passes and DefaultConfig, before
//     suppression, so a finding that an ignore directive silences stays
//     pinned too.
//
// In both sweeps each lock pass is also run alone on fresh Units and
// must reproduce exactly its rows of the combined run: the shared
// per-Unit caches may not depend on which pass filled them.
//
// After an intentional analyzer or corpus change, regenerate with
// `go test ./internal/lint -run TestFindingSet -update-findings` and
// re-pin LINT_FIXTURE_FINDINGS in the Makefile.
func TestFindingSet(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	// The module loads before any fixture is registered, so the module
	// sweep sees no testdata package.
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	raw := func(passes []Pass) []string {
		units := make([]*Unit, len(pkgs))
		for i, pkg := range pkgs {
			units[i] = &Unit{Pkg: pkg, Cfg: DefaultConfig()}
		}
		var rows []string
		for _, p := range passes {
			for _, u := range units {
				for _, d := range p.Run(u) {
					rows = append(rows, findingRow(t, l.ModuleRoot(), d))
				}
			}
		}
		sort.Strings(rows)
		return rows
	}
	module := raw(lockPasses())
	for _, p := range lockPasses() {
		assertRows(t, "module, "+p.Name+" alone", raw([]Pass{p}), passRows(module, p.Name))
	}

	dirs := fixtureDirs(t)
	paths := make(map[string]string, len(dirs))
	for _, d := range dirs {
		paths[d] = fixturePath(filepath.ToSlash(strings.TrimPrefix(d, "testdata"+string(filepath.Separator))))
		l.RegisterDir(d, paths[d])
	}
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []string
	for _, d := range dirs {
		pkg, err := l.LoadDir(d, paths[d])
		if err != nil {
			t.Fatalf("load %s: %v", d, err)
		}
		cfg := FixtureConfig(paths[d])
		var all []string
		for _, diag := range Run([]*Package{pkg}, Passes(), cfg) {
			all = append(all, findingRow(t, testdata, diag))
		}
		sort.Strings(all)
		fixtures = append(fixtures, all...)
		for _, p := range lockPasses() {
			var alone []string
			for _, diag := range Run([]*Package{pkg}, []Pass{p}, cfg) {
				if diag.Pass == p.Name {
					alone = append(alone, findingRow(t, testdata, diag))
				}
			}
			sort.Strings(alone)
			assertRows(t, d+", "+p.Name+" alone", alone, passRows(all, p.Name))
		}
	}
	sort.Strings(fixtures)

	got := "# Fixture sweep: every pass over each package under testdata, after suppression.\n" +
		strings.Join(fixtures, "\n") + "\n" +
		"# Module sweep: lockorder, lockscope and guardflow over the module, before suppression.\n" +
		strings.Join(module, "\n") + "\n"
	golden := filepath.Join("testdata", "findings.golden")
	if *updateFindingSet {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with -update-findings)", golden, err)
	}
	if got != string(want) {
		t.Errorf("finding set drifted from %s (%d fixture rows, %d module rows):\n%s", golden, len(fixtures), len(module), lineDiff(string(want), got))
	}
}

// assertRows compares two sorted row lists.
func assertRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: rows differ from the combined run:\n%s", what, lineDiff(strings.Join(want, "\n"), strings.Join(got, "\n")))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var out []string
	for l, n := range count {
		for ; n > 0; n-- {
			out = append(out, "- "+l)
		}
		for ; n < 0; n++ {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
