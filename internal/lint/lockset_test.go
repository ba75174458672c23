package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// locksetSrc marks each call to probe with whether box.mu must be held
// there. The cases are the engine's entry and join rules.
const locksetSrc = `package p

import "sync"

type box struct{ mu sync.Mutex }

func probe() {}

func (b *box) invokedInherits() {
	b.mu.Lock()
	func() {
		probe() // held: a literal invoked in place starts from the caller's lockset
	}()
	b.mu.Unlock()
	probe() // free
}

func (b *box) deferredInherits() {
	b.mu.Lock()
	defer func() {
		probe() // held: the defer site's lockset, as guardflow checks it
	}()
	defer b.mu.Unlock()
	probe() // held: a deferred unlock keeps the lock until return
}

func (b *box) spawnedStartsEmpty() {
	b.mu.Lock()
	go func() {
		probe() // free: a go body holds nothing
	}()
	run(func() {
		probe() // free: a passed literal runs on some other lockset
	})
	b.mu.Unlock()
}

func run(f func()) { f() }

func (b *box) oneArmLocks(c bool) {
	if c {
		b.mu.Lock()
	}
	probe() // free: held on one path only
	if c {
		b.mu.Unlock()
	}
}

func (b *box) everyArmLocks(c bool) {
	if c {
		b.mu.Lock()
	} else {
		b.mu.Lock()
	}
	probe() // held: held on every path
	b.mu.Unlock()
}

func (b *box) loopReleases(n int) {
	for i := 0; i < n; i++ {
		b.mu.Lock()
		probe() // held
		b.mu.Unlock()
	}
	probe() // free
}
`

func TestLocksetEntryAndJoin(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(locksetSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	const path = "zmail/internal/lint/testdata/locksetprobe"
	pkg, err := sharedLoader(t).LoadDir(dir, path)
	if err != nil {
		t.Fatal(err)
	}
	u := &Unit{Pkg: pkg, Cfg: DefaultConfig()}
	lines := strings.Split(locksetSrc, "\n")
	probes := 0
	units, _, _ := u.flowInfo()
	for _, fu := range units {
		for n, s := range u.locksetOf(fu).all {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if id, isID := call.Fun.(*ast.Ident); !ok || !isID || id.Name != "probe" {
				continue
			}
			probes++
			line := pkg.Fset.Position(call.Pos()).Line
			want := strings.Contains(lines[line-1], "// held")
			if got := s.held(path + ".box.mu"); got != want {
				t.Errorf("line %d (%s): held = %v, want %v", line, strings.TrimSpace(lines[line-1]), got, want)
			}
		}
	}
	if want := strings.Count(locksetSrc, "probe() //"); probes != want {
		t.Errorf("checked %d probes, want %d", probes, want)
	}
}
