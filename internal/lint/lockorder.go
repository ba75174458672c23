package lint

import (
	"go/ast"
	"strings"
)

// LockOrder returns the lock-hierarchy pass for the striped ledger
// engine. internal/isp's documented discipline is
//
//	freezeMu → stripe locks (ascending index) → cold mu
//
// and every deadlock found since the PR 1 sharding has been a violation
// of it. The pass is a rank query over the shared lockset engine
// (lockset.go): at each acquire it looks at the locks provably held on
// every path to that node, and reports
//
//   - acquiring a lower-ranked lock while holding a higher-ranked one
//     (an inversion: another goroutine running the documented order can
//     deadlock against this path);
//   - acquiring a rank already held (self-deadlock for the mutexes;
//     for stripes, two raw stripe locks held at once must go through
//     lockTwoStripes, which orders by index);
//   - a function that acquires a rank and never releases it anywhere,
//     by defer or by call.
//
// Deferred unlocks keep the lock held for ordering purposes until the
// function returns, matching runtime behavior. The trusted stripe
// helpers' own bodies are not checked.
func LockOrder() Pass {
	return Pass{
		Name: "lockorder",
		Doc:  "freeze → stripes → cold lock order and Lock/Unlock balance in internal/isp",
		Run:  runLockOrder,
	}
}

// Lock ranks for lockorder, low to high. Acquisitions must be strictly
// increasing: re-acquiring a held rank is flagged too.
const (
	rankFreeze = iota // freezeMu (RWMutex snapshot gate)
	rankStripe        // per-user account stripes
	rankCold          // the cold-state mutex (pool, handshakes, outbox)
	numRanks
)

var rankNames = [numRanks]string{"freezeMu", "stripe lock", "cold mu"}

// lockRank ranks a lock key: freezeMu fields, then the mu of any type
// named like a stripe, then every other mu. Other locks are unranked.
func lockRank(key string) (int, bool) {
	dot := strings.LastIndexByte(key, '.')
	field := key[dot+1:]
	owner := key[strings.LastIndexByte(key[:dot], '.')+1 : dot]
	switch {
	case field == "freezeMu":
		return rankFreeze, true
	case field == "mu" && strings.Contains(strings.ToLower(owner), "stripe"):
		return rankStripe, true
	case field == "mu":
		return rankCold, true
	}
	return 0, false
}

func runLockOrder(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.LockOrderPkgs) {
		return nil
	}
	d := &passDiags{u: u, pass: "lockorder"}
	units, _, _ := u.flowInfo()
	for _, f := range u.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || trustedLockPrimitives[fd.Name.Name] {
				continue
			}
			for _, fu := range units {
				if fu.pos >= fd.Pos() && fu.pos < fd.End() {
					checkLockRanks(u, fu, d)
				}
			}
			checkLockBalance(u, fd, d)
		}
	}
	return d.diags
}

// checkLockRanks reports every acquire in fu that does not rank above
// all locks held at that node.
func checkLockRanks(u *Unit, fu *flowUnit, d *passDiags) {
	for n, s := range u.locksetOf(fu).all {
		for _, op := range u.lockOpsOf(n) {
			if rank, ranked := lockRank(op.key); ranked && op.acquire {
				if held, ok := heldRankFrom(s, rank); ok {
					what := "inverts the freeze → stripes → cold order"
					if held == rank {
						what = "is already held (self-deadlock, or unordered double acquisition)"
						if rank == rankStripe {
							what = "is already held; two stripes must be taken via lockTwoStripes (ascending index)"
						}
					}
					d.report(op.pos, "acquires %s while the %s %s", rankNames[rank], rankNames[held], what)
				}
			}
			s = applyLockOp(s, op)
		}
	}
}

// heldRankFrom returns the lowest rank at or above from with a lock
// held in s.
func heldRankFrom(s lockState, from int) (int, bool) {
	best := numRanks
	for key := range s {
		if r, ok := lockRank(key); ok && r >= from && r < best && s.held(key) {
			best = r
		}
	}
	return best, best < numRanks
}

// checkLockBalance reports a function that acquires a rank and never
// releases it anywhere in its body, nested literals included.
func checkLockBalance(u *Unit, fd *ast.FuncDecl, d *passDiags) {
	var acquired, releasedAny [numRanks]bool
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := u.classifyLockOp(call); ok {
				if r, ranked := lockRank(op.key); ranked {
					acquired[r] = acquired[r] || op.acquire
					releasedAny[r] = releasedAny[r] || !op.acquire
				}
			}
		}
		return true
	})
	for r := 0; r < numRanks; r++ {
		if acquired[r] && !releasedAny[r] {
			d.diags = append(d.diags, u.diag(d.pass, fd.Pos(),
				"%s acquires the %s but never releases it (no Unlock or defer on any path)", fd.Name.Name, rankNames[r]))
		}
	}
}
