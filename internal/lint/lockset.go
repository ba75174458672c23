package lint

// The lockset engine: one classifier for lock operations and one
// forward must-hold analysis over each flow unit's CFG. The per-node
// locksets are computed once per Unit and shared by the three lock
// passes, which are queries over them:
//
//   - lockorder asks, at each acquire, whether a lock of the same or a
//     higher rank is held;
//   - lockscope asks, at each blocking operation, whether a lock
//     outside Config.LockScopeAllowedLocks is held;
//   - guardflow asks, at each guarded-field access, whether one of the
//     field's guards is held.
//
// Per lock the state is provably held (read- or write-side), provably
// released, or unknown (absent: possibly held by a caller). Deferred
// unlocks are skipped, so the lock stays held until return. A function
// literal invoked directly (or deferred) starts from the lockset at its
// invocation; every other unit, go bodies included, starts empty.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// lockMode is the per-lock must-state.
type lockMode uint8

const (
	heldR    lockMode = iota + 1 // read side provably held
	heldW                        // write side (or plain Mutex) provably held
	released                     // provably not held (a local acquire/release cycle completed)
)

// lockState maps lock keys ("importpath.Owner.field") to their must-
// state; absent keys are unknown. States are shared between nodes and
// never mutated once built.
type lockState map[string]lockMode

// held reports whether key is provably held, on either side.
func (s lockState) held(key string) bool {
	m := s[key]
	return m == heldR || m == heldW
}

// A lockOp is one classified lock operation.
type lockOp struct {
	key     string // "importpath.Owner.field"
	acquire bool
	read    bool // RLock/RUnlock
	pos     token.Pos
}

// trustedLockPrimitives are the ISP stripe helpers. They acquire or
// release accountStripe.mu on behalf of their caller, so calls to them
// are lock operations; lockTwoStripes orders its two stripes by index
// internally, which is why lockorder does not check their bodies.
var trustedLockPrimitives = map[string]bool{
	"lockStripe":       true,
	"lockTwoStripes":   true,
	"unlockTwoStripes": true,
}

// classifyLockOp is the one lock-operation classifier: a sync
// Lock/RLock/Unlock/RUnlock on a named struct field, or a call to a
// trusted stripe helper.
func (u *Unit) classifyLockOp(call *ast.CallExpr) (lockOp, bool) {
	name := ""
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if trustedLockPrimitives[name] {
		return lockOp{key: u.Pkg.ImportPath + ".accountStripe.mu", acquire: name != "unlockTwoStripes", pos: call.Pos()}, true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock") {
		return lockOp{}, false
	}
	fn, ok := u.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	owner, ok := u.lockOwner(sel.X)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{
		key:     u.Pkg.ImportPath + "." + owner,
		acquire: name == "Lock" || name == "RLock",
		read:    name == "RLock" || name == "RUnlock",
		pos:     call.Pos(),
	}, true
}

// lockOwner resolves the expression a Lock method is called on to
// "Owner.field": e.freezeMu → "Engine.freezeMu", s.mu →
// "accountStripe.mu".
func (u *Unit) lockOwner(x ast.Expr) (string, bool) {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tv, ok := u.Pkg.Info.Types[sel.X]
	if !ok {
		return "", false
	}
	named := namedTypeOf(tv.Type)
	if named == nil {
		return "", false
	}
	return named.Obj().Name() + "." + sel.Sel.Name, true
}

// lockOpsOf lists the lock operations one CFG node performs, in source
// order. Deferred calls are skipped: the lock stays held until return,
// which is exactly what a must-hold analysis wants.
func (u *Unit) lockOpsOf(n ast.Node) []lockOp {
	var ops []lockOp
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if op, ok := u.classifyLockOp(m); ok {
				ops = append(ops, op)
			}
		}
		return true
	})
	return ops
}

// applyLockOp returns s after op; s itself is left untouched.
func applyLockOp(s lockState, op lockOp) lockState {
	ns := make(lockState, len(s)+1)
	maps.Copy(ns, s)
	switch {
	case op.acquire && !op.read:
		ns[op.key] = heldW
	case op.acquire:
		if ns[op.key] != heldW {
			ns[op.key] = heldR
		}
	case !op.read:
		// A write unlock proves no caller holds the lock either (a
		// caller-held Mutex could not have been re-locked here).
		ns[op.key] = released
	default:
		// RUnlock: the read side is shared, a caller may still hold it
		// — back to unknown.
		delete(ns, op.key)
	}
	return ns
}

func joinLockStates(x, y lockState) lockState {
	out := lockState{}
	for k, mx := range x {
		my, ok := y[k]
		if !ok {
			continue
		}
		switch {
		case mx == my:
			out[k] = mx
		case (mx == heldR && my == heldW) || (mx == heldW && my == heldR):
			out[k] = heldR
		}
		// held on one path, released on the other: unknown — drop.
	}
	return out
}

// A lockset is one flow unit's must-hold state before every reachable
// CFG node and at the end of every reachable block. Unreachable nodes
// are absent.
type lockset struct {
	g      *cfg
	before map[ast.Node]lockState
	end    map[*cfgBlock]lockState
}

// all yields every reachable node with the lockset in force when it
// starts, in block order.
func (ls *lockset) all(yield func(ast.Node, lockState) bool) {
	for _, blk := range ls.g.blocks {
		for _, n := range blk.nodes {
			if s, ok := ls.before[n]; ok && !yield(n, s) {
				return
			}
		}
	}
}

// locksetOf returns the lockset of one flow unit. The first call
// computes every unit's, in flowInfo order: an enclosing unit comes
// before the literals it invokes, whose entry lockset it records.
func (u *Unit) locksetOf(fu *flowUnit) *lockset {
	if u.locksets == nil {
		u.locksets = map[*ast.BlockStmt]*lockset{}
		u.invoked = map[*ast.BlockStmt]lockState{}
		units, _, _ := u.flowInfo()
		for _, unit := range units {
			u.locksets[unit.body] = u.computeLockset(unit)
		}
	}
	return u.locksets[fu.body]
}

// invokedInPlace reports whether fu is a function literal invoked or
// deferred directly, rather than spawned by go, passed or stored.
func (u *Unit) invokedInPlace(fu *flowUnit) bool {
	u.locksetOf(fu)
	_, ok := u.invoked[fu.body]
	return ok
}

func (u *Unit) computeLockset(fu *flowUnit) *lockset {
	entry, ok := u.invoked[fu.body]
	if !ok {
		entry = lockState{}
	}
	transfer := func(s lockState, n ast.Node) lockState {
		for _, op := range u.lockOpsOf(n) {
			s = applyLockOp(s, op)
		}
		return s
	}
	g := u.cfgOf(fu.body)
	in := forwardFlow(g, entry, flowLattice[lockState]{
		transfer: transfer,
		join:     joinLockStates,
		equal:    maps.Equal[lockState, lockState],
	})
	ls := &lockset{g: g, before: map[ast.Node]lockState{}, end: map[*cfgBlock]lockState{}}
	for blk, s := range in {
		for _, n := range blk.nodes {
			ls.before[n] = s
			spawned := map[*ast.CallExpr]bool{}
			inspectShallow(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.GoStmt:
					spawned[m.Call] = true
				case *ast.CallExpr:
					if lit, ok := ast.Unparen(m.Fun).(*ast.FuncLit); ok && !spawned[m] {
						u.invoked[lit.Body] = s
					}
				}
				return true
			})
			s = transfer(s, n)
		}
		ls.end[blk] = s
	}
	return ls
}
