package lint

// lifecycle: goroutines must be stoppable and resources must be
// closeable, across the cluster/core/load/obsv layers that own real
// sockets, tickers, and WALs. PR 7's federation boots dozens of
// goroutines and listeners per test; one leaked accept loop or
// unstopped ticker turns -race runs flaky and production restarts
// leaky. Two checks:
//
// Goroutines (syntactic): every `go` statement must have a shutdown
// path — a WaitGroup Done in the body (the owner joins it), a select /
// channel receive (a stop channel parks and releases it), or a body
// that is an allowlisted self-terminating call
// (Config.LifecycleGoAllowed, e.g. http.Server.Serve, which returns
// when the owner closes the server). Spawns through in-package named
// functions are resolved and their bodies checked the same way.
//
// Resources (CFG dataflow, one per function and literal): results of
// Config.LifecycleAcquireFuncs (net.Listen/Dial, Accept, NewTicker,
// smtp.Dial, WAL open/recover, obsv.Start, core constructors) are
// tracked per variable, error-gated like moneyflow summaries (the
// resource only exists on the nil-error branch). A fact is discharged
// by a Close/Stop/Quit/Shutdown call (deferred or direct), by being
// returned (the caller owns it), or by escaping — into a struct field,
// a composite literal, a captured closure, or a goroutine argument.
// Escape into a field or literal of an in-package type carries an
// obligation, mirroring errdrop's API-list approach: the owning type
// must expose a Close/Stop/Shutdown method, otherwise nothing can ever
// release what it holds and the escape is itself the finding. A path
// that reaches an exit with a live fact leaks the resource there —
// the classic shape is an early error return between acquisition and
// the hand-off to the owner.
//
// Deliberately out of scope (documented, not detected): a leak that
// requires tracking a resource through a returned struct into a
// different function's error path — the cluster boot teardown is kept
// honest by code review and the -race gate instead.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Lifecycle returns the goroutine/resource shutdown pass.
func Lifecycle() Pass {
	return Pass{
		Name: "lifecycle",
		Doc:  "every goroutine has a shutdown path and every acquired resource a reachable Close/Stop",
		Run:  runLifecycle,
	}
}

// lcReleaseMethods discharge a resource held in a variable.
var lcReleaseMethods = map[string]bool{
	"Close": true, "Stop": true, "Quit": true, "Shutdown": true, "CloseWAL": true,
}

// lcOwnerMethods is what an owning type must expose when a resource
// escapes into one of its fields.
var lcOwnerMethods = []string{"Close", "Stop", "Shutdown"}

func runLifecycle(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.LifecyclePkgs) {
		return nil
	}
	units, byFunc, _ := u.flowInfo()
	a := &lcAnalyzer{
		passDiags: passDiags{u: u, pass: "lifecycle"},
		byFunc:    byFunc,
		errType:   types.Universe.Lookup("error").Type(),
	}
	for _, f := range u.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				a.checkGoStmt(g)
			}
			return true
		})
	}
	for _, fu := range units {
		a.checkResources(fu)
	}
	return a.diags
}

type lcAnalyzer struct {
	passDiags
	byFunc  map[*types.Func]*flowUnit
	errType types.Type
}

// --- goroutine check ---

// checkGoStmt verifies the spawned body is joinable or stoppable.
func (a *lcAnalyzer) checkGoStmt(g *ast.GoStmt) {
	var body *ast.BlockStmt
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if fn := calleeFunc(a.u.Pkg.Info, g.Call); fn != nil {
			if inStringList(qualifiedFuncName(fn), a.u.Cfg.LifecycleGoAllowed) {
				return // spawned call is itself allowlisted as self-terminating
			}
			if fu, ok := a.byFunc[fn]; ok {
				body = fu.body
			}
		}
	}
	if body == nil {
		return // out-of-package or dynamic target: nothing to inspect
	}
	if a.goBodyJoinable(body) {
		return
	}
	a.report(g.Pos(), "goroutine has no shutdown path: the body signals no WaitGroup.Done, parks on no channel or select, and is not an allowlisted self-terminating call — a Close on the owner cannot join or stop it; add wg.Add/Done or a stop channel (or allow it via Config.LifecycleGoAllowed)")
}

// goBodyJoinable looks for any of the accepted shutdown idioms.
func (a *lcAnalyzer) goBodyJoinable(body *ast.BlockStmt) bool {
	info := a.u.Pkg.Info
	joinable := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joinable {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			joinable = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joinable = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					joinable = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				joinable = true
				return false
			}
			if fn := calleeFunc(info, n); fn != nil {
				if inStringList(qualifiedFuncName(fn), a.u.Cfg.LifecycleGoAllowed) {
					joinable = true
					return false
				}
				// One hop through an in-package helper: `go s.acceptLoop()`
				// where the loop itself holds the Done/select.
				if fu, ok := a.byFunc[fn]; ok && fu.body != body {
					if a.goBodyJoinable(fu.body) {
						joinable = true
						return false
					}
				}
			}
		}
		return true
	})
	return joinable
}

// --- resource check ---

// lcFact is one live resource bound to a variable.
type lcFact struct {
	pos    token.Pos // acquisition site (the finding anchor)
	what   string    // acquiring call, for the message
	errVar string    // fact only exists while this err var is nil ("" = unconditional)
}

// lcState maps tracked variables to live facts. Value semantics keep
// join/equal trivial.
type lcState struct {
	facts map[*types.Var]lcFact
}

func lcEntryState() *lcState {
	return &lcState{facts: map[*types.Var]lcFact{}}
}

func (s *lcState) clone() *lcState {
	n := &lcState{facts: make(map[*types.Var]lcFact, len(s.facts))}
	for k, v := range s.facts {
		n.facts[k] = v
	}
	return n
}

func lcJoin(a, b *lcState) *lcState {
	n := a.clone()
	for v, f := range b.facts {
		if have, ok := n.facts[v]; ok {
			// Live on both paths; prefer the untagged (already err-checked)
			// version so later unrelated gates cannot drop it.
			if have.errVar != "" && f.errVar == "" {
				n.facts[v] = f
			}
			continue
		}
		n.facts[v] = f
	}
	return n
}

func lcEqual(a, b *lcState) bool {
	if len(a.facts) != len(b.facts) {
		return false
	}
	for v, f := range a.facts {
		g, ok := b.facts[v]
		if !ok || f != g {
			return false
		}
	}
	return true
}

// lcGate applies an `if err != nil` branch: on the error branch the
// acquisition failed and the resource never existed; on the nil branch
// the fact becomes unconditional.
func lcGate(s *lcState, errVar string, wantErr bool) *lcState {
	n := &lcState{facts: make(map[*types.Var]lcFact, len(s.facts))}
	for v, f := range s.facts {
		if f.errVar == errVar {
			if wantErr {
				continue
			}
			f.errVar = ""
		}
		n.facts[v] = f
	}
	return n
}

func (a *lcAnalyzer) checkResources(fu *flowUnit) {
	g := a.u.cfgOf(fu.body)
	lat := flowLattice[*lcState]{
		transfer: func(s *lcState, n ast.Node) *lcState { return a.transfer(s, n) },
		join:     lcJoin,
		equal:    lcEqual,
		gate:     lcGate,
	}
	in := forwardFlow(g, lcEntryState(), lat)

	leaked := map[token.Pos]string{}
	for _, blk := range g.reversePostorder() {
		s, ok := in[blk]
		if !ok {
			continue
		}
		endsInReturn := false
		endsInPanic := false
		for _, n := range blk.nodes {
			s = a.transfer(s, n)
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, f := range s.facts {
					leaked[f.pos] = f.what
				}
				endsInReturn = true
			case *ast.ExprStmt:
				if isPanicCall(n.X) {
					endsInPanic = true
				}
			}
		}
		if endsInReturn || endsInPanic {
			continue
		}
		for _, succ := range blk.succs {
			if succ == g.exit {
				for _, f := range s.facts {
					leaked[f.pos] = f.what
				}
				break
			}
		}
	}
	positions := make([]token.Pos, 0, len(leaked))
	for p := range leaked {
		positions = append(positions, p)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	for _, p := range positions {
		a.report(p, "resource may leak in %s: the %s result can reach an exit without Close/Stop — close it on every path (the early-error-return between acquire and hand-off is the classic shape), return it, or store it in an owner that exposes Close/Stop", fu.name, leaked[p])
	}
}

// trackedVar resolves an expression to a tracked variable's object.
func (a *lcAnalyzer) trackedVar(s *lcState, e ast.Expr) (*types.Var, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := a.u.Pkg.Info.Uses[id]
	if obj == nil {
		obj = a.u.Pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil, false
	}
	_, live := s.facts[v]
	return v, live
}

// transfer applies one CFG node's acquire/release/escape events.
func (a *lcAnalyzer) transfer(s *lcState, n ast.Node) *lcState {
	info := a.u.Pkg.Info
	out := s

	mutable := func() *lcState {
		if out == s {
			out = s.clone()
		}
		return out
	}
	escape := func(v *types.Var) {
		delete(mutable().facts, v)
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		// Direct value flow out of a tracked var: `u.conn = conn`,
		// `conns[i] = c`, `c2 := c`. Argument positions inside calls are
		// borrows, not transfers, so only bare idents count.
		for i, rhs := range n.Rhs {
			if v, live := a.trackedVar(out, rhs); live {
				if i < len(n.Lhs) {
					a.checkFieldEscape(n.Lhs[i], out.facts[v])
				}
				escape(v)
			}
		}
		// Acquisition: `v, err := net.Listen(...)`.
		if len(n.Rhs) == 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				if fn := calleeFunc(info, call); fn != nil &&
					inStringList(qualifiedFuncName(fn), a.u.Cfg.LifecycleAcquireFuncs) {
					errVar := ""
					if last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && last.Name != "_" {
						if tv := info.TypeOf(last); tv != nil && types.Identical(tv, a.errType) {
							errVar = last.Name
						}
					}
					for _, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							// Result stored straight into a field: the owner
							// carries the obligation.
							a.checkFieldEscape(lhs, lcFact{pos: call.Pos(), what: qualifiedFuncName(fn)})
							continue
						}
						if id.Name == "_" || id.Name == errVar {
							continue
						}
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if v, ok := obj.(*types.Var); ok {
							mutable().facts[v] = lcFact{pos: call.Pos(), what: qualifiedFuncName(fn), errVar: errVar}
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if v, live := a.trackedVar(out, r); live {
				escape(v)
			}
		}
	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			if v, live := a.trackedVar(out, arg); live {
				escape(v)
			}
		}
	case *ast.DeferStmt:
		for _, arg := range n.Call.Args {
			if v, live := a.trackedVar(out, arg); live {
				escape(v) // deferred hand-off runs at exit
			}
		}
	}

	// Releases: <var>.Close()/.Stop()/... anywhere in the node,
	// including inside defers.
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !lcReleaseMethods[sel.Sel.Name] {
			return true
		}
		if v, live := a.trackedVar(out, sel.X); live {
			escape(v)
		}
		return true
	})

	// Composite literals: `&Server{ln: ln}` hands the resource to the
	// literal's type, which must be closeable if it is ours.
	inspectShallow(n, func(m ast.Node) bool {
		lit, ok := m.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if v, live := a.trackedVar(out, val); live {
				if tv, ok := info.Types[lit]; ok {
					a.checkOwner(tv.Type, val.Pos(), out.facts[v])
				}
				escape(v)
			}
		}
		return true
	})

	// Closure captures: the literal's goroutine/queue owns the var now.
	ast.Inspect(n, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			if id, ok := inner.(*ast.Ident); ok {
				if obj, ok := info.Uses[id].(*types.Var); ok {
					if _, live := out.facts[obj]; live {
						escape(obj)
					}
				}
			}
			return true
		})
		return false
	})

	return out
}

// checkFieldEscape validates an escape through a field-selector lvalue.
func (a *lcAnalyzer) checkFieldEscape(lhs ast.Expr, f lcFact) {
	sel, ok := fieldSelection(a.u.Pkg.Info, lhs)
	if !ok {
		return // index/local escape: no owner to hold accountable
	}
	s, ok := a.u.Pkg.Info.Selections[sel]
	if !ok {
		return
	}
	a.checkOwner(s.Recv(), sel.Pos(), f)
}

// checkOwner enforces the errdrop-style API obligation: an in-package
// type that absorbs a resource must expose a release method.
func (a *lcAnalyzer) checkOwner(t types.Type, pos token.Pos, f lcFact) {
	named := namedTypeOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	if named.Obj().Pkg().Path() != a.u.Pkg.ImportPath {
		return // foreign owner: its package's contract, not ours
	}
	for i := 0; i < named.NumMethods(); i++ {
		if inStringList(named.Method(i).Name(), lcOwnerMethods) {
			return
		}
	}
	a.report(pos, "the %s result escapes into %s, which has no Close/Stop/Shutdown method: nothing can ever release it — add a teardown method to the owner and call it, mirroring the errdrop API-list discipline", f.what, named.Obj().Name())
}
