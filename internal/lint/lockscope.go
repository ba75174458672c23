package lint

// lockscope: no blocking work under a held mutex, anywhere in the
// federation. lockorder proves the ISP's lock *hierarchy*; this pass
// generalizes the other half of the discipline — what a critical
// section may contain — to internal/core, internal/cluster,
// internal/bank, and internal/isp. A dial, a wire read/write, an SMTP
// send, a channel operation, or a transport callback executed while a
// stripe, bank, or node mutex is held turns one slow peer into a stall
// for every contender of that lock (the §3 audit round and the SMTP
// accept path both funnel through them).
//
// The pass is a query over the shared lockset engine (lockset.go): at
// every CFG node it runs the blocking checks and reports any that run
// while a lock is provably held on every path to that node. Blocking
// calls are recognized three ways: any net-package call that can touch
// the wire, the configured list (Config.LockScopeBlockingFuncs: wire
// codec, SMTP, transport callbacks, time.Sleep, WaitGroup.Wait), and
// transitively — an in-package function that performs a blocking
// operation is itself blocking to its callers. Calls through
// func-valued struct fields (forward hooks, injected loggers) are
// flagged too: the field's value is arbitrary caller code. Locks whose
// documented job is serializing a connection (core.Uplink.mu) are
// excused via Config.LockScopeAllowedLocks.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockScope returns the lock-held-blocking-call pass.
func LockScope() Pass {
	return Pass{
		Name: "lockscope",
		Doc:  "no network I/O, channel ops, or other blocking calls under a held mutex across the federation",
		Run:  runLockScope,
	}
}

// lsNonBlockingNetMethods are net-package calls that do not wait on the
// wire: closes, address accessors, deadline setters.
var lsNonBlockingNetMethods = map[string]bool{
	"Close": true, "LocalAddr": true, "RemoteAddr": true, "Addr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Network": true, "String": true, "Error": true, "Timeout": true,
	"Temporary": true, "JoinHostPort": true, "SplitHostPort": true,
	"ParseIP": true, "ParseCIDR": true,
}

func runLockScope(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.GuardflowPkgs) {
		return nil
	}
	c := &lsChecker{
		passDiags: passDiags{u: u, pass: "lockscope"},
		mayBlock:  map[*types.Func]string{},
	}
	c.computeMayBlock()
	units, _, _ := u.flowInfo()
	for _, fu := range units {
		c.checkUnit(fu)
	}
	return c.diags
}

type lsChecker struct {
	passDiags
	mayBlock map[*types.Func]string // in-package func → why it blocks
}

// qualifiedFuncName renders a *types.Func as "pkgpath.Name" or
// "pkgpath.Recv.Name" for methods — the form the config lists use.
func qualifiedFuncName(fn *types.Func) string {
	name := fn.Name()
	pkg := fn.Pkg()
	if pkg == nil {
		return name
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedTypeOf(sig.Recv().Type()); named != nil {
			return pkg.Path() + "." + named.Obj().Name() + "." + name
		}
	}
	return pkg.Path() + "." + name
}

// blockingCall classifies one resolved call: is it a known-blocking
// operation, and how should the finding describe it?
func (c *lsChecker) blockingCall(fn *types.Func) (string, bool) {
	q := qualifiedFuncName(fn)
	if inStringList(q, c.u.Cfg.LockScopeBlockingFuncs) {
		return q + " blocks", true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "net" && !lsNonBlockingNetMethods[fn.Name()] {
		return "net." + fn.Name() + " touches the wire", true
	}
	return "", false
}

// computeMayBlock fixpoints the transitive blocking property over the
// package's named functions: a function blocks if its body performs a
// blocking operation directly (outside go statements and function
// literals, which defer the work to another goroutine or a later call)
// or calls an in-package function that does.
func (c *lsChecker) computeMayBlock() {
	info := c.u.Pkg.Info
	type fnDecl struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []fnDecl
	for _, f := range c.u.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, fnDecl{fn: fn, body: fd.Body})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, done := c.mayBlock[d.fn]; done {
				continue
			}
			reason := ""
			lsInspectSync(d.body, func(n ast.Node) bool {
				if reason != "" {
					return false
				}
				switch n := n.(type) {
				case *ast.SendStmt:
					reason = "performs a channel send"
					return false
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						reason = "performs a channel receive"
						return false
					}
				case *ast.CallExpr:
					fn := calleeFunc(info, n)
					if fn == nil {
						return true
					}
					if desc, ok := c.blockingCall(fn); ok {
						reason = "calls " + desc
						return false
					}
					if why, ok := c.mayBlock[fn]; ok && why != "" {
						reason = "calls " + fn.Name() + ", which " + why
						return false
					}
				}
				return true
			})
			if reason != "" {
				c.mayBlock[d.fn] = reason
				changed = true
			}
		}
	}
}

// lsInspectSync walks n skipping function literals and go statements:
// work inside either does not block the current goroutine here.
func lsInspectSync(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case nil:
			return true
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		return visit(m)
	})
}

// flag reports one blocking operation if s holds a lock that is not
// config-allowed, naming the first such lock.
func (c *lsChecker) flag(pos token.Pos, desc string, s lockState) {
	var locks []string
	for k := range s {
		if s.held(k) && !inStringList(k, c.u.Cfg.LockScopeAllowedLocks) {
			locks = append(locks, k)
		}
	}
	if len(locks) == 0 {
		return
	}
	sort.Strings(locks)
	c.report(pos, "%s while holding %s: every contender of the lock stalls behind this operation; move it outside the critical section (the emit-queue idiom), or allow the lock via Config.LockScopeAllowedLocks", desc, locks[0])
}

// checkUnit runs the blocking checks at every reachable node of one
// flow unit against the lockset there.
func (c *lsChecker) checkUnit(fu *flowUnit) {
	ls := c.u.locksetOf(fu)
	// Select comm clauses are judged with their select: with a default
	// arm none of them parks, without one the select itself is flagged.
	comms := map[ast.Node]bool{}
	inspectShallow(fu.body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, clause := range sel.Body.List {
			cc := clause.(*ast.CommClause)
			comms[cc.Comm] = true
			hasDefault = hasDefault || cc.Comm == nil
		}
		if s, ok := ls.end[ls.g.selects[sel]]; ok && !hasDefault {
			c.flag(sel.Select, "select with no default (parks the goroutine)", s)
		}
		return true
	})
	for n, s := range ls.all {
		switch n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			// A spawned goroutine blocks nobody here; deferred calls run
			// at exit and are not judged at the defer.
		default:
			if !comms[n] {
				c.checkNode(n, s)
			}
		}
	}
}

// checkNode flags the blocking operations inside one CFG node.
func (c *lsChecker) checkNode(n ast.Node, s lockState) {
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SendStmt:
			c.flag(m.Arrow, "channel send", s)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				c.flag(m.Pos(), "channel receive", s)
			}
		case *ast.CallExpr:
			fn := calleeFunc(c.u.Pkg.Info, m)
			if fn == nil {
				// A dynamic call through a func-valued struct field runs
				// arbitrary caller code (forward hooks, injected loggers).
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
					if sl, ok := c.u.Pkg.Info.Selections[sel]; ok && sl.Kind() == types.FieldVal {
						if _, isSig := sl.Type().Underlying().(*types.Signature); isSig {
							c.flag(m.Pos(), "call through func-valued field "+sel.Sel.Name, s)
						}
					}
				}
				return true
			}
			if desc, ok := c.blockingCall(fn); ok {
				c.flag(m.Pos(), desc, s)
				return true
			}
			if why, ok := c.mayBlock[fn]; ok && why != "" {
				c.flag(m.Pos(), "call to "+fn.Name()+", which "+why, s)
			}
		}
		return true
	})
}
