package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufPool enforces the pooled-buffer lifecycle: every rpc.GetBuf result
// must reach rpc.PutBuf (directly, via defer, or via a call to a
// //gkfs:owns-buf function) on every path out of the acquiring function,
// and must not be used after it was released. Storing the buffer into a
// struct field, map, slice, channel, composite literal, returning it, or
// handing it to a goroutine transfers ownership out of the function and
// ends local tracking — those boundaries are where the //gkfs:owns-buf
// and "caller frees" doc conventions take over.
var BufPool = &Analyzer{
	Name: "bufpool",
	Doc:  "rpc.GetBuf results must reach rpc.PutBuf or an ownership transfer on every path, and never be used after release",
	Run:  runBufPool,
}

// bufState is the per-path lifecycle state of one tracked buffer.
type bufState int

const (
	bufInactive  bufState = iota // not yet acquired on this path
	bufHeld                      // acquired, release still owed
	bufMaybe                     // owed on some merged-in path
	bufReleased                  // released or transferred; uses are errors
	bufSatisfied                 // release guaranteed (defer) or path never acquired; uses fine
)

// mergeBuf joins the states of two control-flow paths.
func mergeBuf(a, b bufState) bufState {
	if a == b {
		return a
	}
	if a == bufHeld || a == bufMaybe || b == bufHeld || b == bufMaybe {
		return bufMaybe
	}
	// Distinct members of {Inactive, Released, Satisfied}: the release
	// obligation is met either way; tolerate uses since one path allows
	// them.
	return bufSatisfied
}

func runBufPool(pass *Pass) {
	c := &bufChecker{pass: pass, owns: ownsBufFuncs(pass)}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.checkBody(fn.Body)
				}
			case *ast.FuncLit:
				c.checkBody(fn.Body)
			}
			return true
		})
	}
}

// ownsBufFuncs collects this package's //gkfs:owns-buf functions.
func ownsBufFuncs(pass *Pass) map[types.Object]bool {
	owns := make(map[types.Object]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc, "owns-buf") {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				owns[obj] = true
			}
		}
	}
	return owns
}

type bufChecker struct {
	pass *Pass
	owns map[types.Object]bool
}

// calleeObj resolves a call's static callee object, if any.
func (c *bufChecker) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return c.pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		return c.pass.Info.Uses[fun.Sel]
	}
	return nil
}

// isPoolFunc reports whether call invokes repro/internal/rpc.GetBuf or
// PutBuf (also matching unqualified references inside package rpc).
func (c *bufChecker) isPoolFunc(call *ast.CallExpr, name string) bool {
	fn, ok := c.calleeObj(call).(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	pkg := fn.Pkg()
	return pkg != nil && pkg.Name() == "rpc"
}

// transfersOwnership reports whether calling this callee with the buffer
// hands the release obligation to it.
func (c *bufChecker) transfersOwnership(call *ast.CallExpr) bool {
	obj := c.calleeObj(call)
	return obj != nil && c.owns[obj]
}

// acquisition is one statement binding a GetBuf result to a local.
type acquisition struct {
	stmt ast.Stmt     // the binding statement
	obj  types.Object // the local holding the buffer
	pos  token.Pos    // position of the GetBuf call
}

// checkBody analyzes one function body: classifies every GetBuf call as
// a tracked local acquisition or an immediate transfer (or reports a
// drop), then path-walks each tracked acquisition.
func (c *bufChecker) checkBody(body *ast.BlockStmt) {
	// Bail out on goto: the structural walk cannot model it.
	unsupported := false
	ast.Inspect(body, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
			unsupported = true
		}
		return !unsupported
	})
	if unsupported {
		return
	}

	acqs, ok := c.collectAcquisitions(body)
	if !ok {
		return
	}
	for _, acq := range acqs {
		w := &bufWalk{c: c, acq: acq}
		st, terminated := w.stmts(body.List, bufInactive)
		if !terminated && (st == bufHeld || st == bufMaybe) {
			c.leak(acq, "function exit")
		} else if w.leaked != "" {
			c.leak(acq, w.leaked)
		}
	}
}

// leak reports a missed release at the acquisition site, naming the
// first escaping path.
func (c *bufChecker) leak(acq acquisition, where string) {
	c.pass.Reportf(acq.pos,
		"rpc.GetBuf result may not reach rpc.PutBuf on %s; release it, defer the release, or transfer ownership (//gkfs:owns-buf)", where)
}

// collectAcquisitions finds every GetBuf call in body (excluding nested
// function literals, which are analyzed separately), recording
// ident-bound results for path tracking and reporting results that are
// discarded outright. Returns ok=false when an acquisition shape is too
// dynamic to classify (none currently are).
func (c *bufChecker) collectAcquisitions(body *ast.BlockStmt) ([]acquisition, bool) {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	var calls []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok && len(stack) > 1 {
			stack = stack[:len(stack)-1]
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && c.isPoolFunc(call, "GetBuf") {
			calls = append(calls, call)
		}
		return true
	})

	var acqs []acquisition
	for _, call := range calls {
		// Climb out of paren/slice/index wrappers to the binding context.
		var node ast.Node = call
		for {
			p := parents[node]
			switch p.(type) {
			case *ast.ParenExpr, *ast.SliceExpr, *ast.IndexExpr:
				node = p
				continue
			}
			break
		}
		switch p := parents[node].(type) {
		case *ast.AssignStmt:
			if obj := bindTarget(c.pass, p, node.(ast.Expr)); obj != nil {
				acqs = append(acqs, acquisition{stmt: p, obj: obj, pos: call.Pos()})
				continue
			}
			// Assigned into a field, map, slice element, or dereference:
			// ownership moves into that structure.
			if isRHS(p, node.(ast.Expr)) {
				continue
			}
			c.pass.Reportf(call.Pos(), "rpc.GetBuf result is discarded; the buffer can never be released")
		case *ast.ValueSpec:
			if obj := specTarget(c.pass, p, node.(ast.Expr)); obj != nil {
				acqs = append(acqs, acquisition{stmt: parents[p].(*ast.DeclStmt), obj: obj, pos: call.Pos()})
				continue
			}
			c.pass.Reportf(call.Pos(), "rpc.GetBuf result is discarded; the buffer can never be released")
		case *ast.ReturnStmt:
			// Transfer to the caller.
		case *ast.CallExpr:
			if c.isPoolFunc(p, "PutBuf") || c.transfersOwnership(p) {
				continue
			}
			c.pass.Reportf(call.Pos(),
				"rpc.GetBuf result passed to a function that does not take ownership; bind it and release it, or annotate the callee //gkfs:owns-buf")
		case *ast.KeyValueExpr, *ast.CompositeLit, *ast.SendStmt:
			// Transfer into a structure or channel.
		case *ast.ExprStmt:
			c.pass.Reportf(call.Pos(), "rpc.GetBuf result is discarded; the buffer can never be released")
		default:
			// Unclassified context (e.g. binary expression): treat as a
			// borrow-and-lose shape.
			c.pass.Reportf(call.Pos(), "rpc.GetBuf result is discarded; the buffer can never be released")
		}
	}
	return acqs, true
}

// bindTarget returns the local object an assignment binds the given RHS
// expression to, or nil when the target is not a plain identifier.
func bindTarget(pass *Pass, as *ast.AssignStmt, rhs ast.Expr) types.Object {
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, r := range as.Rhs {
		if r != rhs {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}
	return nil
}

// isRHS reports whether expr is one of the assignment's right-hand sides.
func isRHS(as *ast.AssignStmt, expr ast.Expr) bool {
	for _, r := range as.Rhs {
		if r == expr {
			return true
		}
	}
	return false
}

// specTarget is bindTarget for `var x = rpc.GetBuf(n)` declarations.
func specTarget(pass *Pass, spec *ast.ValueSpec, rhs ast.Expr) types.Object {
	if len(spec.Names) != len(spec.Values) {
		return nil
	}
	for i, v := range spec.Values {
		if v != rhs {
			continue
		}
		if spec.Names[i].Name == "_" {
			return nil
		}
		return pass.Info.Defs[spec.Names[i]]
	}
	return nil
}

// bufWalk path-walks one function body for one acquisition.
type bufWalk struct {
	c      *bufChecker
	acq    acquisition
	leaked string // first leaking exit found ("" if none)
}

// note records the first leaking exit.
func (w *bufWalk) note(where string) {
	if w.leaked == "" {
		w.leaked = where
	}
}

// uses reports whether n references the tracked buffer outside nested
// function literals.
func (w *bufWalk) uses(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && w.c.pass.Info.Uses[id] == w.acq.obj {
			found = true
		}
		return !found
	})
	return found
}

// capturedByFuncLit reports whether a nested function literal under n
// references the tracked buffer.
func (w *bufWalk) capturedByFuncLit(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok && w.c.pass.Info.Uses[id] == w.acq.obj {
					found = true
				}
				return !found
			})
			return false
		}
		return !found
	})
	return found
}

// releasesInExpr reports whether n contains, outside nested literals, a
// call that releases or takes ownership of the buffer.
func (w *bufWalk) releasesInExpr(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok && w.callReleases(call) {
			found = true
		}
		return !found
	})
	return found
}

// callReleases reports whether this specific call releases or takes
// ownership of the tracked buffer.
func (w *bufWalk) callReleases(call *ast.CallExpr) bool {
	if !w.c.isPoolFunc(call, "PutBuf") && !w.c.transfersOwnership(call) {
		return false
	}
	for _, arg := range call.Args {
		if w.uses(arg) {
			return true
		}
	}
	return false
}

// checkUse flags a use after release.
func (w *bufWalk) checkUse(n ast.Node, st bufState) {
	if st != bufReleased || n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && w.c.pass.Info.Uses[id] == w.acq.obj {
			w.c.pass.Reportf(id.Pos(), "buffer used after rpc.PutBuf released it back to the pool")
			return false
		}
		return true
	})
}

// stmts walks a statement sequence, returning the outgoing state and
// whether every path through the sequence terminates (return/panic).
func (w *bufWalk) stmts(list []ast.Stmt, st bufState) (bufState, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

// stmt walks one statement.
func (w *bufWalk) stmt(s ast.Stmt, st bufState) (bufState, bool) {
	if s == w.acq.stmt {
		// The binding statement: evaluate RHS in the old state, then the
		// buffer is live. Re-acquisition also re-arms tracking.
		return bufHeld, false
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if w.callReleases(call) {
				if st == bufReleased {
					w.c.pass.Reportf(call.Pos(), "buffer released twice; double rpc.PutBuf corrupts the pool")
				}
				return bufReleased, false
			}
			if isPanicCall(w.c.pass, call) {
				// Unwinding: deferred releases still run; a held buffer is
				// reclaimed by GC rather than pool-leaked, so don't flag.
				return st, true
			}
		}
		w.checkUse(s.X, st)
		if (st == bufHeld || st == bufMaybe) && w.capturedByFuncLit(s.X) {
			// Synchronous call with a closure borrowing the buffer: still
			// held afterwards. (Transfer shapes hand the closure to go/defer
			// or store it; those are handled in their statements.)
			return st, false
		}
		return st, false

	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.checkUse(r, st)
		}
		if st == bufHeld || st == bufMaybe {
			if w.releasesInExpr(s) {
				return bufReleased, false
			}
			// Buffer stored anywhere but back into its own variable is a
			// transfer; capture by a stored closure likewise.
			if w.transferInAssign(s) || w.capturedByFuncLit(s) {
				return bufReleased, false
			}
			// Overwriting the tracked variable while held leaks the old
			// buffer.
			for i, l := range s.Lhs {
				if id, ok := l.(*ast.Ident); ok && w.c.pass.Info.Uses[id] == w.acq.obj {
					if i < len(s.Rhs) && w.uses(s.Rhs[i]) {
						continue // self-update: b = append(b, ...)
					}
					w.c.pass.Reportf(s.Pos(), "buffer overwritten while still owed to the pool; release it first")
					return bufSatisfied, false
				}
			}
		}
		return st, false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkUse(v, st)
					}
				}
			}
		}
		return st, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkUse(r, st)
		}
		if st == bufHeld || st == bufMaybe {
			returned := false
			for _, r := range s.Results {
				if w.storesBuf(r) || w.capturedByFuncLit(r) {
					returned = true
				}
			}
			if !returned {
				w.note("return at " + w.c.pass.Fset.Position(s.Pos()).String())
			}
		}
		return bufSatisfied, true

	case *ast.DeferStmt:
		if w.callReleases(s.Call) {
			return bufSatisfied, false
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			released := false
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok && w.callReleases(call) {
					released = true
				}
				return !released
			})
			if released {
				return bufSatisfied, false
			}
		}
		w.checkUse(s.Call, st)
		return st, false

	case *ast.GoStmt:
		w.checkUse(s.Call, st)
		if st == bufHeld || st == bufMaybe {
			if w.uses(s.Call) || w.capturedByFuncLit(s.Call) {
				// The goroutine owns it now.
				return bufReleased, false
			}
		}
		return st, false

	case *ast.SendStmt:
		w.checkUse(s.Chan, st)
		w.checkUse(s.Value, st)
		if (st == bufHeld || st == bufMaybe) && (w.storesBuf(s.Value) || w.capturedByFuncLit(s.Value)) {
			return bufReleased, false
		}
		return st, false

	case *ast.IfStmt:
		if s.Init != nil {
			var term bool
			st, term = w.stmt(s.Init, st)
			if term {
				return st, true
			}
		}
		w.checkUse(s.Cond, st)
		thenSt, thenTerm := w.stmts(s.Body.List, st)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, st)
		}
		switch {
		case thenTerm && elseTerm:
			return bufSatisfied, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeBuf(thenSt, elseSt), false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			var term bool
			st, term = w.stmt(s.Init, st)
			if term {
				return st, true
			}
		}
		w.checkUse(s.Cond, st)
		bodySt, _ := w.stmts(s.Body.List, st)
		if s.Post != nil {
			bodySt, _ = w.stmt(s.Post, bodySt)
		}
		return mergeBuf(st, bodySt), false

	case *ast.RangeStmt:
		w.checkUse(s.X, st)
		bodySt, _ := w.stmts(s.Body.List, st)
		return mergeBuf(st, bodySt), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			var term bool
			st, term = w.stmt(s.Init, st)
			if term {
				return st, true
			}
		}
		w.checkUse(s.Tag, st)
		return w.clauses(s.Body.List, st)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			var term bool
			st, term = w.stmt(s.Init, st)
			if term {
				return st, true
			}
		}
		w.checkUse(s.Assign, st)
		return w.clauses(s.Body.List, st)

	case *ast.SelectStmt:
		var states []bufState
		allTerm := true
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			clSt := st
			if comm.Comm != nil {
				var term bool
				clSt, term = w.stmt(comm.Comm, clSt)
				if term {
					continue
				}
			}
			clSt, term := w.stmts(comm.Body, clSt)
			if !term {
				states = append(states, clSt)
				allTerm = false
			}
		}
		if allTerm && len(s.Body.List) > 0 {
			return bufSatisfied, true
		}
		out := st
		for i, cs := range states {
			if i == 0 {
				out = cs
			} else {
				out = mergeBuf(out, cs)
			}
		}
		return out, false

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)

	case *ast.BranchStmt:
		// break/continue leave the linear path; loop/switch merges are
		// already conservative.
		return st, true

	case *ast.IncDecStmt:
		w.checkUse(s.X, st)
		return st, false

	default:
		return st, false
	}
}

// transferInAssign reports whether the assignment stores the buffer into
// anything other than its own variable. Passing the buffer as a plain
// call argument is a borrow, not a store — only the value itself (or a
// reslice of it, or a composite literal wrapping it) moving under a new
// name or into a structure transfers ownership.
func (w *bufWalk) transferInAssign(s *ast.AssignStmt) bool {
	for i, r := range s.Rhs {
		if !w.storesBuf(r) {
			continue
		}
		if i < len(s.Lhs) && len(s.Lhs) == len(s.Rhs) {
			if id, ok := s.Lhs[i].(*ast.Ident); ok && w.c.pass.Info.Uses[id] == w.acq.obj {
				continue // self-update: b = b[:0]
			}
		}
		return true
	}
	return false
}

// storesBuf reports whether evaluating e yields (or embeds in a value)
// the tracked buffer itself, as opposed to merely lending it to a call.
func (w *bufWalk) storesBuf(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return w.c.pass.Info.Uses[e] == w.acq.obj
	case *ast.SliceExpr:
		return w.storesBuf(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.storesBuf(el) {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		return e.Op == token.AND && w.storesBuf(e.X)
	default:
		return false
	}
}

// clauses merges the bodies of switch/type-switch case clauses, adding
// the fall-past path when no default clause exists.
func (w *bufWalk) clauses(list []ast.Stmt, st bufState) (bufState, bool) {
	var states []bufState
	hasDefault := false
	for _, cl := range list {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.checkUse(e, st)
		}
		clSt, term := w.stmts(cc.Body, st)
		if !term {
			states = append(states, clSt)
		}
	}
	if !hasDefault {
		states = append(states, st)
	}
	if len(states) == 0 {
		return bufSatisfied, true
	}
	out := states[0]
	for _, cs := range states[1:] {
		out = mergeBuf(out, cs)
	}
	return out, false
}

// isPanicCall reports whether call is the builtin panic or a
// log.Fatal-style terminator.
func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok {
			switch fn.Name() {
			case "Fatal", "Fatalf", "Exit":
				if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "log" || pkg.Path() == "os") {
					return true
				}
			}
		}
	}
	return false
}
