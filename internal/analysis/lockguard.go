package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockGuard enforces the "guarded by <mu>" field-comment convention:
// a field so documented may only be read while its mutex is held (RLock
// suffices) and only written under the write lock. The guard is a
// sibling field ("guarded by mu" — the access base must hold base.mu) or
// a qualified type's mutex ("guarded by readahead.mu" — some
// readahead's mu must be held). Function docs saying "Caller holds mu."
// seed the held set for that method. The walk is branch-sensitive: a
// lock released inside a terminating branch stays held on the
// fall-through path, and a lock taken inside one branch does not count
// after the merge.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields documented \"guarded by <mu>\" must only be accessed with that mutex held (write lock for writes)",
	Run:  runLockGuard,
}

// guardSpec names the mutex protecting one field.
type guardSpec struct {
	sibling  string // sibling field name ("mu"), or ""
	typeName string // qualified guard: owning type name…
	muName   string // …and its mutex field
}

// heldLock is one mutex known locked at the current program point.
type heldLock struct {
	muName   string // the mutex field's name ("mu")
	baseName string // type name of the value owning the mutex, "" if free-standing
	write    bool   // Lock (true) vs RLock (false)
}

// heldSet maps rendered lock expressions ("cc.mu") to lock facts.
type heldSet map[string]heldLock

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// intersect keeps only locks held in both sets, downgrading to a read
// lock when either side only holds the read half.
func intersect(a, b heldSet) heldSet {
	out := make(heldSet)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			va.write = va.write && vb.write
			out[k] = va
		}
	}
	return out
}

func runLockGuard(pass *Pass) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return
	}
	lw := &lockWalk{pass: pass, guards: guards}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(heldSet)
			if mu := callerHolds(fd.Doc); mu != "" && fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := fd.Recv.List[0]
				if len(recv.Names) == 1 {
					held[recv.Names[0].Name+"."+mu] = heldLock{
						muName:   mu,
						baseName: namedTypeName(pass.Info.TypeOf(recv.Type)),
						write:    true,
					}
				}
			}
			lw.block(fd.Body.List, held)
		}
	}
}

// collectGuards maps each "guarded by" field object to its guard spec.
func collectGuards(pass *Pass) map[types.Object]guardSpec {
	guards := make(map[types.Object]guardSpec)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				g := guardName(field)
				if g == "" {
					continue
				}
				spec := guardSpec{sibling: g}
				if typeName, muName, ok := strings.Cut(g, "."); ok {
					spec = guardSpec{typeName: typeName, muName: muName}
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guards[obj] = spec
					}
				}
			}
			return true
		})
	}
	return guards
}

// namedTypeName unwraps pointers and reports the named type's name.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

type lockWalk struct {
	pass   *Pass
	guards map[types.Object]guardSpec
}

// block walks a statement list with branch-sensitive lock tracking,
// returning the outgoing held set and whether all paths terminated.
func (lw *lockWalk) block(list []ast.Stmt, held heldSet) (heldSet, bool) {
	for _, s := range list {
		var term bool
		held, term = lw.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (lw *lockWalk) stmt(s ast.Stmt, held heldSet) (heldSet, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, lock, isLockOp, acquire := lw.lockOp(call); isLockOp {
				if acquire {
					held[key] = lock
				} else {
					delete(held, key)
				}
				return held, false
			}
			if isPanicCall(lw.pass, call) {
				lw.scan(s.X, nil, held)
				return held, true
			}
		}
		lw.scan(s.X, nil, held)
		return held, false

	case *ast.AssignStmt:
		writes := writeTargets(s.Lhs)
		for _, e := range s.Rhs {
			lw.scan(e, writes, held)
		}
		for _, e := range s.Lhs {
			lw.scan(e, writes, held)
		}
		return held, false

	case *ast.IncDecStmt:
		lw.scan(s.X, writeTargets([]ast.Expr{s.X}), held)
		return held, false

	case *ast.DeclStmt:
		lw.scan(s, nil, held)
		return held, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			lw.scan(r, nil, held)
		}
		return held, true

	case *ast.DeferStmt:
		// Deferred unlocks keep the mutex held for the body; deferred
		// closures run at exit, so their guarded accesses are checked
		// under the locks the defer itself names — conservatively, none.
		if _, _, isLockOp, _ := lw.lockOp(s.Call); isLockOp {
			return held, false
		}
		lw.scan(s.Call, nil, held)
		return held, false

	case *ast.GoStmt:
		lw.scan(s.Call, nil, held)
		return held, false

	case *ast.SendStmt:
		lw.scan(s.Chan, nil, held)
		lw.scan(s.Value, nil, held)
		return held, false

	case *ast.BlockStmt:
		return lw.block(s.List, held)

	case *ast.IfStmt:
		if s.Init != nil {
			var term bool
			held, term = lw.stmt(s.Init, held)
			if term {
				return held, true
			}
		}
		lw.scan(s.Cond, nil, held)
		thenHeld, thenTerm := lw.block(s.Body.List, held.clone())
		elseHeld, elseTerm := held, false
		if s.Else != nil {
			elseHeld, elseTerm = lw.stmt(s.Else, held.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return intersect(thenHeld, elseHeld), false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = lw.stmt(s.Init, held)
		}
		lw.scan(s.Cond, nil, held)
		bodyHeld, term := lw.block(s.Body.List, held.clone())
		if s.Post != nil {
			lw.stmt(s.Post, bodyHeld)
		}
		if term {
			return held, false
		}
		return intersect(held, bodyHeld), false

	case *ast.RangeStmt:
		lw.scan(s.X, nil, held)
		bodyHeld, term := lw.block(s.Body.List, held.clone())
		if term {
			return held, false
		}
		return intersect(held, bodyHeld), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = lw.stmt(s.Init, held)
		}
		lw.scan(s.Tag, nil, held)
		return lw.caseClauses(s.Body.List, held)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = lw.stmt(s.Init, held)
		}
		lw.scan(s.Assign, nil, held)
		return lw.caseClauses(s.Body.List, held)

	case *ast.SelectStmt:
		outs := []heldSet{}
		allTerm := len(s.Body.List) > 0
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			clHeld := held.clone()
			if comm.Comm != nil {
				clHeld, _ = lw.stmt(comm.Comm, clHeld)
			}
			clHeld, term := lw.block(comm.Body, clHeld)
			if !term {
				outs = append(outs, clHeld)
				allTerm = false
			}
		}
		if allTerm {
			return held, true
		}
		out := outs[0]
		for _, o := range outs[1:] {
			out = intersect(out, o)
		}
		return out, false

	case *ast.LabeledStmt:
		return lw.stmt(s.Stmt, held)

	case *ast.BranchStmt:
		return held, true

	default:
		return held, false
	}
}

// caseClauses merges switch clause bodies, including the fall-past path
// when no default exists.
func (lw *lockWalk) caseClauses(list []ast.Stmt, held heldSet) (heldSet, bool) {
	outs := []heldSet{}
	hasDefault := false
	for _, cl := range list {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			lw.scan(e, nil, held)
		}
		clHeld, term := lw.block(cc.Body, held.clone())
		if !term {
			outs = append(outs, clHeld)
		}
	}
	if !hasDefault {
		outs = append(outs, held)
	}
	if len(outs) == 0 {
		return held, true
	}
	out := outs[0]
	for _, o := range outs[1:] {
		out = intersect(out, o)
	}
	return out, false
}

// lockOp classifies a call as a mutex acquire/release, returning the
// rendered lock key ("cc.mu") and the lock fact.
func (lw *lockWalk) lockOp(call *ast.CallExpr) (key string, lock heldLock, isLockOp, acquire bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", heldLock{}, false, false
	}
	var write bool
	switch sel.Sel.Name {
	case "Lock":
		isLockOp, acquire, write = true, true, true
	case "RLock":
		isLockOp, acquire = true, true
	case "Unlock", "RUnlock":
		isLockOp = true
	default:
		return "", heldLock{}, false, false
	}
	recvType := lw.pass.Info.TypeOf(sel.X)
	name := namedTypeName(recvType)
	if name != "Mutex" && name != "RWMutex" {
		return "", heldLock{}, false, false
	}
	key = types.ExprString(sel.X)
	lock = heldLock{muName: lastComponent(key), write: write}
	if muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		lock.baseName = namedTypeName(lw.pass.Info.TypeOf(muSel.X))
	}
	return key, lock, isLockOp, acquire
}

func lastComponent(s string) string {
	return s[strings.LastIndexByte(s, '.')+1:]
}

// scan inspects an expression tree for guarded-field accesses. writes
// holds the selector nodes in write position. Function literals are
// walked with a fresh held set: they may run on another goroutine.
func (lw *lockWalk) scan(n ast.Node, writes map[*ast.SelectorExpr]bool, held heldSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			lw.block(x.Body.List, make(heldSet))
			return false
		case *ast.SelectorExpr:
			lw.checkAccess(x, writes[x], held)
		}
		return true
	})
}

// checkAccess verifies one selector against the guard table.
func (lw *lockWalk) checkAccess(sel *ast.SelectorExpr, write bool, held heldSet) {
	selection, ok := lw.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	spec, guarded := lw.guards[selection.Obj()]
	if !guarded {
		return
	}
	if spec.typeName != "" {
		// Qualified guard: any held mutex of that name on a value of that
		// type satisfies it.
		for _, l := range held {
			if l.muName == spec.muName && l.baseName == spec.typeName && (l.write || !write) {
				return
			}
		}
		lw.report(sel, write, spec.typeName+"."+spec.muName)
		return
	}
	key := types.ExprString(sel.X) + "." + spec.sibling
	if l, ok := held[key]; ok && (l.write || !write) {
		return
	}
	lw.report(sel, write, key)
}

func (lw *lockWalk) report(sel *ast.SelectorExpr, write bool, want string) {
	verb := "read"
	if write {
		verb = "written"
	}
	lw.pass.Reportf(sel.Sel.Pos(), "field %s is guarded by %s but %s without holding it",
		sel.Sel.Name, want, verb)
}

// writeTargets marks the root selector of each assignment target as a
// write: `cc.used = n`, `cc.paths[p] = pb`, and `*of.sizep = v` all
// mutate state reached through the selector.
func writeTargets(lhs []ast.Expr) map[*ast.SelectorExpr]bool {
	writes := make(map[*ast.SelectorExpr]bool)
	for _, l := range lhs {
		e := l
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				writes[x] = true
				e = nil
			default:
				e = nil
			}
			if e == nil {
				break
			}
		}
	}
	return writes
}
