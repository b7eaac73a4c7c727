package analysis

import (
	"go/ast"
	"go/types"
)

// FrameBound enforces the wrap-proof decoder discipline: an integer read
// off the wire ((*rpc.Dec).U8/U16/U32/U64/I64) must pass through a
// bounds check — any if/switch condition referencing it, which is how
// the repo's decoders compare counts against rpc.Dec.Remaining(),
// MaxBatchOps, or a directory cap — before it may size an allocation
// (make, rpc.GetBuf) or bound a loop. A hostile frame otherwise turns a
// 4-byte count into a multi-gigabyte allocation. The escape hatch for
// values bounded by construction is a //gkfs:bounded comment on the use.
var FrameBound = &Analyzer{
	Name: "framebound",
	Doc:  "wire-decoded counts must be bounds-checked before sizing allocations or bounding loops",
	Run:  runFrameBound,
}

// taint tracks one wire-derived integer; aliases share the pointer so a
// check through any name clears them all.
type taint struct {
	checked bool
}

func runFrameBound(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fb := &frameWalk{pass: pass, file: file, taints: make(map[types.Object]*taint)}
			fb.walk(fd.Body)
		}
	}
}

type frameWalk struct {
	pass   *Pass
	file   *ast.File
	taints map[types.Object]*taint
}

// walk visits the body in source order: taint introductions and checks
// precede, by position, the uses they govern in the decoder style this
// repo writes (read count → validate → allocate).
func (fb *frameWalk) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fb.assign(n)
		case *ast.IfStmt:
			fb.markChecked(n.Cond)
		case *ast.SwitchStmt:
			fb.markChecked(n.Tag)
		case *ast.ForStmt:
			fb.checkLoopBound(n)
		case *ast.CallExpr:
			fb.checkAlloc(n)
		}
		return true
	})
}

// assign introduces taint for wire reads and propagates it through
// copies and conversions.
func (fb *frameWalk) assign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, r := range as.Rhs {
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := fb.pass.Info.Defs[id]
		if obj == nil {
			obj = fb.pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		src := unwrapConv(fb.pass, r)
		switch {
		case fb.isWireRead(src):
			fb.taints[obj] = &taint{}
		case fb.aliasOf(src) != nil:
			fb.taints[obj] = fb.aliasOf(src)
		}
	}
}

// aliasOf returns the taint behind a bare (possibly converted) tainted
// identifier, or nil.
func (fb *frameWalk) aliasOf(e ast.Expr) *taint {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return fb.taints[fb.pass.Info.Uses[id]]
	}
	return nil
}

// isWireRead reports whether e calls a (*rpc.Dec) integer reader.
func (fb *frameWalk) isWireRead(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "U8", "U16", "U32", "U64", "I64":
	default:
		return false
	}
	fn, ok := fb.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeName(sig.Recv().Type()) == "Dec" && fn.Pkg() != nil && fn.Pkg().Name() == "rpc"
}

// unwrapConv strips type conversions like int(x) or uint64(x).
func unwrapConv(pass *Pass, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		tv, ok := pass.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// markChecked clears taint for every tainted identifier the condition
// references: the decoders' validation style is an if-gate naming the
// count (n > MaxBatchOps, int64(n)*size > int64(d.Remaining()), ...).
func (fb *frameWalk) markChecked(cond ast.Expr) {
	if cond == nil {
		return
	}
	ast.Inspect(cond, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if t := fb.taints[fb.pass.Info.Uses[id]]; t != nil {
				t.checked = true
			}
		}
		return true
	})
}

// firstUnchecked returns the first unchecked tainted identifier in e.
func (fb *frameWalk) firstUnchecked(e ast.Expr) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(e, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			if t := fb.taints[fb.pass.Info.Uses[id]]; t != nil && !t.checked {
				found = id
			}
		}
		return true
	})
	return found
}

// checkAlloc flags make/GetBuf calls sized by unchecked wire counts.
func (fb *frameWalk) checkAlloc(call *ast.CallExpr) {
	sizeArgs := fb.allocSizeArgs(call)
	for _, arg := range sizeArgs {
		id := fb.firstUnchecked(arg)
		if id == nil {
			continue
		}
		if lineDirective(fb.pass.Fset, fb.file, call.Pos(), "bounded") {
			return
		}
		fb.pass.Reportf(call.Pos(),
			"allocation sized by wire-decoded %s without a bounds check; compare it against rpc.Dec.Remaining() or an explicit cap first", id.Name)
		return
	}
}

// allocSizeArgs returns the size-bearing arguments of an allocating
// call: make's len/cap, rpc.GetBuf's n.
func (fb *frameWalk) allocSizeArgs(call *ast.CallExpr) []ast.Expr {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "make" {
			if _, isBuiltin := fb.pass.Info.Uses[fun].(*types.Builtin); isBuiltin && len(call.Args) > 1 {
				return call.Args[1:]
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := fb.pass.Info.Uses[fun.Sel].(*types.Func); ok &&
			fn.Name() == "GetBuf" && fn.Pkg() != nil && fn.Pkg().Name() == "rpc" {
			return call.Args
		}
	}
	return nil
}

// checkLoopBound flags for-loops whose condition is bounded by an
// unchecked wire count.
func (fb *frameWalk) checkLoopBound(loop *ast.ForStmt) {
	if loop.Cond == nil {
		return
	}
	id := fb.firstUnchecked(loop.Cond)
	if id == nil {
		return
	}
	if lineDirective(fb.pass.Fset, fb.file, loop.Pos(), "bounded") {
		// The author vouches for the bound; the condition reference would
		// otherwise also mark it checked below, but keep the directive as
		// the documented suppression.
		return
	}
	fb.pass.Reportf(loop.Pos(),
		"loop bounded by wire-decoded %s without a prior bounds check; validate the count before iterating", id.Name)
	// Don't re-report every later use of the same count.
	if t := fb.taints[fb.pass.Info.Uses[id]]; t != nil {
		t.checked = true
	}
}
