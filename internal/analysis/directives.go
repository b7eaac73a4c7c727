package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Annotation grammar shared by the analyzers (documented with examples
// in docs/INVARIANTS.md):
//
//   //gkfs:owns-buf        on a func declaration: passing a pooled
//                          buffer to this function transfers ownership;
//                          the callee (not the caller) must release it.
//   // guarded by <mu>     on a struct field: the field may only be
//                          accessed while <mu> is held. <mu> is either a
//                          sibling mutex field ("guarded by mu") or a
//                          qualified <Type>.<field> naming another
//                          struct's mutex ("guarded by readahead.mu").
//   // Caller holds <mu>.  on a func declaration: the function runs with
//                          the receiver's <mu> already held.
//   //gkfs:bounded         on a statement line: the wire-derived value
//                          on this line is bounded by construction;
//                          framebound trusts the author.

// hasDirective reports whether the doc comment carries the given
// //gkfs: directive (exact word, e.g. "owns-buf").
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if strings.TrimSpace(strings.TrimPrefix(text, "gkfs:")) == name && strings.HasPrefix(text, "gkfs:") {
			return true
		}
	}
	return false
}

// lineDirective reports whether any comment on pos's source line carries
// the given //gkfs: directive.
func lineDirective(fset *token.FileSet, file *ast.File, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if fset.Position(c.Pos()).Line != line {
				continue
			}
			text := strings.TrimPrefix(c.Text, "//")
			if strings.HasPrefix(text, "gkfs:") && strings.TrimSpace(strings.TrimPrefix(text, "gkfs:")) == name {
				return true
			}
		}
	}
	return false
}

// guardedByRe parses the lock-guard field comment grammar. The guard is
// either a bare sibling field name or Type.field.
var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)

// guardName extracts the guard named by a field's comments, or "".
func guardName(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// callerHoldsRe parses the "Caller holds mu." doc convention.
var callerHoldsRe = regexp.MustCompile(`Caller (?:must hold|holds) ([A-Za-z_][A-Za-z0-9_]*)`)

// callerHolds extracts the mutex field name a function's doc declares as
// held on entry, or "".
func callerHolds(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	if m := callerHoldsRe.FindStringSubmatch(doc.Text()); m != nil {
		return m[1]
	}
	return ""
}
