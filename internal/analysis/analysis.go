// Package analysis is gkfs-vet's checker suite: repo-specific static
// analyses that mechanically enforce the invariants the data path is
// built on — pooled-buffer lifecycle (every rpc.GetBuf reaches
// rpc.PutBuf or an annotated ownership transfer on every path),
// mutex-guarded field access ("guarded by mu" comments become machine
// law), wire-decoder bounds discipline (counts from the wire never size
// an allocation unchecked), and telemetry write discipline (counter
// state changes only through the telemetry API or an atomic add). The
// framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — on the standard library's go/ast,
// go/types and go/importer alone, so the module keeps its
// zero-dependency property; the go tool finds and compiles the packages
// (Load). See docs/INVARIANTS.md for the enforced rules and annotation
// grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check over a type-checked package, the analogue
// of x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects the package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Fset maps AST positions to source locations.
	Fset *token.FileSet
	// Files are the package's parsed source files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	// Pos is where the invariant is violated.
	Pos token.Pos
	// Message states the violation.
	Message string
}

// Reportf formats and reports a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the gkfs-vet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		BufPool,
		LockGuard,
		FrameBound,
		MetricCheck,
	}
}
