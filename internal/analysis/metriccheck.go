package analysis

import (
	"go/ast"
	"go/types"
)

// MetricCheck enforces the telemetry tier's write discipline: counter
// state only changes through its API or an atomic add. Live counters are
// atomics (telemetry.Counter/Gauge/Histogram, rpc.WireCounters) or the
// metric-tagged fields of a stats struct its owner bumps with
// atomic.AddUint64 (the daemon's live proto.DaemonStats, the client's
// live ClientStats), and everything
// handed to readers is a point-in-time copy (telemetry.Snapshot,
// HistSnapshot, proto.DaemonStats, kvstore.Stats, chunkstore.OpenStats,
// the client's ClientStats) — a direct field write
// to any of them outside the defining package is either a lost update
// (mutating a copy that never reaches the live counter, a total summed by
// hand that misses the next field) or a bypass of the atomic record path.
// Reads, composite-literal construction, atomic adds through a field's
// address, and inserts into maps reached through a field remain legal;
// assignment, compound assignment, and ++/-- on the fields themselves
// are flagged. Test files are skipped.
var MetricCheck = &Analyzer{
	Name: "metriccheck",
	Doc:  "telemetry counter and snapshot fields must only be written by their defining package (use the telemetry API)",
	Run:  runMetricCheck,
}

// metricTypes maps a defining package path to the counter-carrying
// type names guarded there. A nil set guards every type in the
// package (internal/telemetry is counters all the way down).
var metricTypes = map[string]map[string]bool{
	"repro/internal/telemetry":  nil,
	"repro/internal/rpc":        {"WireCounters": true},
	"repro/internal/proto":      {"DaemonStats": true},
	"repro/internal/kvstore":    {"Stats": true},
	"repro/internal/chunkstore": {"OpenStats": true},
	"repro/internal/client":     {"ClientStats": true},
}

func runMetricCheck(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.isTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkMetricWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkMetricWrite(pass, n.X)
			}
			return true
		})
	}
	return nil
}

// checkMetricWrite flags lhs when it is a direct selector onto a
// guarded counter field declared in another package. Only the bare
// field is a violation: `st.Creates = 0` rebinds counter state, while
// `s.Counters[k] = v` mutates a map the snapshot handed out, which is
// the documented way to fold extra values in.
func checkMetricWrite(pass *Pass, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	obj := selection.Obj()
	if obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
		return
	}
	guarded, ok := metricTypes[obj.Pkg().Path()]
	if !ok {
		return
	}
	owner := namedTypeName(selection.Recv())
	if guarded != nil && !guarded[owner] {
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"field %s.%s is telemetry counter state owned by %s — write it through the package's API, not directly",
		owner, sel.Sel.Name, obj.Pkg().Path())
}
