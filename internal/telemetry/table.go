package telemetry

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// WriteOpTable renders nanosecond latency histograms as an aligned
// per-op percentile table (values shown in microseconds) under a title
// line. Histograms without samples are skipped — with none left nothing
// is written; metric-name prefixes/suffixes are stripped for display.
// gkfs-shell stats and gkfs-bench share it.
func WriteOpTable(w io.Writer, title string, hists map[string]HistSnapshot) {
	names := slices.Sorted(maps.Keys(hists))
	header := false
	for _, name := range names {
		h := hists[name]
		if h.Count == 0 {
			continue
		}
		if !header {
			fmt.Fprintf(w, "%s\n%-18s %10s %12s %12s %12s %12s\n",
				title, "op", "count", "p50(us)", "p95(us)", "p99(us)", "p999(us)")
			header = true
		}
		fmt.Fprintf(w, "%-18s %10d %12.1f %12.1f %12.1f %12.1f\n",
			opDisplayName(name), h.Count,
			float64(h.Quantile(0.50))/1e3, float64(h.Quantile(0.95))/1e3,
			float64(h.Quantile(0.99))/1e3, float64(h.Quantile(0.999))/1e3)
	}
}

// opDisplayName shortens a metric name for table display:
// gkfs_daemon_op_write_chunks_ns → write_chunks.
func opDisplayName(n string) string {
	n = strings.TrimSuffix(n, "_ns")
	for _, p := range []string{"gkfs_daemon_op_", "gkfs_daemon_rpc_", "gkfs_daemon_", "gkfs_client_"} {
		if strings.HasPrefix(n, p) {
			return strings.TrimPrefix(n, p)
		}
	}
	return n
}
