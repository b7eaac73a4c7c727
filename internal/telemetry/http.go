// The live exposure surface: a handler serving Prometheus text on
// /metrics, the JSON stats document on /statz, and the stdlib pprof
// profiles on /debug/pprof/. gkfs-daemon mounts it behind -metrics;
// the default bind is loopback because the endpoint is unauthenticated
// (see docs/OBSERVABILITY.md).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/pprof"
	"slices"
)

// Handler returns the observability mux over reg: /metrics and /statz
// render the same Snapshot, as Prometheus text and as JSON.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, reg.Snapshot())
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// WriteMetrics renders a snapshot as Prometheus text exposition:
// counters and gauges as single samples, histograms as summaries with
// quantile labels plus _sum and _count. Output is sorted by name so
// scrapes diff cleanly.
func WriteMetrics(w io.Writer, s Snapshot) {
	for _, name := range slices.Sorted(maps.Keys(s.Counters)) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range slices.Sorted(maps.Keys(s.Gauges)) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}
	for _, name := range slices.Sorted(maps.Keys(s.Hists)) {
		h := s.Hists[name]
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		for _, q := range [...]struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}, {"0.999", 0.999}} {
			fmt.Fprintf(w, "%s{quantile=%q} %d\n", name, q.label, h.Quantile(q.q))
		}
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
	}
}
