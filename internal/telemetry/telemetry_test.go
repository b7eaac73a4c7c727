package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestCounterSharding checks adds from many goroutines all land and
// sum exactly (run under -race in CI).
func TestCounterSharding(t *testing.T) {
	var c Counter
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter %d, want %d", got, goroutines*per)
	}
}

// TestNilRegistry checks the disabled state end to end: nil registry,
// nil metrics, inert records, empty snapshot.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("x"), r.Gauge("y"), r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Add(1)
	c.Inc()
	g.Add(2)
	g.Set(3)
	h.Observe(4)
	r.GaugeFunc("w", func() int64 { return 5 })
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Hists) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestRegistryGetOrCreate checks the same name always resolves to the
// same metric.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity not stable")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("gauge identity not stable")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("histogram identity not stable")
	}
	r.Counter("a").Add(5)
	r.Gauge("b").Set(-2)
	r.Histogram("c").Observe(100)
	level := int64(7)
	r.GaugeFunc("d", func() int64 { return level })
	s := r.Snapshot()
	if s.Counters["a"] != 5 || s.Gauges["b"] != -2 || s.Gauges["d"] != 7 || s.Hists["c"].Count != 1 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	level = 9 // a function gauge is read at every snapshot
	if got := r.Snapshot().Gauges["d"]; got != 9 {
		t.Fatalf("function gauge = %d after its source moved to 9", got)
	}
}

// TestCatalog checks the exported-name catalog is well formed: sorted,
// unique, gkfs-prefixed, and covering the DaemonStats wire order.
func TestCatalog(t *testing.T) {
	names := Catalog()
	seen := map[string]bool{}
	for i, n := range names {
		if !strings.HasPrefix(n, "gkfs_") {
			t.Errorf("metric %q lacks the gkfs_ prefix", n)
		}
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
		if i > 0 && names[i-1] > n {
			t.Errorf("catalog not sorted at %q", n)
		}
	}
	if len(DaemonStatNames) != 25 {
		t.Fatalf("DaemonStatNames has %d entries, want 25 (proto.DaemonStatsWireLen/8)", len(DaemonStatNames))
	}
	for _, n := range DaemonStatNames {
		if !seen[n] {
			t.Errorf("DaemonStatNames entry %q missing from Catalog", n)
		}
	}
}

// TestHandler exercises /metrics and /statz end to end against a live
// registry.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("gkfs_client_traces_total").Add(2)
	r.Gauge("gkfs_client_rpc_inflight").Set(3)
	for i := 0; i < 100; i++ {
		r.Histogram("gkfs_client_rpc_read_ns").Observe(int64(1000 + i))
	}
	h := Handler(r, func() map[string]uint64 {
		return map[string]uint64{"gkfs_daemon_read_ops_total": 7}
	}, nil)

	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"gkfs_client_traces_total 2",
		"gkfs_client_rpc_inflight 3",
		"gkfs_daemon_read_ops_total 7",
		`gkfs_client_rpc_read_ns{quantile="0.99"}`,
		"gkfs_client_rpc_read_ns_count 100",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	statz := get("/statz")
	for _, want := range []string{`"gkfs_client_traces_total": 2`, `"p99"`} {
		if !strings.Contains(statz, want) {
			t.Errorf("/statz missing %q:\n%s", want, statz)
		}
	}

	if pprof := get("/debug/pprof/cmdline"); len(pprof) == 0 {
		t.Error("pprof cmdline endpoint returned nothing")
	}
}
