package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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
	r.Collect(func(s *Snapshot) { s.Gauges["w"] = 5 })
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
	r.Collect(func(s *Snapshot) { s.Gauges["d"] = level })
	s := r.Snapshot()
	if s.Counters["a"] != 5 || s.Gauges["b"] != -2 || s.Gauges["d"] != 7 || s.Hists["c"].Count != 1 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	level = 9 // a collector runs at every snapshot
	if got := r.Snapshot().Gauges["d"]; got != 9 {
		t.Fatalf("collected gauge = %d after its source moved to 9", got)
	}
}

// fixtureStats is a stats struct the way an owning tier declares one.
type fixtureStats struct {
	Ops    uint64 `metric:"gkfs_fixture_ops_total"`
	Bytes  uint64 `metric:"gkfs_fixture_bytes_total"`
	Level  uint64 `metric:"gkfs_fixture_level,gauge"`
	Plain  int64  // not a metric: no tag
	hidden uint64
}

// TestTaggedFields walks one tagged struct through everything the field
// walker derives from it: names, the fold into a snapshot (counters vs
// gauges), the typed view back out, and the atomic add of a live struct.
func TestTaggedFields(t *testing.T) {
	if got := strings.Join(FieldNames(fixtureStats{}), " "); got != "gkfs_fixture_ops_total gkfs_fixture_bytes_total gkfs_fixture_level" {
		t.Fatalf("FieldNames = %q", got)
	}
	s := NewRegistry().Snapshot()
	s.Fold(fixtureStats{Ops: 3, Bytes: 4096, Level: 2, Plain: 9, hidden: 1})
	if len(s.Counters) != 2 || s.Counters["gkfs_fixture_ops_total"] != 3 || s.Counters["gkfs_fixture_bytes_total"] != 4096 ||
		len(s.Gauges) != 1 || s.Gauges["gkfs_fixture_level"] != 2 {
		t.Fatalf("Fold = %+v", s)
	}
	s.Counters["gkfs_other_total"] = 1 // a name the struct does not declare
	view := fixtureStats{Ops: 99, Plain: 5}
	s.View(&view)
	if view != (fixtureStats{Ops: 3, Bytes: 4096, Level: 2, Plain: 5}) {
		t.Fatalf("View = %+v", view)
	}
	Snapshot{}.View(&view) // an empty snapshot zeroes the tagged fields
	if view != (fixtureStats{Plain: 5}) {
		t.Fatalf("View of an empty snapshot = %+v", view)
	}

	// AddFields reads a struct that is being bumped (run under -race).
	var live, sum fixtureStats
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				atomic.AddUint64(&live.Ops, 1)
				var probe fixtureStats
				AddFields(&probe, &live)
			}
		}()
	}
	wg.Wait()
	AddFields(&sum, &live)
	AddFields(&sum, &fixtureStats{Ops: 1, Bytes: 2, Level: 3})
	if sum != (fixtureStats{Ops: 4001, Bytes: 2, Level: 3}) {
		t.Fatalf("AddFields = %+v", sum)
	}
}

// TestSnapshotMerge checks per-daemon snapshots fold into a zero
// accumulator: counters and gauges add, histograms merge.
func TestSnapshotMerge(t *testing.T) {
	mk := func(n uint64) Snapshot {
		r := NewRegistry()
		r.Counter("c").Add(n)
		r.Gauge("g").Set(int64(n))
		r.Histogram("h").Observe(int64(n) * 1000)
		return r.Snapshot()
	}
	var total Snapshot
	total.Merge(mk(1))
	total.Merge(mk(2))
	total.Merge(Snapshot{}) // a condemned daemon's zero snapshot
	if total.Counters["c"] != 3 || total.Gauges["g"] != 3 || total.Hists["h"].Count != 2 || total.Hists["h"].Sum != 3000 {
		t.Fatalf("Merge = %+v", total)
	}
}

// TestCatalog checks the exported-name catalog is well formed: sorted,
// unique, gkfs-prefixed, and joined by the names a tagged struct
// declares.
func TestCatalog(t *testing.T) {
	names := Catalog(fixtureStats{})
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
	for _, n := range FieldNames(fixtureStats{}) {
		if !seen[n] {
			t.Errorf("tagged field name %q missing from Catalog", n)
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
	r.Collect(func(s *Snapshot) { s.Counters["gkfs_daemon_read_ops_total"] = 7 })
	h := Handler(r)

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
	for _, want := range []string{`"gkfs_client_traces_total": 2`, `"gkfs_daemon_read_ops_total": 7`, `"p99"`} {
		if !strings.Contains(statz, want) {
			t.Errorf("/statz missing %q:\n%s", want, statz)
		}
	}

	if pprof := get("/debug/pprof/cmdline"); len(pprof) == 0 {
		t.Error("pprof cmdline endpoint returned nothing")
	}
}
