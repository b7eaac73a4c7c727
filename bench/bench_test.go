package main

import (
	"context"
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeConfig is the benchmark at a sixteenth of its file sizes, with
// windows of a fifth of a second, on vfs.NewMem.
func smokeConfig(t *testing.T) *config {
	cfg := &config{
		seed:   1,
		window: 200 * time.Millisecond,
		warmup: 100 * time.Millisecond,
		probe:  5 * time.Millisecond,
		scale:  16,
		mem:    true,
		dir:    t.TempDir(),
		out:    t.TempDir(),
	}
	if raceEnabled {
		// The first operations of a cold client take tens of
		// milliseconds under the race detector.
		cfg.warmup, cfg.window = time.Second, time.Second
	}
	return cfg
}

// TestSmoke runs all four workloads untraced and traced and requires
// every catalogued metric, no failed operation and no leaked goroutine.
func TestSmoke(t *testing.T) {
	start := time.Now()
	cfg := smokeConfig(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runOne(context.Background(), cfg, wl, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", wl.name, traced, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			rendered, missing := r.Metrics.render(defsFor(traced))
			if len(missing) > 0 {
				t.Errorf("%s traced=%v: metrics not measured: %v", wl.name, traced, missing)
			}
			for name, v := range rendered {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "" {
					t.Errorf("%s: %s = %v %q", wl.name, name, v.Value, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", wl.name, name, v.Value)
				}
			}
			if traced {
				if n := r.Metrics["process.goroutines_leaked"]; n != 0 {
					t.Errorf("%s: %v goroutines leaked", wl.name, n)
				}
				if n := r.Metrics["client.failed_share"]; n != 0 {
					t.Errorf("%s: failed_share %v", wl.name, n)
				}
				for _, f := range []string{wl.name + ".layers.json", wl.name + ".spans.bin"} {
					if st, err := os.Stat(filepath.Join(cfg.out, f)); err != nil || st.Size() == 0 {
						t.Errorf("%s: trace file %s not written: %v", wl.name, f, err)
					}
				}
			}
		}
	}
	if ents, _ := os.ReadDir(cfg.dir); len(ents) != 0 {
		t.Errorf("%d entries left under the run root, first %s", len(ents), ents[0].Name())
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 10s", d)
	}
}

// TestLayersSeparate checks on the smoke run what the workloads exist
// for: each keeps the layers it does not exercise idle.
func TestLayersSeparate(t *testing.T) {
	cfg := smokeConfig(t)
	get := func(workload string) metricSet {
		r, err := runTraced(context.Background(), cfg, findWorkload(workload))
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics
	}
	if m := get("meta_churn"); m["chunkstore.vfs_busy_share"] != 0 || m["client.mib_per_s"] != 0 {
		t.Errorf("meta_churn touched the chunkstore: busy %v, %v MiB/s", m["chunkstore.vfs_busy_share"], m["client.mib_per_s"])
	}
	if m := get("stream_read"); m["client.cache_hit_share"] <= 0.5 || m["kvstore.vfs_busy_share"] >= 0.05 {
		t.Errorf("stream_read: cache_hit_share %v, kvstore busy %v", m["client.cache_hit_share"], m["kvstore.vfs_busy_share"])
	}
	if m := get("small_random_rw"); m["client.cache_hit_share"] != 0 {
		t.Errorf("small_random_rw: cache_hit_share %v, want 0", m["client.cache_hit_share"])
	}
}

// TestInterruptLeavesNothing cancels a run mid-window, the way SIGINT
// does, on real directories: it must return the cancellation, remove
// the deployment's directory and stop every goroutine it started.
func TestInterruptLeavesNothing(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.mem = false
	cfg.window = time.Minute
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := runUntraced(ctx, cfg, findWorkload("stream_write"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's", err)
	}
	if ents, _ := os.ReadDir(cfg.dir); len(ents) != 0 {
		t.Errorf("%d entries left under the run root, first %s", len(ents), ents[0].Name())
	}
	if n := leakedGoroutines(before); n != 0 {
		t.Errorf("%d goroutines leaked", n)
	}
}

// TestWrongBytesAreCounted: a block of another file, offset or seed
// never verifies, so a misplaced read is a counted failure.
func TestWrongBytesAreCounted(t *testing.T) {
	ct := newContent(7)
	buf := ct.newBuf(smallBytes)
	ct.restamp(buf, 3, 5*smallBytes)
	if !ct.verify(buf, 3, 5*smallBytes, true) {
		t.Fatal("canonical content does not verify")
	}
	if ct.verify(buf, 3, 6*smallBytes, true) || ct.verify(buf, 4, 5*smallBytes, true) || newContent(8).verify(buf, 3, 5*smallBytes, true) {
		t.Error("content verified at the wrong offset, file or seed")
	}
	buf[blockBytes+100] ^= 1
	if !ct.verify(buf, 3, 5*smallBytes, false) || ct.verify(buf, 3, 5*smallBytes, true) {
		t.Error("a flipped pattern byte must fail the full check only")
	}
	e := newEnv(&config{seed: 7, scale: 1})
	e.fail("worker 0", opErr("read", sharedPath, errWrongBytes))
	if e.fails.count() != 1 || !strings.Contains(e.fails.first[0], "daemon ") || !strings.Contains(e.fails.first[0], "read "+sharedPath) {
		t.Errorf("failure log %q lacks daemon, op or path", e.fails.first)
	}
}

// TestNoChildProcesses is the no-leftover guarantee at its root: nothing
// under bench/ may import os/exec, test files included.
func TestNoChildProcesses(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os/exec" || p == "syscall/js" || p == "plugin" {
				t.Errorf("%s imports %s", f, p)
			}
			if p, _ := strconv.Unquote(imp.Path.Value); strings.Contains(p, ".") {
				t.Errorf("%s imports %s: only the standard library and this module", f, p)
			}
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestContractMatchesCatalogue keeps BENCHMARK.json, the catalogue and
// README.md saying the same thing.
func TestContractMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		if !strings.Contains(doc, "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if !strings.Contains(doc, "`"+d.Name+"`") {
			t.Errorf("README.md does not document %s", d.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) returns, the driver's measure of spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 3, 7, 1, 9}, [3]float64{2, 7, 9.5}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
