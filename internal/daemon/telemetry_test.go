package daemon

import (
	"encoding/json"
	"io"
	"maps"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chunkstore"
	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// planeDoc is one daemon's statistics as read off one of its three
// surfaces, reduced to what all three can express: every counter and
// gauge by name, and each histogram's count and sum.
type planeDoc struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]struct{ Count, Sum uint64 }
}

// parseMetrics reads a /metrics exposition back into a planeDoc.
func parseMetrics(t *testing.T, text string) planeDoc {
	t.Helper()
	doc := planeDoc{map[string]uint64{}, map[string]int64{}, map[string]struct{ Count, Sum uint64 }{}}
	kind := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kind[f[2]] = f[3]
			if f[3] == "summary" {
				doc.Hists[f[2]] = struct{ Count, Sum uint64 }{}
			}
			continue
		}
		if len(f) != 2 {
			t.Fatalf("/metrics line %q", line)
		}
		name, val := f[0], f[1]
		switch {
		case kind[name] == "counter":
			doc.Counters[name], _ = strconv.ParseUint(val, 10, 64)
		case kind[name] == "gauge":
			doc.Gauges[name], _ = strconv.ParseInt(val, 10, 64)
		case strings.HasSuffix(name, "_count") && kind[strings.TrimSuffix(name, "_count")] == "summary":
			h := doc.Hists[strings.TrimSuffix(name, "_count")]
			h.Count, _ = strconv.ParseUint(val, 10, 64)
			doc.Hists[strings.TrimSuffix(name, "_count")] = h
		case strings.HasSuffix(name, "_sum") && kind[strings.TrimSuffix(name, "_sum")] == "summary":
			h := doc.Hists[strings.TrimSuffix(name, "_sum")]
			h.Sum, _ = strconv.ParseUint(val, 10, 64)
			doc.Hists[strings.TrimSuffix(name, "_sum")] = h
		case strings.Contains(name, "{quantile="):
		default:
			t.Fatalf("/metrics sample %q has no TYPE line", line)
		}
	}
	return doc
}

// TestStatsPlanesAgree serves one daemon over real TCP with the HTTP
// handler mounted and reads its statistics off all three surfaces: the
// OpStats reply, /statz and /metrics. The three must list the same
// counter, gauge and histogram names, every name must be in the
// -print-metrics catalog, and every value must agree. A scrape over the
// RPC plane itself moves a few values (frames, wire bytes, the stats
// op's own histograms), so the RPC document is bracketed by two HTTP
// reads: everything is monotone, so before ≤ rpc ≤ after always, and
// wherever the bracket is closed the three values are one.
func TestStatsPlanesAgree(t *testing.T) {
	d := newTestDaemon(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go transport.ServeTCP(l, d.Server())
	conn, err := transport.DialTCP(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	web := httptest.NewServer(telemetry.Handler(d.Telemetry()))
	defer web.Close()

	rpcCall := func(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) *rpc.Dec {
		t.Helper()
		resp, err := conn.Call(op, payload, bulk, dir)
		if err != nil {
			t.Fatal(err)
		}
		dec := rpc.NewDec(resp)
		if errno := proto.Errno(dec.U16()); errno != proto.OK {
			t.Fatal(errno.Err())
		}
		return dec
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := web.Client().Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// The server counts a reply's frame and bytes after writing it, which
	// its reader may outrun: quiescent means every request read has been
	// answered and counted (frames first, then bytes — hence the second
	// look).
	statz := func() planeDoc {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			if st := d.Stats(); st.FramesOut == st.FramesIn && st == d.Stats() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("wire counters never settled")
			}
		}
		var doc planeDoc
		if err := json.Unmarshal(get("/statz"), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	// Traffic that touches every tier a counter lives in: metadata (the
	// daemon's own counters and the kv engine), a chunk written twice (an
	// open-chunk miss, then a hit) and the wire.
	rpcCall(proto.OpCreate, encCreate("/f", meta.ModeRegular), nil, rpc.BulkNone)
	rpcCall(proto.OpStat, encPath("/f"), nil, rpc.BulkNone)
	for i := 0; i < 2; i++ {
		rpcCall(proto.OpWriteChunks, encChunks("/f", []proto.ChunkSpan{{ID: 0, Len: 4}}, 0), []byte("data"), rpc.BulkIn)
	}

	before := statz()
	dec := rpcCall(proto.OpStats, nil, nil, rpc.BulkNone)
	snap := proto.DecodeSnapshot(dec)
	if err := dec.Done(); err != nil {
		t.Fatalf("OpStats reply: %v", err)
	}
	after, metrics := statz(), parseMetrics(t, string(get("/metrics")))

	catalog := map[string]bool{}
	for _, name := range Catalog() {
		catalog[name] = true
	}
	names := func(doc planeDoc) (c, g, h []string) {
		return slices.Sorted(maps.Keys(doc.Counters)), slices.Sorted(maps.Keys(doc.Gauges)), slices.Sorted(maps.Keys(doc.Hists))
	}
	wc, wg, wh := slices.Sorted(maps.Keys(snap.Counters)), slices.Sorted(maps.Keys(snap.Gauges)), slices.Sorted(maps.Keys(snap.Hists))
	for plane, doc := range map[string]planeDoc{"/statz": after, "/metrics": metrics} {
		c, g, h := names(doc)
		if !slices.Equal(c, wc) || !slices.Equal(g, wg) || !slices.Equal(h, wh) {
			t.Errorf("%s and the OpStats reply list different names:\n%s: %v %v %v\nrpc: %v %v %v", plane, plane, c, g, h, wc, wg, wh)
		}
	}
	for _, name := range slices.Concat(wc, wg, wh) {
		if !catalog[name] {
			t.Errorf("%s is served but not in the -print-metrics catalog", name)
		}
	}
	if len(wc) < 30 || len(wg) < 1 || len(wh) < 16 {
		t.Fatalf("OpStats reply carries %d counters, %d gauges, %d histograms", len(wc), len(wg), len(wh))
	}

	closed := 0
	check := func(name string, lo, rpcv, hi, prom uint64) {
		t.Helper()
		if lo > rpcv || rpcv > hi {
			t.Errorf("%s: rpc %d outside its /statz bracket [%d, %d]", name, rpcv, lo, hi)
		}
		if hi != prom {
			t.Errorf("%s: /statz %d, /metrics %d", name, hi, prom)
		}
		if lo == hi {
			closed++
		}
	}
	for _, name := range wc {
		check(name, before.Counters[name], snap.Counters[name], after.Counters[name], metrics.Counters[name])
	}
	for _, name := range wg {
		check(name, uint64(before.Gauges[name]), uint64(snap.Gauges[name]), uint64(after.Gauges[name]), uint64(metrics.Gauges[name]))
	}
	for _, name := range wh {
		check(name+" count", before.Hists[name].Count, snap.Hists[name].Count, after.Hists[name].Count, metrics.Hists[name].Count)
		check(name+" sum", before.Hists[name].Sum, snap.Hists[name].Sum, after.Hists[name].Sum, metrics.Hists[name].Sum)
	}
	// The scrape moves the four frame/byte counters and the stats op's
	// two histograms; everything else must have been compared exactly.
	if moved := len(wc) + len(wg) + 2*len(wh) - closed; moved > 8 {
		t.Errorf("%d values moved between the two /statz reads; the scrape accounts for 8", moved)
	}
	// And the traffic above is visible by name on the RPC plane — the
	// store's counters included.
	st := proto.DaemonStatsOf(snap)
	var kv kvstore.Stats
	var oc chunkstore.OpenStats
	snap.View(&kv)
	snap.View(&oc)
	if st.Creates != 1 || st.StatOps != 1 || st.WriteOps != 2 || st.WriteBytes != 8 || st.FramesIn < 5 ||
		kv.Puts == 0 || oc.Misses != 1 || oc.Hits != 1 || oc.Open != 1 {
		t.Fatalf("typed views of the OpStats reply: %+v, kv %+v, open chunks %+v", st, kv, oc)
	}
}

// TestMetricTagsWellFormed is what makes "a counter is one tagged field"
// enforceable: in every struct a daemon or a client folds into its
// snapshot, each uint64 field carries a metric tag (an untagged one would
// be counted and never exported), only uint64 fields do, and each name is
// a non-empty gkfs_* name no other field has.
func TestMetricTagsWellFormed(t *testing.T) {
	seen := map[string]string{}
	tagged := []any{Stats{}, kvstore.Stats{}, chunkstore.OpenStats{}, client.ClientStats{}}
	for _, v := range tagged {
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			where := rt.String() + "." + f.Name
			tag, tagged := f.Tag.Lookup("metric")
			if f.Type.Kind() != reflect.Uint64 {
				if tagged {
					t.Errorf("%s carries a metric tag but is not a uint64", where)
				}
				continue
			}
			name, kind, _ := strings.Cut(tag, ",")
			switch {
			case !tagged:
				t.Errorf("%s is a uint64 without a metric tag", where)
			case !strings.HasPrefix(name, "gkfs_") || len(name) > proto.MaxMetricName:
				t.Errorf("%s: metric name %q", where, name)
			case kind != "" && kind != "gauge":
				t.Errorf("%s: metric kind %q", where, kind)
			case kind == "" && !strings.HasSuffix(name, "_total"):
				t.Errorf("%s: counter %q does not end in _total", where, name)
			case seen[name] != "":
				t.Errorf("%s and %s are both %q", where, seen[name], name)
			}
			seen[name] = where
		}
	}
	if want := len(Catalog(client.ClientStats{})) - len(telemetry.Catalog()); len(seen) != want {
		t.Fatalf("the field walker and this test disagree about the tagged fields: %d names here, %d in the catalog", len(seen), want)
	}
}

// TestObserverFeedsHistograms asserts the dispatch observer populates
// the always-on registry: per-op handler time and queue wait both
// record, and the samples carry plausible (non-negative, summed)
// durations.
func TestObserverFeedsHistograms(t *testing.T) {
	d := newTestDaemon(t)
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := call(t, d, proto.OpPing, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Telemetry().Snapshot()
	ping := s.Hists[telemetry.DaemonOpPingNS]
	if ping.Count != n {
		t.Fatalf("ping histogram count = %d, want %d", ping.Count, n)
	}
	if ping.Sum < 0 {
		t.Fatalf("ping histogram sum = %d", ping.Sum)
	}
	if queue := s.Hists[telemetry.DaemonQueueWaitNS]; queue.Count != n {
		t.Fatalf("queue-wait histogram count = %d, want %d", queue.Count, n)
	}
}

// TestObserverSeesDispatchTrace runs a sampled trace through the
// daemon's real dispatch path and asserts the observer-built telemetry
// still records it (the trace must not divert the op off the
// instrumented path).
func TestObserverSeesDispatchTrace(t *testing.T) {
	d := newTestDaemon(t)
	tr := rpc.Trace{ID: 0xABCD, Flags: rpc.TraceSampled}
	resp, err := d.Server().DispatchTrace(proto.OpPing, nil, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	dec := rpc.NewDec(resp)
	if errno := proto.Errno(dec.U16()); errno != proto.OK {
		t.Fatal(errno.Err())
	}
	deadline := time.Now().Add(time.Second)
	for {
		if d.Telemetry().Snapshot().Hists[telemetry.DaemonOpPingNS].Count == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("traced dispatch never reached the op histogram")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenChunkHandlesBoundedAndReleased drives chunk writes through the
// handlers of a daemon on real files: the open-handles gauge the daemon
// exports follows the chunk store's cache, never passes its bound
// however many chunks are touched, and after Daemon.Close the process
// holds no descriptor under the daemon's directory — chunk files, WAL
// and tables alike.
func TestOpenChunkHandlesBoundedAndReleased(t *testing.T) {
	dir := t.TempDir()
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{FS: fs, ChunkSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	openStats := func() (oc chunkstore.OpenStats) {
		d.Telemetry().Snapshot().View(&oc)
		return oc
	}
	gauge := func() int64 { return int64(openStats().Open) }
	const chunks = 600 // more than the cache holds
	var peak int64
	for id := 0; id < chunks; id++ {
		req := encChunks("/data", []proto.ChunkSpan{{ID: meta.ChunkID(id), Len: 4}}, 0)
		if _, err := call(t, d, proto.OpWriteChunks, req, []byte("data")); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, gauge())
	}
	st := openStats()
	if peak != int64(st.Open) || st.Misses != chunks || st.Evictions != chunks-st.Open || st.Open >= chunks {
		t.Fatalf("after %d first touches: gauge peaked at %d, stats %+v; want the gauge at the bound and one eviction per miss past it", chunks, peak, st)
	}
	// A rewrite of a chunk still cached opens nothing.
	req := encChunks("/data", []proto.ChunkSpan{{ID: chunks - 1, Len: 4}}, 0)
	if _, err := call(t, d, proto.OpWriteChunks, req, []byte("DATA")); err != nil {
		t.Fatal(err)
	}
	if after := openStats(); after.Hits != 1 || after.Misses != chunks {
		t.Fatalf("rewrite of a cached chunk: stats %+v; want 1 hit and no new miss", after)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 0 {
		t.Fatalf("open-handles gauge = %d after Close", g)
	}
	if runtime.GOOS != "linux" {
		return // /proc/self/fd is Linux's
	}
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, real+"/") {
			t.Errorf("descriptor %s -> %s left open after Daemon.Close", e.Name(), target)
		}
	}
}
