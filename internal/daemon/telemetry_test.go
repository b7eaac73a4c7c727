package daemon

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// TestStatNamesZipValues pins the DaemonStats wire order to the metric
// name catalog: Values() and DaemonStatNames must stay parallel arrays,
// and a known counter must land under its exported name.
func TestStatNamesZipValues(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	vals := d.Stats().Values()
	if len(vals) != len(telemetry.DaemonStatNames) {
		t.Fatalf("Values() has %d entries, DaemonStatNames has %d — keep them parallel",
			len(vals), len(telemetry.DaemonStatNames))
	}
	byName := make(map[string]uint64, len(vals))
	for i, name := range telemetry.DaemonStatNames {
		byName[name] = vals[i]
	}
	if byName["gkfs_daemon_creates_total"] != 1 {
		t.Fatalf("creates_total = %d after one create (zip order broken?)", byName["gkfs_daemon_creates_total"])
	}
}

// TestStatsExtRidesStatsReply drives a few ops through the dispatch
// path, then decodes the OpStats reply the way a v7 client does: the
// fixed DaemonStats block first, then the trailing StatsExt histogram
// extension, with nothing left over.
func TestStatsExtRidesStatsReply(t *testing.T) {
	d := newTestDaemon(t)
	if _, err := call(t, d, proto.OpCreate, encCreate("/f", meta.ModeRegular), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call(t, d, proto.OpStat, encPath("/f"), nil); err != nil {
		t.Fatal(err)
	}

	dec, err := call(t, d, proto.OpStats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := proto.DecodeDaemonStats(dec)
	if st.Creates != 1 || st.StatOps != 1 {
		t.Fatalf("decoded stats = %+v", st)
	}
	if dec.Err() != nil || dec.Remaining() == 0 {
		t.Fatalf("no StatsExt after DaemonStats (err %v, %d remaining)", dec.Err(), dec.Remaining())
	}
	ext := proto.DecodeStatsExt(dec)
	if err := dec.Done(); err != nil {
		t.Fatalf("trailing bytes after StatsExt: %v", err)
	}
	got := make(map[string]telemetry.HistSnapshot, len(ext.Ops))
	for _, oh := range ext.Ops {
		if oh.Hist.Count == 0 {
			t.Fatalf("StatsExt carries empty histogram %q", oh.Name)
		}
		got[oh.Name] = oh.Hist
	}
	for _, want := range []string{
		telemetry.DaemonQueueWaitNS,
		telemetry.DaemonOpCreateNS,
		telemetry.DaemonOpStatNS,
	} {
		if got[want].Count == 0 {
			t.Fatalf("StatsExt missing %q after matching ops (have %v)", want, ext.Ops)
		}
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
	gauge := func() int64 { return d.Telemetry().Snapshot().Gauges[telemetry.ChunkOpenHandles] }
	const chunks = 600 // more than the cache holds
	var peak int64
	for id := 0; id < chunks; id++ {
		req := encChunks("/data", []proto.ChunkSpan{{ID: meta.ChunkID(id), Len: 4}}, 0)
		if _, err := call(t, d, proto.OpWriteChunks, req, []byte("data")); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, gauge())
	}
	st := d.ChunkOpenStats()
	if peak != int64(st.Open) || st.Misses != chunks || st.Evictions != chunks-st.Open || st.Open >= chunks {
		t.Fatalf("after %d first touches: gauge peaked at %d, stats %+v; want the gauge at the bound and one eviction per miss past it", chunks, peak, st)
	}
	// A rewrite of a chunk still cached opens nothing.
	req := encChunks("/data", []proto.ChunkSpan{{ID: chunks - 1, Len: 4}}, 0)
	if _, err := call(t, d, proto.OpWriteChunks, req, []byte("DATA")); err != nil {
		t.Fatal(err)
	}
	if after := d.ChunkOpenStats(); after.Hits != 1 || after.Misses != chunks {
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
