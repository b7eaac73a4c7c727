package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/daemon"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// TestClientTelemetryRecordsRPCs mounts a telemetry-enabled client,
// pushes real traffic through it, and asserts the registry's RPC
// histograms, trace counter, and in-flight gauge all moved — and that
// DaemonSnapshots returns each daemon's matching snapshot.
func TestClientTelemetryRecordsRPCs(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newLocalCluster(t, 3, Config{ChunkSize: 512, Telemetry: reg, TraceSample: 1})

	fd, err := c.Create("/t.dat")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 4096)
	if _, err := c.WriteAt(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(fd, got, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if s.Hists[telemetry.ClientRPCMetaNS].Count == 0 {
		t.Fatal("meta RPC histogram never recorded")
	}
	if s.Hists[telemetry.ClientRPCWriteNS].Count == 0 {
		t.Fatal("write RPC histogram never recorded")
	}
	if s.Hists[telemetry.ClientRPCReadNS].Count == 0 {
		t.Fatal("read RPC histogram never recorded")
	}
	// TraceSample=1 samples every call, so the trace counter tracks the
	// total RPC count.
	var rpcs uint64
	for _, n := range []string{telemetry.ClientRPCMetaNS, telemetry.ClientRPCWriteNS, telemetry.ClientRPCReadNS} {
		rpcs += s.Hists[n].Count
	}
	if traces := s.Counters[telemetry.ClientTracesTotal]; traces != rpcs {
		t.Fatalf("traces = %d, want %d (every call sampled)", traces, rpcs)
	}
	if inflight := s.Gauges[telemetry.ClientRPCInflight]; inflight != 0 {
		t.Fatalf("in-flight gauge = %d after all calls returned", inflight)
	}

	snaps, err := c.DaemonSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("DaemonSnapshots = %d snapshots, want 3", len(snaps))
	}
	var total telemetry.Snapshot
	for _, snap := range snaps {
		total.Merge(snap)
	}
	st := proto.DaemonStatsOf(total)
	if total.Hists[telemetry.DaemonOpWriteChunksNS].Count != st.WriteOps || st.WriteOps == 0 || st.WriteBytes != uint64(len(data)) {
		t.Fatalf("merged daemon snapshots: %d write_chunks samples, typed view %+v", total.Hists[telemetry.DaemonOpWriteChunksNS].Count, st)
	}
}

// TestStatsScrapeUnderTraffic races a telemetry scrape loop against
// live I/O: N writers hammer the cluster while a poller reads
// DaemonSnapshots and the registry snapshot. Run under -race this
// guards every counter and histogram access on both sides of the wire
// (the ISSUE's counter-hygiene audit, as a regression test).
func TestStatsScrapeUnderTraffic(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newLocalCluster(t, 3, Config{ChunkSize: 512, Telemetry: reg, TraceSample: 4})

	const writers, rounds = 4, 25
	var writerWG sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})

	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.DaemonSnapshots(); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			s := reg.Snapshot()
			for name, h := range s.Hists {
				_ = h.Quantile(0.99)
				_ = name
			}
		}
	}()

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			buf := bytes.Repeat([]byte{byte(w)}, 1024)
			for i := 0; i < rounds; i++ {
				path := fmt.Sprintf("/w%d-%d", w, i)
				fd, err := c.Create(path)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.WriteAt(fd, buf, 0); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, len(buf))
				if _, err := c.ReadAt(fd, got, 0); err != nil {
					t.Error(err)
					return
				}
				if err := c.Close(fd); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	writerWG.Wait()
	close(stop)
	<-scraperDone

	if reg.Snapshot().Hists[telemetry.ClientRPCWriteNS].Count == 0 {
		t.Fatal("no write RPCs recorded during the stress run")
	}
}

// TestDaemonSnapshotsHostileReplies puts a daemon that answers OpStats
// with bodies no honest daemon sends beside a healthy one. The fan-out
// must fail with the decoder's typed error naming the daemon — never
// hand back a half-decoded document, never take gigabytes on a count's
// word.
func TestDaemonSnapshotsHostileReplies(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(e *rpc.Enc)
		want error
	}{
		{"empty after errno", func(e *rpc.Enc) {}, rpc.ErrTruncated},
		{"cut after the counters", func(e *rpc.Enc) { e.U32(1).Str("gkfs_a_total").U64(1) }, rpc.ErrTruncated},
		{"count larger than the body", func(e *rpc.Enc) { e.U32(^uint32(0)).Str("gkfs_a_total").U64(1) }, rpc.ErrMalformed},
		{"names out of order", func(e *rpc.Enc) {
			e.U32(2).Str("gkfs_b_total").U64(1).Str("gkfs_a_total").U64(1).U32(0).U32(0)
		}, rpc.ErrMalformed},
		{"trailing bytes", func(e *rpc.Enc) { e.U32(0).U32(0).U32(0).U8(7) }, rpc.ErrMalformed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := transport.NewMemNetwork()
			d, err := daemon.New(daemon.Config{FS: vfs.NewMem()})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			mem.Register(0, d.Server())
			hostile := rpc.NewServer(1)
			hostile.Register(proto.OpStats, func([]byte, rpc.Bulk) ([]byte, error) {
				e := rpc.NewEnc(64)
				e.U16(uint16(proto.OK))
				tc.body(e)
				return e.Bytes(), nil
			})
			mem.Register(1, hostile)
			conns := make([]rpc.Conn, 2)
			for i := range conns {
				if conns[i], err = mem.Dial(i); err != nil {
					t.Fatal(err)
				}
			}
			c, err := New(Config{Conns: conns})
			if err != nil {
				t.Fatal(err)
			}
			snaps, err := c.DaemonSnapshots()
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "daemon 1") || snaps != nil {
				t.Fatalf("DaemonSnapshots = %v, %v; want %v naming daemon 1", snaps, err, tc.want)
			}
			if _, err := c.DaemonStats(); !errors.Is(err, tc.want) {
				t.Fatalf("DaemonStats = %v, want %v", err, tc.want)
			}
		})
	}
}
