package client

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestClientTelemetryRecordsRPCs mounts a telemetry-enabled client,
// pushes real traffic through it, and asserts the registry's RPC
// histograms, trace counter, and in-flight gauge all moved — and that
// DaemonStatsExt returns matching per-daemon histogram extensions.
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

	stats, exts, err := c.DaemonStatsExt()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 || len(exts) != 3 {
		t.Fatalf("DaemonStatsExt = %d stats, %d exts, want 3 each", len(stats), len(exts))
	}
	sawWrite := false
	for _, ext := range exts {
		for _, oh := range ext.Ops {
			if oh.Name == telemetry.DaemonOpWriteChunksNS && oh.Hist.Count > 0 {
				sawWrite = true
			}
		}
	}
	if !sawWrite {
		t.Fatal("no daemon reported write_chunks histogram samples")
	}
}

// TestStatsScrapeUnderTraffic races a telemetry scrape loop against
// live I/O: N writers hammer the cluster while a poller reads
// DaemonStatsExt and the registry snapshot. Run under -race this
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
			if _, _, err := c.DaemonStatsExt(); err != nil {
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
