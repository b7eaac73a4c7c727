package daemon_test

import (
	"errors"
	"flag"
	"math/rand"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

var rewriteSeed = flag.Int64("rewrite.seed", 1, "seed of TestSharedFileRewritesStayFlat's offsets")

// histSince returns the samples now holds that before did not.
func histSince(now, before telemetry.HistSnapshot) telemetry.HistSnapshot {
	old := make(map[uint32]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		old[b.Index] = b.Count
	}
	var d telemetry.HistSnapshot
	for _, b := range now.Buckets {
		if n := b.Count - old[b.Index]; n > 0 {
			d.Buckets = append(d.Buckets, telemetry.HistBucket{Index: b.Index, Count: n})
			d.Count += n
		}
	}
	return d
}

// TestSharedFileRewritesStayFlat is the shared-file shape at its hardest
// for the metadata key, against a real daemon: 20 000 synchronous 8 KiB
// rewrites of one file, each followed by an Fsync — a rewrite below the
// descriptor's size floor sends no size update of its own, so the barrier
// is what puts one size-grow merge per write on the key. The size-update handler
// must cost at the end what it cost at the start (before the merge run
// was bounded, its median grew with the number of writes), and the
// grow's contract must be what it was: the final size and mtime are
// right, a grow under a pinned snapshot stamps a new version, a grow
// against a directory is refused.
func TestSharedFileRewritesStayFlat(t *testing.T) {
	d, err := daemon.New(daemon.Config{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := wiretest.Dial(t, d.Server(), wiretest.Mem, 1)
	c, err := client.New(client.Config{Conns: []rpc.Conn{conn}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	fd, err := c.Create("/shared")
	if err != nil {
		t.Fatal(err)
	}

	const (
		writes = 20000
		window = 2000
		block  = 8 << 10
		blocks = 512 // a 4 MiB file
	)
	rnd := rand.New(rand.NewSource(*rewriteSeed))
	buf := make([]byte, block)
	hist := d.Telemetry().Histogram(telemetry.DaemonOpUpdateSizeNS)
	var first, beforeLast telemetry.HistSnapshot
	var size int64
	var lastStart time.Time
	for i := 0; i < writes; i++ {
		if i == window {
			first = hist.Snapshot()
		}
		if i == writes-window {
			beforeLast = hist.Snapshot()
		}
		off := int64(rnd.Intn(blocks)) * block
		lastStart = time.Now()
		if _, err := c.WriteAt(fd, buf, off); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if off+block <= size {
			// An extending write reported its size itself.
			if err := c.Fsync(fd); err != nil {
				t.Fatalf("fsync %d: %v", i, err)
			}
		}
		size = max(size, off+block)
	}
	last := histSince(hist.Snapshot(), beforeLast)
	if first.Count != window || last.Count != window {
		t.Fatalf("size-update samples: %d in the first window, %d in the last, want %d each", first.Count, last.Count, window)
	}
	if p0, p1 := first.Quantile(0.5), last.Quantile(0.5); p1 > 2*p0 {
		t.Errorf("%s p50 over the last %d of %d rewrites is %d ns, over the first %d it was %d ns: cost grows with the run",
			telemetry.DaemonOpUpdateSizeNS, window, writes, p1, window, p0)
	}

	fi, err := c.Stat("/shared")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Errorf("size after %d rewrites = %d, want %d", writes, fi.Size(), size)
	}
	if mt := fi.ModTime(); mt.Before(lastStart) || mt.After(time.Now()) {
		t.Errorf("mtime %v is not the last write's (started %v)", mt, lastStart)
	}
	var kv kvstore.Stats
	d.Telemetry().Snapshot().View(&kv)
	if kv.Merges < writes || kv.MergeFolds < kv.Merges-7 {
		t.Errorf("kvstore folded %d of %d merges at insert, want all but the first few", kv.MergeFolds, kv.Merges)
	}

	// A grow under a pinned snapshot stamps a new version: the snapshot
	// keeps the size it pinned.
	epoch, err := c.Snapshot("pin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(fd, buf, size); err != nil {
		t.Fatal(err)
	}
	if fi, err := c.Stat("/shared"); err != nil || fi.Size() != size+block {
		t.Errorf("live size after a grow under a pin = %v, %v; want %d", fi.Size(), err, size+block)
	}
	if fi, err := c.StatAt("/shared", epoch); err != nil || fi.Size() != size {
		t.Errorf("pinned size after a grow = %v, %v; want %d", fi.Size(), err, size)
	}

	// A grow against a directory is still refused.
	if err := c.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	e := rpc.NewEnc(32)
	e.Str("/dir").I64(100).U8(0).I64(1)
	resp, err := conn.Call(proto.OpUpdateSize, e.Bytes(), nil, rpc.BulkNone)
	if err != nil {
		t.Fatal(err)
	}
	if errno := proto.Errno(rpc.NewDec(resp).U16()); !errors.Is(errno.Err(), proto.ErrIsDir) {
		t.Errorf("grow against a directory = %v, want ErrIsDir", errno.Err())
	}
}
