package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport/wiretest"
)

// TestSyncIOAllocPin pins the heap cost of the unreplicated hot path —
// an 8 KiB synchronous ReadAt and WriteAt against the metadata owner over
// the mem transport, daemon side included (the size-update cache keeps
// the metadata record's merge chain, and with it the daemon's share,
// constant). The pins are the measured counts, 13 and 14, which chunk
// reads replying through rpc.Gather left unchanged. Under the race detector sync.Pool drops a random share of its Puts, so
// there the bound stays the one the span-group executor had to meet
// (31/18, the code path it replaced).
func TestSyncIOAllocPin(t *testing.T) {
	readPin, writePin := 13.0, 14.0
	if raceEnabled {
		readPin, writePin = 31, 18
	}
	c, _, _ := newCluster(t, "mem", 1, Config{SizeCacheOps: 1 << 30})
	fd, err := c.Open("/pin", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	buf := bytes.Repeat([]byte{7}, 8<<10)
	if _, err := c.WriteAt(fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	reads := testing.AllocsPerRun(200, func() {
		if _, err := c.ReadAt(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	writes := testing.AllocsPerRun(200, func() {
		if _, err := c.WriteAt(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if reads > readPin || writes > writePin {
		t.Fatalf("allocs per 8 KiB op: ReadAt %v (pin %v), WriteAt %v (pin %v)", reads, readPin, writes, writePin)
	}
}

// TestDataPathSyncWriteLendsAdjacentSpans pins the synchronous write's
// lend rule: a group whose windows are adjacent in p — here six
// consecutive chunks on the one daemon — is one slice of p, lent to the
// blocking call, so neither a descriptor write nor WritePath draws a
// staging region of the group's size from the pool.
func TestDataPathSyncWriteLendsAdjacentSpans(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 1, Config{ChunkSize: 4096})
	const n = 5*4096 + 123
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	fd, err := c.Open("/lend", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	var staged atomic.Int64
	stop := rpc.ObserveDraws(func(m int) {
		if m == n {
			staged.Add(1)
		}
	})
	perr := c.WritePath("/lend", p, 100) // sends no size: the descriptor write past it does
	_, werr := c.WriteAt(fd, p, 100+n)
	stop()
	if werr != nil || perr != nil {
		t.Fatal(werr, perr)
	}
	if k := staged.Load(); k != 0 {
		t.Fatalf("%d staging regions drawn for groups of adjacent spans, want none", k)
	}
	got := make([]byte, n)
	for _, off := range []int64{100, 100 + n} {
		if _, err := c.ReadAt(fd, got, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("bytes at %d differ from what was written", off)
		}
	}
}

// TestDataPathErrorsNameOpPathDaemon asserts the two properties of every
// error the span-group executors return, at R=1 exactly as at R=2: the
// text names the operation, the path and the daemon that failed, and
// errors.Is still finds the sentinel — ErrDegraded (and the transport
// cause) when no replica was left, the errno when a daemon answered.
func TestDataPathErrorsNameOpPathDaemon(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		c, _, _ := newCluster(t, "mem", 2, Config{ChunkSize: 64, Replicas: replicas})
		wire := new(wiretest.Script)
		wire.Wrap(c.cfg.Conns)
		const path = "/f"
		fd, err := c.Open(path, O_CREATE|O_RDWR)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 32)
		if _, err := c.WriteAt(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.MkdirAll("/dir"); err != nil {
			t.Fatal(err)
		}
		check := func(what string, err error, is error, wants ...string) {
			t.Helper()
			if !errors.Is(err, is) {
				t.Errorf("R=%d %s: %v does not match %v", replicas, what, err, is)
			}
			for _, w := range wants {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Errorf("R=%d %s: %q does not name %q", replicas, what, err, w)
				}
			}
		}
		owner := c.dist.MetaTarget("/dir")
		// A daemon's own answer surfaces as itself, attributed.
		_, err = c.ReadSnapshot("/dir", LiveEpoch, buf, 0)
		check("read of a directory", err, proto.ErrIsDir, "read /dir: ", daemonTag(owner))
		if err := c.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err = c.ReadAt(fd, buf, 0)
		check("read of a removed file", err, proto.ErrNotExist, "read /f: ", daemonTag(c.dist.MetaTarget(path)))

		// Every daemon severed: no replica of chunk 0 is left.
		wire.Sever()
		primary := c.dist.ChunkTarget(path, 0)
		_, err = c.ReadAt(fd, buf, 0)
		check("read, daemons severed", err, ErrDegraded, "read /f: ", daemonTag(primary))
		check("read, daemons severed", err, wiretest.ErrSevered)
		_, err = c.WriteAt(fd, buf, 0)
		check("write, daemons severed", err, ErrDegraded, "write /f: ", daemonTag(primary))
		check("write, daemons severed", err, wiretest.ErrSevered)
	}
}

func daemonTag(node int) string { return fmt.Sprintf("daemon %d: ", node) }
