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
)

// TestSyncIOAllocPin pins the heap cost of the unreplicated hot path —
// an 8 KiB synchronous ReadAt and WriteAt against the metadata owner over
// the mem transport, daemon side included (the size-update cache keeps
// the metadata record's merge chain, and with it the daemon's share,
// constant). The bounds are the values measured at the commit before the
// span-group executor replaced the unreplicated code path: a chain of
// one must cost no more than the code it replaced.
func TestSyncIOAllocPin(t *testing.T) {
	const readPin, writePin = 31, 18
	c, _, _ := pipelineCluster(t, 1, Config{SizeCacheOps: 1 << 30})
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
		t.Fatalf("allocs per 8 KiB op: ReadAt %v (pin %d), WriteAt %v (pin %d)", reads, readPin, writes, writePin)
	}
}

// severableConn is a mem-transport connection a test can sever: once
// dead, every call fails at the transport level, as a killed daemon's
// socket would.
type severableConn struct {
	rpc.Conn
	dead atomic.Bool
}

var errSevered = errors.New("transport: connection severed")

func (s *severableConn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	if s.dead.Load() {
		return nil, errSevered
	}
	return s.Conn.Call(op, payload, bulk, dir)
}

// TestDataPathErrorsNameOpPathDaemon asserts the two properties of every
// error the span-group executors return, at R=1 exactly as at R=2: the
// text names the operation, the path and the daemon that failed, and
// errors.Is still finds the sentinel — ErrDegraded (and the transport
// cause) when no replica was left, the errno when a daemon answered.
func TestDataPathErrorsNameOpPathDaemon(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		c, _, _ := pipelineCluster(t, 2, Config{ChunkSize: 64, Replicas: replicas})
		for i, conn := range c.cfg.Conns {
			c.cfg.Conns[i] = &severableConn{Conn: conn}
		}
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
		owner := c.cfg.Dist.MetaTarget("/dir")
		// A daemon's own answer surfaces as itself, attributed.
		_, err = c.ReadSnapshot("/dir", LiveEpoch, buf, 0)
		check("read of a directory", err, proto.ErrIsDir, "read /dir: ", daemonTag(owner))
		if err := c.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err = c.ReadAt(fd, buf, 0)
		check("read of a removed file", err, proto.ErrNotExist, "read /f: ", daemonTag(c.cfg.Dist.MetaTarget(path)))

		// Every daemon severed: no replica of chunk 0 is left.
		for _, conn := range c.cfg.Conns {
			conn.(*severableConn).dead.Store(true)
		}
		primary := c.cfg.Dist.ChunkTarget(path, 0)
		_, err = c.ReadAt(fd, buf, 0)
		check("read, daemons severed", err, ErrDegraded, "read /f: ", daemonTag(primary))
		check("read, daemons severed", err, errSevered)
		_, err = c.WriteAt(fd, buf, 0)
		check("write, daemons severed", err, ErrDegraded, "write /f: ", daemonTag(primary))
		check("write, daemons severed", err, errSevered)
	}
}

func daemonTag(node int) string { return fmt.Sprintf("daemon %d: ", node) }
