package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

// TestSyncIOAllocPin pins the heap cost of the hot path — an 8 KiB
// synchronous ReadAt and WriteAt against the metadata owner over the mem
// transport, daemon side included (the size-update cache keeps the
// daemon's share constant). The pins are the measured counts, 12 and 13. Under the race
// detector sync.Pool drops a random share of its Puts, so there the bound
// stays the one the span-group executor had to meet (31/18, the code path
// it replaced).
func TestSyncIOAllocPin(t *testing.T) {
	readPin, writePin := 12.0, 13.0
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
// error the data path and the metadata plane return: the text names the
// operation, the path and the daemon that failed, and errors.Is still
// finds the sentinel — ErrDegraded (and the transport cause) when a
// daemon did not answer, the errno itself when a daemon answered.
func TestDataPathErrorsNameOpPathDaemon(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 2, Config{ChunkSize: 64})
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
			t.Errorf("%s: %v does not match %v", what, err, is)
		}
		for _, w := range wants {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: %q does not name %q", what, err, w)
			}
		}
	}
	owner := c.dist.MetaTarget("/dir")
	// A daemon's own answer surfaces as itself, attributed on the data
	// path and bare on the metadata plane.
	_, err = c.ReadPath("/dir", buf, 0)
	check("read of a directory", err, proto.ErrIsDir, "read /dir: ", daemonTag(owner))
	if _, err := c.Stat("/missing"); err != proto.ErrNotExist {
		t.Errorf("stat of a missing path = %v, want the bare ErrNotExist", err)
	}
	if err := c.Remove(path); err != nil {
		t.Fatal(err)
	}
	_, err = c.ReadAt(fd, buf, 0)
	check("read of a removed file", err, proto.ErrNotExist, "read /f: ", daemonTag(c.dist.MetaTarget(path)))

	// Every daemon severed: the one holding chunk 0, and every metadata
	// owner, is gone.
	wire.Sever()
	severed := func(what string, err error, wants ...string) {
		t.Helper()
		check(what, err, ErrDegraded, wants...)
		check(what, err, wiretest.ErrSevered)
	}
	target := c.dist.ChunkTarget(path, 0)
	_, err = c.ReadAt(fd, buf, 0)
	severed("read", err, "read /f: ", daemonTag(target))
	_, err = c.WriteAt(fd, buf, 0)
	severed("write", err, "write /f: ", daemonTag(target))
	_, err = c.Stat("/dir")
	severed("stat", err, "stat /dir: ", daemonTag(owner))
	_, err = c.Open("/new", O_CREATE|O_RDWR)
	severed("create", err, "create /new: ", daemonTag(c.dist.MetaTarget("/new")))
	err = c.Remove("/dir")
	severed("remove", err, "remove_meta /dir: ", daemonTag(owner))
	_, errs := c.StatMany([]string{"/dir"})
	severed("batched stat", errs[0], "stat /dir: ", daemonTag(owner))
	_, err = c.ReadDir("/")
	severed("readdir", err, "readdir /: ")
}

// TestWriteSurfacesLostDaemonOnce kills a chunk daemon in the middle of
// a write stream over TCP. Every chunk has one copy, so the write bound
// for it fails at once: that Write returns ErrDegraded naming op, path
// and daemon, and nothing latches — the writes to live daemons after it
// and the Close barrier succeed. A read of a chunk the daemon took with
// it then fails the same way: no hang, no zeros. Config.AsyncWrites is
// ignored, so the stream behaves the same with it set.
func TestWriteSurfacesLostDaemonOnce(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("AsyncWrites=%v", async), func(t *testing.T) {
			writeLosesDaemon(t, Config{AsyncWrites: async})
		})
	}
}

// writeLosesDaemon is TestWriteSurfacesLostDaemonOnce on a client built
// from cfg.
func writeLosesDaemon(t *testing.T, cfg Config) {
	const nodes, chunk = 3, 1024
	lns := make([]*wiretest.Listener, nodes)
	conns := make([]rpc.Conn, nodes)
	for i := range lns {
		d, err := daemon.New(daemon.Config{ID: i, FS: vfs.NewMem(), ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		lns[i] = wiretest.ServeTCP(t, d.Server())
		if conns[i], err = transport.DialTCP(lns[i].Addr().String(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conns[i].Close() })
	}
	cfg.Conns, cfg.ChunkSize = conns, chunk
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	const path = "/stream.bin"
	owner := c.dist.MetaTarget(path)
	victim := (owner + 1) % nodes
	fd, err := c.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first half: chunks on every daemon.
	data := pattern(64 * chunk)
	half := len(data) / 2
	for off := 0; off < half; off += 4 * chunk {
		if _, err := c.WriteAt(fd, data[off:off+4*chunk], int64(off)); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	lost := -1 // a chunk of the first half the victim held
	var onVictim, elsewhere []int
	for id := range len(data) / chunk {
		switch {
		case c.dist.ChunkTarget(path, meta.ChunkID(id)) != victim:
			elsewhere = append(elsewhere, id)
		case id*chunk < half:
			lost = id
		default:
			onVictim = append(onVictim, id)
		}
	}
	if lost < 0 || len(onVictim) == 0 {
		t.Fatalf("degenerate placement: no chunk of daemon %d in one half", victim)
	}
	lns[victim].Kill()

	// The rest of the stream: one chunk bound for the dead daemon, which
	// fails there and then, then only chunks of the live ones.
	write := func(id int) error {
		_, err := c.WriteAt(fd, data[id*chunk:(id+1)*chunk], int64(id*chunk))
		return err
	}
	err = write(onVictim[0])
	if !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "write "+path+": "+daemonTag(victim)) {
		t.Fatalf("write to the lost daemon = %v, want ErrDegraded naming write %s and daemon %d", err, path, victim)
	}
	for _, id := range elsewhere {
		if id*chunk >= half {
			if err := write(id); err != nil {
				t.Fatalf("write of chunk %d on a live daemon after the loss: %v", id, err)
			}
		}
	}
	if err := c.Close(fd); err != nil {
		t.Fatalf("Close re-surfaced the lost write: %v", err)
	}

	fd, err = c.Open(path, O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	got := make([]byte, chunk)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var n int
		n, err = c.ReadAt(fd, got, int64(lost*chunk))
		if n != 0 {
			err = fmt.Errorf("read %d bytes of a lost chunk (%v)", n, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("read of a lost chunk hangs")
	}
	if !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "read "+path+": "+daemonTag(victim)) {
		t.Fatalf("read of a lost chunk = %v, want ErrDegraded naming read %s and daemon %d", err, path, victim)
	}
}

// pattern fills a deterministic byte stream.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + i/257)
	}
	return p
}

func daemonTag(node int) string { return fmt.Sprintf("daemon %d: ", node) }
