package daemon_test

// The snapshot crash-consistency harness: real TCP daemons on real
// on-disk state whose sockets a test severs at the protocol's worst
// moments — between reserve and commit, mid-commit fan-out, and
// mid-stage-out-from-snapshot. The invariant under test is the
// two-phase design's promise: a crash can leave a tag unusable
// (partially committed, recoverable by re-commit or drop) but never
// torn — after restart on the same directories the namespace reads
// either entirely pre-snapshot or entirely post-snapshot, and a
// committed tag's pinned bytes survive the crash byte-identically.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/staging"
	"repro/internal/transport"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

// crashCluster runs nodes TCP daemons over per-node on-disk state. kill
// severs one daemon's socket and closes it; restart reopens the same
// directories under a fresh listener — the client's lazily re-dialing
// pools find the new address on their next call.
type crashCluster struct {
	t     *testing.T
	dirs  []string
	ds    []*daemon.Daemon
	lns   []*wiretest.Listener
	addrs []string
	mu    sync.Mutex
	c     *client.Client
}

func (cc *crashCluster) addr(i int) string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.addrs[i]
}

func (cc *crashCluster) serve(i int) {
	cc.t.Helper()
	fs, err := vfs.NewOS(cc.dirs[i])
	if err != nil {
		cc.t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{ID: i, FS: fs, ChunkSize: 1024, SyncWAL: true})
	if err != nil {
		cc.t.Fatal(err)
	}
	l := wiretest.ServeTCP(cc.t, d.Server())
	cc.mu.Lock()
	cc.ds[i], cc.lns[i], cc.addrs[i] = d, l, l.Addr().String()
	cc.mu.Unlock()
}

// kill severs daemon i's socket mid-conversation, then releases its
// storage locks so restart can reopen the same directories. Operations
// acknowledged before the sever were made durable by SyncWAL; in-flight
// ones die with the socket, exactly as a crash loses them.
func (cc *crashCluster) kill(i int) {
	cc.lns[i].Kill()
	cc.ds[i].Close()
}

func (cc *crashCluster) restart(i int) {
	cc.serve(i)
}

func startCrashCluster(t *testing.T, nodes int) *crashCluster {
	t.Helper()
	cc := &crashCluster{
		t:     t,
		dirs:  make([]string, nodes),
		ds:    make([]*daemon.Daemon, nodes),
		lns:   make([]*wiretest.Listener, nodes),
		addrs: make([]string, nodes),
	}
	root := t.TempDir()
	for i := 0; i < nodes; i++ {
		cc.dirs[i] = filepath.Join(root, fmt.Sprintf("node%d", i))
		cc.serve(i)
	}
	t.Cleanup(func() {
		for i := range cc.ds {
			cc.lns[i].Kill()
			cc.ds[i].Close()
		}
	})
	conns := make([]rpc.Conn, nodes)
	for i := range conns {
		node := i
		conns[i] = transport.NewPool(1, func() (rpc.Conn, error) {
			return transport.DialTCP(cc.addr(node), 5*time.Second)
		})
		t.Cleanup(func(conn rpc.Conn) func() { return func() { conn.Close() } }(conns[i]))
	}
	c, err := client.New(client.Config{Conns: conns, ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	cc.c = c
	return cc
}

// seedFiles writes enough paths that every daemon owns some metadata and
// some chunks. Content is a function of (path, generation) so both sides
// of a snapshot are reconstructible.
func crashContent(i, generation int) []byte {
	buf := make([]byte, 1500+i*700) // crosses the 1024-byte chunk boundary
	for j := range buf {
		buf[j] = byte(i*31 + j/257 + generation*97)
	}
	return buf
}

func seedFiles(t *testing.T, c *client.Client, n, generation int) {
	t.Helper()
	for i := 0; i < n; i++ {
		fd, err := c.Open(fmt.Sprintf("/ck/f%d", i), client.O_WRONLY|client.O_CREATE|client.O_TRUNC)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteAt(fd, crashContent(i, generation), 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
}

// readSnapFull reads one path's full pinned content at epoch.
func readSnapFull(t *testing.T, c *client.Client, path string, epoch uint64, size int) []byte {
	t.Helper()
	buf := make([]byte, size+512)
	var off int
	for {
		n, err := c.ReadSnapshot(path, epoch, buf[off:], int64(off))
		off += n
		if errors.Is(err, io.EOF) {
			return buf[:off]
		}
		if err != nil {
			t.Fatalf("read %s at epoch %d: %v", path, epoch, err)
		}
		if n == 0 {
			return buf[:off]
		}
	}
}

// readLiveFull reads one path's full live content.
func readLiveFull(c *client.Client, path string) ([]byte, error) {
	info, err := c.Stat(path)
	if err != nil {
		return nil, err
	}
	fd, err := c.Open(path, client.O_RDONLY)
	if err != nil {
		return nil, err
	}
	defer c.Close(fd)
	buf := make([]byte, info.Size())
	var off int
	for off < len(buf) {
		n, err := c.ReadAt(fd, buf[off:], int64(off))
		off += n
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return buf[:off], nil
}

// TestCrashBetweenReserveAndCommit severs a daemon after every node
// reserved the tag but before any commit lands. After restart on the
// same directories, the tag is pending (unusable, not listed), the live
// namespace is untouched, and the client can still complete the commit
// — reservations are durable — or abort it cleanly.
func TestCrashBetweenReserveAndCommit(t *testing.T) {
	const nodes, files = 3, 6
	cc := startCrashCluster(t, nodes)
	c := cc.c
	if err := c.Mkdir("/ck"); err != nil {
		t.Fatal(err)
	}
	seedFiles(t, c, files, 1)

	epoch, err := c.SnapshotReserve("boundary")
	if err != nil {
		t.Fatal(err)
	}
	cc.kill(1)
	// The tag must not be listed anywhere: nothing committed.
	cc.restart(1)
	ents, err := c.Snapshots()
	if err != nil {
		// The first call after a sever eats the dead socket; the lazily
		// re-dialing pool reconnects on the next one.
		ents, err = c.Snapshots()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("uncommitted tag listed: %v", ents)
	}
	// The live namespace reopened untorn.
	for i := 0; i < files; i++ {
		got, err := readLiveFull(c, fmt.Sprintf("/ck/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, crashContent(i, 1)) {
			t.Fatalf("file %d torn after crash between reserve and commit", i)
		}
	}
	// The reservation survived the crash: completing the commit works and
	// the tag pins the pre-crash namespace.
	if err := c.SnapshotCommit("boundary", epoch); err != nil {
		t.Fatal(err)
	}
	seedFiles(t, c, files, 2) // post-snapshot overwrites
	for i := 0; i < files; i++ {
		want := crashContent(i, 1)
		got := readSnapFull(t, c, fmt.Sprintf("/ck/f%d", i), epoch, len(want))
		if !bytes.Equal(got, want) {
			t.Fatalf("file %d: snapshot view diverged after completed commit", i)
		}
	}
}

// TestCrashMidCommit severs a daemon after some daemons committed the
// tag but before the fan-out reaches the severed one. The tag must be
// unusable but never torn: not listed while partial, fully usable after
// the client re-drives the idempotent commit against the restarted
// daemon, and every pinned byte identical to the pre-snapshot state.
func TestCrashMidCommit(t *testing.T) {
	const nodes, files = 3, 6
	cc := startCrashCluster(t, nodes)
	c := cc.c
	if err := c.Mkdir("/ck"); err != nil {
		t.Fatal(err)
	}
	seedFiles(t, c, files, 1)

	epoch, err := c.SnapshotReserve("mid")
	if err != nil {
		t.Fatal(err)
	}
	// Kill one daemon, then drive the commit fan-out: the survivors
	// commit, the dead one fails — a commit interrupted midway.
	cc.kill(2)
	if err := c.SnapshotCommit("mid", epoch); err == nil {
		t.Fatal("commit succeeded with a dead daemon")
	}
	cc.restart(2)
	// Partial commit: the intersection hides the tag.
	ents, err := c.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("partially committed tag listed: %v", ents)
	}
	// Live namespace untorn.
	for i := 0; i < files; i++ {
		got, err := readLiveFull(c, fmt.Sprintf("/ck/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, crashContent(i, 1)) {
			t.Fatalf("file %d torn after mid-commit crash", i)
		}
	}
	// Re-driving the commit is idempotent on the survivors and completes
	// the restarted daemon: the tag becomes fully usable.
	if err := c.SnapshotCommit("mid", epoch); err != nil {
		t.Fatal(err)
	}
	ents, err = c.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Tag != "mid" || ents[0].Epoch != epoch {
		t.Fatalf("completed tag not listed correctly: %v", ents)
	}
	seedFiles(t, c, files, 2)
	for i := 0; i < files; i++ {
		want := crashContent(i, 1)
		got := readSnapFull(t, c, fmt.Sprintf("/ck/f%d", i), epoch, len(want))
		if !bytes.Equal(got, want) {
			t.Fatalf("file %d: snapshot view diverged after recovered commit", i)
		}
	}
}

// TestCrashMidStageOutFromSnapshot commits a tag, overwrites the live
// files, severs a daemon while the tag is draining to the host, then
// restarts it and re-drives the stage-out. The retried transfer must
// produce exactly the pinned pre-image — the crash may lose the
// in-flight transfer, never the snapshot it reads from.
func TestCrashMidStageOutFromSnapshot(t *testing.T) {
	const nodes, files = 3, 8
	cc := startCrashCluster(t, nodes)
	c := cc.c
	if err := c.Mkdir("/ck"); err != nil {
		t.Fatal(err)
	}
	seedFiles(t, c, files, 1)
	epoch, err := c.Snapshot("drain")
	if err != nil {
		t.Fatal(err)
	}
	_ = epoch
	seedFiles(t, c, files, 2) // live tree moves on

	// First attempt races a kill: sever as soon as bytes start landing.
	dst1 := t.TempDir()
	done := make(chan error, 1)
	go func() {
		rep, err := staging.StageOut(c, "/ck", dst1, staging.Options{Snapshot: "drain", Workers: 2})
		if err == nil {
			err = rep.Err()
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ents, _ := os.ReadDir(dst1); len(ents) > 0 {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	cc.kill(0)
	<-done // failed or finished; either way the crash landed mid-run
	cc.restart(0)

	// The retry reads the same pinned bytes through the restarted daemon:
	// pre-images and version history reloaded from disk.
	dst2 := t.TempDir()
	rep, err := staging.StageOut(c, "/ck", dst2, staging.Options{Snapshot: "drain", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		got, err := os.ReadFile(filepath.Join(dst2, fmt.Sprintf("f%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, crashContent(i, 1)) {
			t.Fatalf("file %d: staged bytes differ from the snapshot pre-image after crash", i)
		}
	}
	// And the live tree still reads generation 2 — the drain never
	// disturbed it.
	for i := 0; i < files; i++ {
		got, err := readLiveFull(c, fmt.Sprintf("/ck/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, crashContent(i, 2)) {
			t.Fatalf("live file %d torn by snapshot drain crash", i)
		}
	}
	if err := c.SnapshotDrop("drain"); err != nil {
		t.Fatal(err)
	}
}
