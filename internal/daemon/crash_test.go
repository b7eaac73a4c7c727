package daemon_test

// The crash-consistency harness: real TCP daemons on real on-disk state
// whose sockets a test severs in the middle of a checkpoint's life — while
// its step directory is created and while it drains to the host — and
// which restart on the same directories. What a crash may lose is the
// operation in flight; what it must not lose is anything acknowledged,
// and nothing it leaves behind may read as a damaged record.

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
	"repro/internal/proto"
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

// kill severs daemon i's socket mid-conversation, then closes it, which
// releases its directory's lock so restart can reopen the directory. Operations
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
// some chunks. Content is a function of (path, generation), so what a
// step held is reconstructible.
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

// TestCrashMidStageOut drains a finished step directory live, severs a
// daemon while the drain is running, restarts it on its directory and
// re-runs the stage-out. The crash may lose the transfer in flight, never
// the step it reads from: the re-run is byte-identical to what was
// written, and the step still reads the same through a descriptor.
func TestCrashMidStageOut(t *testing.T) {
	const nodes, files = 3, 8
	cc := startCrashCluster(t, nodes)
	c := cc.c
	if err := c.Mkdir("/ck"); err != nil {
		t.Fatal(err)
	}
	seedFiles(t, c, files, 1)

	// First attempt races a kill: sever as soon as bytes start landing.
	dst1 := t.TempDir()
	done := make(chan error, 1)
	go func() {
		rep, err := staging.StageOut(c, "/ck", dst1, staging.Options{Workers: 2})
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

	// The re-run reads the step through the restarted daemon: its
	// metadata recovered from the log, its chunks from their files.
	dst2 := t.TempDir()
	var rep *staging.Report
	var err error
	for try := 0; try < 2; try++ {
		// The first call after a sever may meet the dead socket; the
		// lazily re-dialing pool reconnects on the next one.
		if rep, err = staging.StageOut(c, "/ck", dst2, staging.Options{Workers: 2}); err == nil {
			err = rep.Err()
		}
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		got, err := os.ReadFile(filepath.Join(dst2, fmt.Sprintf("f%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, crashContent(i, 1)) {
			t.Fatalf("file %d: staged bytes differ from the step after the crash", i)
		}
		live, err := readLiveFull(c, fmt.Sprintf("/ck/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live, got) {
			t.Fatalf("file %d: the step reads differently from its staged copy", i)
		}
	}
}

// TestCrashMidCreateMany severs a daemon while a step directory's files
// are being created through the vectored metadata plane, batch after
// batch, then restarts it on its directory. Every create a batch
// acknowledged must be there after the restart (the log is synced before
// the acknowledgement), and every record the daemons hold must decode: a
// listing of the step and a stat of every path attempted, acknowledged or
// not, return each path as present or absent, never as a damaged record.
func TestCrashMidCreateMany(t *testing.T) {
	const nodes, batches, perBatch = 3, 24, 40
	cc := startCrashCluster(t, nodes)
	c := cc.c
	if err := c.Mkdir("/step"); err != nil {
		t.Fatal(err)
	}
	var attempted, acked []string
	failed := 0
	for b := 0; b < batches; b++ {
		killed := make(chan struct{})
		if b == batches/3 {
			// The sever races this batch: its RPC to daemon 1 is sent,
			// applied, or neither when the socket goes.
			go func() { cc.kill(1); close(killed) }()
		} else {
			close(killed)
		}
		if b == 2*batches/3 {
			cc.restart(1)
		}
		paths := make([]string, perBatch)
		for i := range paths {
			paths[i] = fmt.Sprintf("/step/r%03d-%03d", b, i)
		}
		attempted = append(attempted, paths...)
		for i, err := range c.CreateMany(paths) {
			if err == nil {
				acked = append(acked, paths[i])
			} else {
				failed++
			}
		}
		<-killed
	}
	if failed == 0 || len(acked) == 0 {
		t.Fatalf("%d of %d creates failed; the sever must land between acknowledged ones", failed, len(attempted))
	}

	listed := map[string]bool{}
	ents, err := c.ReadDir("/step")
	if err != nil {
		// The first call after the restart may meet the dead socket.
		ents, err = c.ReadDir("/step")
	}
	if err != nil {
		t.Fatalf("listing the step after the restart: %v", err)
	}
	for _, e := range ents {
		listed["/step/"+e.Name] = true
	}
	for _, p := range acked {
		if !listed[p] {
			t.Fatalf("acknowledged create %s is missing after the restart", p)
		}
	}
	infos, errs := c.StatMany(attempted)
	for i, p := range attempted {
		switch {
		case errs[i] == nil && (infos[i].IsDir() || infos[i].Size() != 0):
			t.Fatalf("%s: record reads as %+v, want an empty file", p, infos[i])
		case errs[i] == nil && !listed[p]:
			t.Fatalf("%s stats but is not listed", p)
		case errs[i] != nil && !errors.Is(errs[i], proto.ErrNotExist):
			t.Fatalf("%s: %v; want the record present or absent", p, errs[i])
		}
	}
}
