package client

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// recordingListener remembers every accepted connection so a test can
// sever them — the client-visible signature of kill -9 is the socket
// dying mid-conversation, not a polite daemon shutdown.
type recordingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (r *recordingListener) Accept() (net.Conn, error) {
	c, err := r.Listener.Accept()
	if err == nil {
		r.mu.Lock()
		r.conns = append(r.conns, c)
		r.mu.Unlock()
	}
	return c, err
}

func (r *recordingListener) kill() {
	r.Listener.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
}

// replicaCluster is a loopback TCP deployment whose daemons a test can
// crash one at a time.
type replicaCluster struct {
	c   *Client
	lns []*recordingListener
}

func startReplicaCluster(t *testing.T, nodes int, cfg Config) *replicaCluster {
	t.Helper()
	rc := &replicaCluster{lns: make([]*recordingListener, nodes)}
	conns := make([]rpc.Conn, nodes)
	for i := 0; i < nodes; i++ {
		d, err := daemon.New(daemon.Config{ID: i, FS: vfs.NewMem(), ChunkSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rl := &recordingListener{Listener: l}
		rc.lns[i] = rl
		t.Cleanup(rl.kill)
		go transport.ServeTCP(rl, d.Server())
		conn, err := transport.DialTCP(l.Addr().String(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conns[i] = conn
	}
	cfg.Conns = conns
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 1024
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc.c = c
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	return rc
}

// pattern fills a deterministic byte stream the replicas must agree on.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + i/257)
	}
	return p
}

// TestReplicatedReadFailsOverOnCrash crashes a chunk primary between two
// read phases: the survivors' copies must serve the exact bytes with no
// error surfacing to the caller, and the client must record the hedged
// service and eventually condemn the dead daemon.
func TestReplicatedReadFailsOverOnCrash(t *testing.T) {
	rc := startReplicaCluster(t, 3, Config{Replicas: 2})
	c := rc.c
	const path = "/failover.bin"
	data := pattern(64 * 1024) // 64 chunks: every daemon owns primaries
	fd, err := c.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(fd, data, 0); err != nil {
		t.Fatal(err)
	}

	// First read phase, all daemons healthy.
	got := make([]byte, len(data))
	if _, err := c.ReadAt(fd, got[:8*1024], 0); err != nil {
		t.Fatal(err)
	}

	// Crash a daemon that is not the file's metadata owner (metadata is
	// not replicated; the size probe must keep answering).
	victim := (c.cfg.Dist.MetaTarget(path) + 1) % 3
	rc.lns[victim].kill()

	// Second read phase: several piecewise reads so the dead daemon
	// accumulates strikes and is condemned along the way.
	for off := 0; off < len(data); off += 8 * 1024 {
		if _, err := c.ReadAt(fd, got[off:off+8*1024], int64(off)); err != nil {
			t.Fatalf("read at %d after crash: %v", off, err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read returned wrong bytes")
	}
	st := c.Stats()
	if st.HedgedReads == 0 {
		t.Error("no hedged reads recorded despite a dead primary")
	}
	if st.CondemnedDaemons != 1 {
		t.Errorf("CondemnedDaemons = %d, want 1", st.CondemnedDaemons)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestReplicatedWriteSurvivesCrash crashes a daemon before any data is
// written: with R=2 every chunk still lands on at least one live
// replica, the writes succeed, and the read-back is byte-exact.
func TestReplicatedWriteSurvivesCrash(t *testing.T) {
	rc := startReplicaCluster(t, 3, Config{Replicas: 2})
	c := rc.c
	const path = "/degraded-write.bin"
	fd, err := c.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := (c.cfg.Dist.MetaTarget(path) + 2) % 3
	rc.lns[victim].kill()

	data := pattern(48 * 1024)
	for off := 0; off < len(data); off += 4 * 1024 {
		if _, err := c.WriteAt(fd, data[off:off+4*1024], int64(off)); err != nil {
			t.Fatalf("write at %d with a dead daemon: %v", off, err)
		}
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(fd, got, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded write round trip returned wrong bytes")
	}
	if st := c.Stats(); st.ReplicaWrites == 0 {
		t.Error("no replica writes recorded under R=2")
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestReplicatedAsyncWriteSurvivesCrash is the write-behind variant of
// the crash test — the CI smoke's exact shape: a daemon dies mid-stream
// while the pipeline is in flight, and the failure must be absorbed by
// the replica fan-out instead of latching the descriptor.
func TestReplicatedAsyncWriteSurvivesCrash(t *testing.T) {
	rc := startReplicaCluster(t, 3, Config{Replicas: 2, AsyncWrites: true})
	c := rc.c
	const path = "/async-crash.bin"
	fd, err := c.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := (c.cfg.Dist.MetaTarget(path) + 1) % 3
	data := pattern(96 * 1024)
	half := len(data) / 2
	for off := 0; off < half; off += 4 * 1024 {
		if _, err := c.WriteAt(fd, data[off:off+4*1024], int64(off)); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	rc.lns[victim].kill()
	for off := half; off < len(data); off += 4 * 1024 {
		if _, err := c.WriteAt(fd, data[off:off+4*1024], int64(off)); err != nil {
			t.Fatalf("write at %d after crash: %v", off, err)
		}
	}
	// Close is the pipeline barrier: any replica-tier failure that
	// wrongly latched would surface here.
	if err := c.Close(fd); err != nil {
		t.Fatalf("close after mid-stream crash: %v", err)
	}

	fd, err = c.Open(path, O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	got := make([]byte, len(data))
	if _, err := c.ReadAt(fd, got, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("async crash round trip returned wrong bytes")
	}
}

// TestReplicatedReadDegradesWhenChainDies kills both daemons of one
// chunk's replica chain: the read must surface ErrDegraded rather than
// hang, invent zeros, or report a deterministic errno.
func TestReplicatedReadDegradesWhenChainDies(t *testing.T) {
	rc := startReplicaCluster(t, 3, Config{Replicas: 2})
	c := rc.c
	const path = "/doomed.bin"
	data := pattern(64 * 1024)
	fd, err := c.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	// Killing m+1 and m+2 wipes the full chain {m+1, m+2} while the
	// metadata owner m keeps answering size probes.
	m := c.cfg.Dist.MetaTarget(path)
	rc.lns[(m+1)%3].kill()
	rc.lns[(m+2)%3].kill()

	got := make([]byte, len(data))
	_, err = c.ReadAt(fd, got, 0)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("read with a dead replica chain = %v, want ErrDegraded", err)
	}
	c.Close(fd)
}

// TestReplicasConfigRejected pins the constructor contract: a
// replication factor the daemon count cannot provide must fail loudly —
// silently clamping would fake a durability level that does not exist.
func TestReplicasConfigRejected(t *testing.T) {
	mk := func(n int) []rpc.Conn { return make([]rpc.Conn, n) }
	if _, err := New(Config{Conns: mk(2), ChunkSize: 1024, Replicas: 3}); err == nil {
		t.Error("Replicas=3 over 2 daemons accepted")
	}
	if _, err := New(Config{Conns: mk(2), ChunkSize: 1024, Replicas: -1}); err == nil {
		t.Error("negative Replicas accepted")
	}
}
