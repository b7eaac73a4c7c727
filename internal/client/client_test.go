package client

import (
	"testing"
	"testing/quick"

	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

// newCluster deploys nodes daemons over vfs.Mem, serves each over
// carrier ("mem" or "tcp", see wiretest) and mounts a client on them; it
// returns the client, the daemons, so tests can read their counters and
// crash them, and mount, which mounts another client of the deployment.
func newCluster(t testing.TB, carrier string, nodes int, cfg Config) (*Client, []*daemon.Daemon, func() *Client) {
	t.Helper()
	daemons := make([]*daemon.Daemon, nodes)
	for i := range daemons {
		d, err := daemon.New(daemon.Config{ID: i, FS: vfs.NewMem(), ChunkSize: cfg.ChunkSize})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		daemons[i] = d
	}
	mount := func() *Client {
		mcfg := cfg
		mcfg.Conns = make([]rpc.Conn, nodes)
		for i, d := range daemons {
			mcfg.Conns[i] = wiretest.Dial(t, d.Server(), carrier, 1)
		}
		c, err := New(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := mount()
	if err := c.VerifyProtocol(); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	return c, daemons, mount
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	d, err := daemon.New(daemon.Config{FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := wiretest.Dial(t, d.Server(), wiretest.Mem, 1)
	if _, err := New(Config{Conns: []rpc.Conn{conn}, ChunkSize: -4}); err == nil {
		t.Fatal("negative chunk size accepted")
	}
}

func TestGroupByTargetPartition(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 512})
	// Property: the per-target groups partition the byte range exactly.
	f := func(off uint16, length uint16) bool {
		o, n := int64(off), int64(length)+1
		groups := c.groupByTarget("/some/file", o, n)
		var total int64
		seen := make(map[int64]bool) // buffer offsets must be unique
		for tgt, g := range groups {
			if tgt < 0 || tgt >= 4 {
				return false
			}
			if int64(len(g.spans)) != int64(len(g.bufOff)) {
				return false
			}
			var gbytes int64
			for i, s := range g.spans {
				if s.Len <= 0 || s.Off < 0 || s.Off+s.Len > 512 {
					return false
				}
				if seen[g.bufOff[i]] {
					return false
				}
				seen[g.bufOff[i]] = true
				gbytes += s.Len
			}
			if gbytes != g.bytes {
				return false
			}
			total += gbytes
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRelativePathRejected(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 2, Config{ChunkSize: 512})
	if _, err := c.Open("relative/path", O_RDONLY); err == nil {
		t.Fatal("relative path accepted")
	}
	if _, err := c.Open("/a/../b", O_CREATE|O_WRONLY); err == nil {
		t.Fatal("dot-dot path accepted")
	}
	if err := c.Mkdir(""); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestFDLifecycle(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 2, Config{ChunkSize: 512})
	fd, err := c.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if p, err := c.PathOf(fd); err != nil || p != "/f" {
		t.Fatalf("PathOf = %q, %v", p, err)
	}
	fd2, err := c.Open("/f", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if fd == fd2 {
		t.Fatal("descriptor reuse while open")
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != ErrBadFD {
		t.Fatalf("double close = %v", err)
	}
	if _, err := c.PathOf(fd); err != ErrBadFD {
		t.Fatalf("PathOf after close = %v", err)
	}
	if err := c.Close(fd2); err != nil {
		t.Fatal(err)
	}
}

func TestEnsureRootIdempotent(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 512})
	for i := 0; i < 3; i++ {
		if err := c.EnsureRoot(); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := c.ReadDir("/")
	if err != nil || len(ents) != 0 {
		t.Fatalf("fresh root listing = %v, %v", ents, err)
	}
}

func TestChunkSizeAccessor(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 1, Config{ChunkSize: 2048})
	if c.ChunkSize() != 2048 {
		t.Fatalf("ChunkSize = %d", c.ChunkSize())
	}
}
