package client

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// serveDaemon starts a real daemon on a loopback TCP listener — the
// deployment shape of cmd/gkfs-daemon — and returns its address. With
// doorbell it also serves the shared-memory transport and advertises it.
func serveDaemon(t *testing.T, id int, chunk int64, doorbell bool) (string, *daemon.Daemon) {
	t.Helper()
	cfg := daemon.Config{ID: id, FS: vfs.NewMem(), ChunkSize: chunk}
	var shmL net.Listener
	if doorbell {
		dir, err := os.MkdirTemp("", "gkfs-mount-")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		cfg.ShmSocket = filepath.Join(dir, "d.sock")
		if shmL, err = net.Listen("unix", cfg.ShmSocket); err != nil {
			t.Skipf("no unix sockets here: %v", err)
		}
		t.Cleanup(func() { shmL.Close() })
	}
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go transport.ServeTCP(l, d.Server())
	if shmL != nil {
		go transport.ServeShm(shmL, d.Server(), 1<<20)
	}
	return l.Addr().String(), d
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func target(addrs ...string) Target {
	return Target{Daemons: strings.Join(addrs, ","), Conns: 1, Timeout: 5 * time.Second}
}

// wantMismatch asserts a typed mount refusal whose text names every part.
func wantMismatch(t *testing.T, err error, parts ...string) {
	t.Helper()
	if !errors.Is(err, ErrDaemonMismatch) {
		t.Fatalf("err = %v, want ErrDaemonMismatch", err)
	}
	for _, p := range parts {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("error %q does not name %q", err, p)
		}
	}
}

// TestMount drives the one mount path every tool uses against real TCP
// daemons: what it selects, what it tolerates and what it refuses.
func TestMount(t *testing.T) {
	const chunk = 4096
	data := pattern(3*chunk + 17)

	// Transport selection: whether bulk traffic rode the doorbell is what
	// the daemons' ShmCalls counters say.
	for _, tc := range []struct {
		name, mode string
		doorbell   bool
		wantShm    bool
		wantErr    string
	}{
		{"tcp ignores a doorbell", "tcp", true, false, ""},
		{"auto takes a reachable doorbell", "auto", true, true, ""},
		{"auto stays on tcp without one", "", false, false, ""},
		{"shm requires it", "shm", true, true, ""},
		{"shm fails loudly without a doorbell", "shm", false, false, "advertises no shared-memory doorbell"},
		{"unknown mode", "rdma", false, false, "unknown transport"},
	} {
		t.Run("transport/"+tc.name, func(t *testing.T) {
			a0, d0 := serveDaemon(t, 0, chunk, tc.doorbell)
			a1, d1 := serveDaemon(t, 1, chunk, tc.doorbell)
			tg := target(a0, a1)
			tg.Transport = tc.mode
			c, closeConns, err := Mount(tg, Config{})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Mount = %v, want an error naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer closeConns()
			writeFileVia(t, c, "/f", data)
			if got := d0.Stats().ShmCalls+d1.Stats().ShmCalls > 0; got != tc.wantShm {
				t.Fatalf("traffic over the doorbell = %v, want %v", got, tc.wantShm)
			}
		})
	}

	t.Run("replicas 2 mounts past one dead address and condemns it", func(t *testing.T) {
		a0, _ := serveDaemon(t, 0, chunk, false)
		a2, _ := serveDaemon(t, 2, chunk, false)
		c, closeConns, err := Mount(target(a0, deadAddr(t), a2), Config{Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer closeConns()
		if n := c.Stats().CondemnedDaemons; n != 1 || c.alive(1) {
			t.Fatalf("condemned = %d (daemon 1 alive: %v), want exactly daemon 1", n, c.alive(1))
		}
		if c.ChunkSize() != chunk {
			t.Fatalf("chunk size %d, want the surviving daemons' %d", c.ChunkSize(), chunk)
		}
	})

	t.Run("replicas 1 fails fast naming the dead address", func(t *testing.T) {
		a0, _ := serveDaemon(t, 0, chunk, false)
		dead := deadAddr(t)
		_, _, err := Mount(target(a0, dead), Config{})
		if err == nil || !strings.Contains(err.Error(), dead) {
			t.Fatalf("Mount = %v, want a dial error naming %s", err, dead)
		}
	})

	t.Run("swapped addresses name both daemons", func(t *testing.T) {
		a0, _ := serveDaemon(t, 0, chunk, false)
		a1, _ := serveDaemon(t, 1, chunk, false)
		_, _, err := Mount(target(a1, a0), Config{})
		wantMismatch(t, err, "ping daemon 0", "answers as daemon 1", "ping daemon 1", "answers as daemon 0")
	})

	t.Run("a daemon with another chunk size is refused", func(t *testing.T) {
		a0, _ := serveDaemon(t, 0, chunk, false)
		a1, _ := serveDaemon(t, 1, 2*chunk, false)
		_, _, err := Mount(target(a0, a1), Config{})
		wantMismatch(t, err, "ping daemon 1", "8192", "daemon 0 reports 4096")
		// A configured size is checked against every daemon, not adopted.
		_, _, err = Mount(target(a0), Config{ChunkSize: 2 * chunk})
		wantMismatch(t, err, "ping daemon 0", "4096", "the mount is configured for 8192")
	})

	t.Run("a mount given no chunk size adopts the daemons'", func(t *testing.T) {
		a0, _ := serveDaemon(t, 0, chunk, false)
		a1, _ := serveDaemon(t, 1, chunk, false)
		writer, closeWriter, err := Mount(target(a0, a1), Config{ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		defer closeWriter()
		writeFileVia(t, writer, "/f", data)

		reader, closeReader, err := Mount(target(a0, a1), Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer closeReader()
		if reader.ChunkSize() != chunk {
			t.Fatalf("adopted chunk size %d, want %d", reader.ChunkSize(), chunk)
		}
		fd, err := reader.Open("/f", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data)+1)
		n, err := reader.ReadAt(fd, got, 0)
		if n != len(data) || !bytes.Equal(got[:n], data) {
			t.Fatalf("read %d bytes (%v), want the writer's %d byte for byte", n, err, len(data))
		}
	})

	t.Run("no addresses", func(t *testing.T) {
		if _, _, err := Mount(target(" ", ""), Config{}); err == nil {
			t.Fatal("a mount of nothing succeeded")
		}
	})
}

// TestRejoinReprobeChecksIdentity: a condemned daemon is re-admitted only
// if what answers at its address is still that daemon, with the mount's
// chunk size — a daemon restarted under the wrong -id or -chunk stays out.
func TestRejoinReprobeChecksIdentity(t *testing.T) {
	const chunk = 4096
	a0, _ := serveDaemon(t, 0, chunk, false)
	a1, _ := serveDaemon(t, 1, chunk, false)
	c, closeConns, err := Mount(target(a0, a1), Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeConns()
	right := c.cfg.Conns[1]
	for name, tc := range map[string]struct {
		id    int
		chunk int64
		names []string
	}{
		"wrong id":         {0, chunk, []string{"rejoin: ping daemon 1", "answers as daemon 0"}},
		"wrong chunk size": {1, 2 * chunk, []string{"rejoin: ping daemon 1", "8192", "the mount uses 4096"}},
	} {
		addr, _ := serveDaemon(t, tc.id, tc.chunk, false)
		impostor, err := transport.DialTCP(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer impostor.Close()
		c.cfg.Conns[1] = impostor
		c.condemn(1)
		t.Run(name, func(t *testing.T) {
			wantMismatch(t, c.reprobe(1), tc.names...)
			if !c.health[1].condemned.Load() {
				t.Fatal("the impostor was re-admitted")
			}
		})
	}
	c.cfg.Conns[1] = right
	if err := c.reprobe(1); err != nil || c.health[1].condemned.Load() {
		t.Fatalf("the real daemon 1 was not re-admitted: %v", err)
	}
}

// TestProbeDaemonHostileReplies feeds the one ping decoder replies no
// honest daemon sends. Each must fail as a mismatch — never decode into a
// DaemonInfo a mount would act on — and another generation's reply must
// fail with the version message, not a decode error.
func TestProbeDaemonHostileReplies(t *testing.T) {
	good := func(e *rpc.Enc) *rpc.Enc { return e.U32(0).U16(proto.ProtocolVersion).Str("") }
	for _, tc := range []struct {
		name  string
		reply func(e *rpc.Enc)
		want  string
	}{
		{"empty after errno", func(e *rpc.Enc) {}, "truncated"},
		{"truncated before the version", func(e *rpc.Enc) { e.U32(0) }, "truncated"},
		{"truncated before the chunk size", func(e *rpc.Enc) { good(e) }, "truncated"},
		{"trailing bytes", func(e *rpc.Enc) { good(e).I64(4096).U8(7) }, "trailing"},
		{"negative chunk size", func(e *rpc.Enc) { good(e).I64(-4096) }, "chunk size -4096"},
		{"zero chunk size", func(e *rpc.Enc) { good(e).I64(0) }, "chunk size 0"},
		{"v11 reply (no chunk size)", func(e *rpc.Enc) { e.U32(0).U16(11).Str("") }, "speaks protocol version 11"},
		{"a later generation's longer reply", func(e *rpc.Enc) {
			e.U32(0).U16(proto.ProtocolVersion + 1).Str("").I64(4096).U64(1)
		}, "speaks protocol version"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := rpc.NewServer(1)
			srv.Register(proto.OpPing, func([]byte, rpc.Bulk) ([]byte, error) {
				e := rpc.NewEnc(32)
				e.U16(uint16(proto.OK))
				tc.reply(e)
				return e.Bytes(), nil
			})
			mem := transport.NewMemNetwork()
			mem.Register(0, srv)
			conn, err := mem.Dial(0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ProbeDaemon(conn)
			wantMismatch(t, err, tc.want)
			if transportError(err) {
				t.Fatal("a daemon that answered wrongly counts as unreachable: a replicated mount would tolerate it")
			}
		})
	}
	// The errno a daemon itself answers with surfaces as itself.
	srv := rpc.NewServer(1)
	srv.Register(proto.OpPing, func([]byte, rpc.Bulk) ([]byte, error) {
		e := rpc.NewEnc(2)
		e.U16(uint16(proto.ErrnoInval))
		return e.Bytes(), nil
	})
	mem := transport.NewMemNetwork()
	mem.Register(0, srv)
	conn, _ := mem.Dial(0)
	if _, err := ProbeDaemon(conn); !errors.Is(err, proto.ErrInval) {
		t.Fatalf("errno reply = %v, want ErrInval", err)
	}
}
