package wiretest

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/transport"
)

// The carriers Dial and Conns serve over.
const (
	Mem     = "mem"      // in process, the caller's windows handed to the handler
	TCP     = "tcp"      // one loopback stream connection, bulk inline
	TCPPool = "tcp-pool" // a pool of loopback stream connections
	Shm     = "shm"      // a pool of doorbell connections, bulk by reference through a mapped segment
)

// carriers lists every carrier, the platform's or not.
var carriers = []string{Mem, TCP, TCPPool, Shm}

// timeout bounds every call a carrier makes: generous, since no test of
// a carrier's timeout runs through this package.
const timeout = time.Minute

// Dial serves srv on carrier and returns one connection to it, closed
// when tb ends; the pool carriers stripe width connections. Shm skips tb
// where the platform has no doorbell.
func Dial(tb testing.TB, srv *rpc.Server, carrier string, width int) rpc.Conn {
	tb.Helper()
	var c rpc.Conn
	var err error
	switch carrier {
	case Mem:
		fabric := transport.NewMemNetwork()
		fabric.Register(0, srv)
		c, err = fabric.Dial(0)
	case TCP:
		c, err = transport.DialTCP(ServeTCP(tb, srv).Addr().String(), timeout)
	case TCPPool:
		c, err = transport.DialTCPPool(ServeTCP(tb, srv).Addr().String(), timeout, width)
	case Shm:
		if !shmPlatform() {
			tb.Skipf("no shared-memory doorbell on %s", runtime.GOOS)
		}
		c, err = transport.DialShmPool(serveShm(tb, srv), timeout, width)
	default:
		tb.Fatalf("wiretest: unknown carrier %q", carrier)
	}
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// Conns serves srv on each carrier named — every one the platform has
// when none is — and dials one connection over each, keyed by carrier;
// pools are two connections wide.
func Conns(tb testing.TB, srv *rpc.Server, names ...string) map[string]rpc.Conn {
	tb.Helper()
	if len(names) == 0 {
		names = carriers
		if !shmPlatform() {
			names = names[:len(names)-1]
		}
	}
	conns := make(map[string]rpc.Conn, len(names))
	for _, name := range names {
		conns[name] = Dial(tb, srv, name, 2)
	}
	return conns
}

// shmPlatform reports whether the shared-memory doorbell exists here.
func shmPlatform() bool {
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		return false
	}
	return true
}

// serveShm serves srv on a fresh doorbell socket with a default-sized
// segment and returns the socket's path. The socket lives in its own
// short-named directory: a test's TempDir can exceed the sockaddr_un
// path limit on long test names.
func serveShm(tb testing.TB, srv *rpc.Server) string {
	dir, err := os.MkdirTemp("", "gkfs-wt-")
	if err != nil {
		tb.Fatal(err)
	}
	sock := filepath.Join(dir, "d.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		os.RemoveAll(dir)
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		l.Close()
		os.RemoveAll(dir)
	})
	go transport.ServeShm(l, srv, 0)
	return sock
}
