//go:build unix

package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/rpc"
)

// listenShm opens a fresh Unix-domain doorbell socket and returns it with
// its path. The socket lives in its own short-named temp dir — t.TempDir
// can exceed the sockaddr_un path limit on long test names.
func listenShm(t testing.TB) (net.Listener, string) {
	t.Helper()
	dir, err := os.MkdirTemp("", "gkfs-shm-t-")
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "d.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		os.RemoveAll(dir)
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Close()
		os.RemoveAll(dir)
	})
	return l, sock
}

// startShmServer serves srv on a fresh doorbell socket and returns its
// path.
func startShmServer(t testing.TB, srv *rpc.Server, segBytes int) string {
	t.Helper()
	l, sock := listenShm(t)
	go ServeShm(l, srv, segBytes)
	return sock
}

// platformConns adds the shared-memory transport to the generic
// cross-transport suite on platforms that have it.
func platformConns(t *testing.T, srv *rpc.Server) map[string]rpc.Conn {
	t.Helper()
	sock := startShmServer(t, srv, 0)
	shmConn, err := DialShm(sock, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shmConn.Close() })
	poolConn, err := DialShmPool(sock, 5*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { poolConn.Close() })
	return map[string]rpc.Conn{"shm": shmConn, "shm-pool": poolConn}
}

// platformTargets adds a doorbell to the hostile-frame tables: raw
// streams complete the handshake (without bothering to map the segment)
// so their frames reach the shared request parser.
func platformTargets(t *testing.T, srv *rpc.Server) []wireTarget {
	t.Helper()
	const seg = 1 << 20
	sock := startShmServer(t, srv, seg)
	return []wireTarget{{
		name: "shm",
		ref:  true,
		seg:  seg,
		raw: func(t *testing.T) net.Conn {
			c, err := net.Dial("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := readShmHello(c); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write([]byte{shmAck}); err != nil {
				t.Fatal(err)
			}
			return c
		},
		dial: func(timeout time.Duration) (rpc.Conn, error) { return DialShm(sock, timeout) },
	}}
}

// platformFakeDaemons adds a one-connection fake doorbell daemon: it
// completes the handshake over a real 1 MiB segment, runs script on the
// stream, then dies.
func platformFakeDaemons(t *testing.T, script func(c net.Conn, ref bool)) map[string]func() (rpc.Conn, error) {
	t.Helper()
	l, sock := listenShm(t)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		seg, path, err := createShmSegment(1 << 20)
		if err != nil {
			return
		}
		defer syscall.Munmap(seg)
		defer os.Remove(path)
		if err := writeShmHello(conn, path, 1<<20); err != nil {
			return
		}
		var ack [1]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			return
		}
		script(conn, true)
	}()
	return map[string]func() (rpc.Conn, error){
		"shm": func() (rpc.Conn, error) { return DialShm(sock, 10*time.Second) },
	}
}

// TestShmConcurrentBulkStress hammers one doorbell connection with mixed
// bulk traffic over a deliberately small segment, so callers constantly
// contend for (and block on) allocator windows. Run under -race this
// exercises every handoff: caller→segment, daemon in-place handler,
// segment→caller, and the allocator's block/wake path.
func TestShmConcurrentBulkStress(t *testing.T) {
	srv := newTestServer()
	sock := startShmServer(t, srv, 1<<20) // 1 MiB: a few large calls fill it
	c, err := DialShm(sock, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 16
	const iters = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				n := 1 + rng.Intn(256<<10) // up to 256 KiB per window
				if i%2 == 0 {
					data := make([]byte, n)
					for j := range data {
						data[j] = byte(w + j)
					}
					var sum uint64
					for _, b := range data {
						sum += uint64(b)
					}
					resp, err := c.Call(opWrite, nil, data, rpc.BulkIn)
					if err != nil {
						t.Errorf("worker %d write: %v", w, err)
						return
					}
					if want := fmt.Sprintf("%d:%d", n, sum); string(resp) != want {
						t.Errorf("worker %d write: server saw %q, want %q", w, resp, want)
						return
					}
				} else {
					buf := make([]byte, n)
					resp, err := c.Call(opRead, nil, buf, rpc.BulkOut)
					if err != nil || string(resp) != "ok" {
						t.Errorf("worker %d read: %q, %v", w, resp, err)
						return
					}
					if !bytes.Equal(buf, bytes.Repeat([]byte{0x5A}, n)) {
						t.Errorf("worker %d read: scattered bytes corrupt", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShmBulkExceedsSegment verifies that a transfer that can never fit
// the segment fails fast instead of deadlocking in the allocator.
func TestShmBulkExceedsSegment(t *testing.T) {
	srv := newTestServer()
	sock := startShmServer(t, srv, 64<<10)
	c, err := DialShm(sock, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(opWrite, nil, make([]byte, 128<<10), rpc.BulkIn)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized bulk: err = %v, want segment-size failure", err)
	}
	// The connection itself is unharmed.
	resp, err := c.Call(opEcho, []byte("still-here"), nil, rpc.BulkNone)
	if err != nil || string(resp) != "echo:still-here" {
		t.Fatalf("post-failure call = %q, %v", resp, err)
	}
}

// TestShmDaemonCrashFailsPendingCalls drives the crash-mid-bulk contract:
// a daemon that dies between accepting requests and responding must fail
// every pending call promptly — the doorbell socket is the liveness
// signal — and doom the connection for later callers.
func TestShmDaemonCrashFailsPendingCalls(t *testing.T) {
	// A daemon that completes the handshake, swallows part of one request
	// frame, then dies mid-conversation.
	dial := platformFakeDaemons(t, func(c net.Conn, _ bool) {
		io.ReadFull(c, make([]byte, 16))
	})["shm"]
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := c.Call(opWrite, nil, make([]byte, 4<<10), rpc.BulkIn)
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("call against a crashed daemon succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending call hung after daemon crash")
		}
	}
	// The connection is condemned: later calls fail immediately.
	if _, err := c.Call(opEcho, []byte("x"), nil, rpc.BulkNone); err == nil {
		t.Fatal("condemned shm connection accepted another call")
	}
}

// TestShmTimeoutReclaimsWindowOnLateResponse checks the zombie-window
// protocol: a timed-out call's segment window stays reserved (the daemon
// may still be writing it) until the late response arrives, after which
// the full segment is allocatable again.
func TestShmTimeoutReclaimsWindowOnLateResponse(t *testing.T) {
	srv := newTestServer()
	const seg = 64 << 10
	sock := startShmServer(t, srv, seg)
	c, err := DialShm(sock, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// opSlow sleeps 200 ms, far past the 30 ms call timeout. The call's
	// window spans the whole segment, so nothing else fits until it is
	// reclaimed.
	if _, err := c.Call(opSlow, nil, make([]byte, seg), rpc.BulkIn); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call: err = %v, want ErrTimeout", err)
	}
	// While the zombie still owns the segment, a whole-segment call
	// cannot acquire a window: the allocator is bounded by the call
	// timeout and reports ErrTimeout instead of hanging forever.
	if _, err := c.Call(opWrite, nil, make([]byte, seg), rpc.BulkIn); !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted-segment call: err = %v, want ErrTimeout", err)
	}
	// Once the late response lands (~200 ms in) the window returns to
	// the allocator and the full segment is usable again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Call(opWrite, nil, make([]byte, seg), rpc.BulkIn)
		if err == nil {
			if want := fmt.Sprintf("%d:0", seg); string(resp) != want {
				t.Fatalf("post-timeout whole-segment call = %q, want %q", resp, want)
			}
			break
		}
		if !errors.Is(err, ErrTimeout) || time.Now().After(deadline) {
			t.Fatalf("post-timeout whole-segment call: %v", err)
		}
	}
}

// TestSegAllocAcquireTimeout pins the allocator's own timeout contract:
// a waiter on an exhausted segment gets ErrTimeout after the bound
// rather than blocking until some other call releases a window.
func TestSegAllocAcquireTimeout(t *testing.T) {
	a := newSegAlloc(1 << 10)
	off, err := a.acquire(1<<10, time.Second)
	if err != nil || off != 0 {
		t.Fatalf("acquire full segment = %d, %v", off, err)
	}
	start := time.Now()
	if _, err := a.acquire(1, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted acquire: err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("exhausted acquire took %v, want ~50ms", d)
	}
	a.release(off, 1<<10)
	if _, err := a.acquire(1, 50*time.Millisecond); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestShmClientCrashMidDispatchKeepsDaemonAlive covers the unmap race:
// the client dies with a request in flight while the daemon handler
// still holds a slice into the mapped segment. serveShmConn must drain
// handlers before munmapping — otherwise the handler's late Push below
// writes unmapped memory, a SIGSEGV that would kill this whole process.
func TestShmClientCrashMidDispatchKeepsDaemonAlive(t *testing.T) {
	const opSlowRead rpc.Op = 99
	srv := newTestServer()
	srv.Register(opSlowRead, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		time.Sleep(150 * time.Millisecond) // the client crashes in here
		out := bytes.Repeat([]byte{0xA5}, bulk.Len())
		if err := bulk.Push(out); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})
	sock := startShmServer(t, srv, 1<<20)
	c, err := DialShm(sock, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Call(opSlowRead, nil, make([]byte, 64<<10), rpc.BulkOut)
	}()
	time.Sleep(30 * time.Millisecond) // request reaches the daemon; handler is asleep
	c.Close()                         // crash with the dispatch in flight
	<-done
	time.Sleep(300 * time.Millisecond) // handler wakes and pushes into the segment
	// The daemon survived and still serves fresh clients.
	c2, err := DialShm(sock, 5*time.Second)
	if err != nil {
		t.Fatalf("redial after client crash: %v", err)
	}
	defer c2.Close()
	resp, err := c2.Call(opEcho, []byte("alive"), nil, rpc.BulkNone)
	if err != nil || string(resp) != "echo:alive" {
		t.Fatalf("daemon after client crash: %q, %v", resp, err)
	}
}
