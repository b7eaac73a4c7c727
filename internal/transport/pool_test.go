package transport

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

// TestPoolSizesUnderConcurrentBulkTraffic drives pools of 1, 2 and 8
// striped connections with concurrent mixed bulk traffic (interleaved
// writes and reads, sizes from 1 B to 2 MiB) and verifies every payload
// survives the striping + per-connection multiplexing.
func TestPoolSizesUnderConcurrentBulkTraffic(t *testing.T) {
	for _, size := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("conns-%d", size), func(t *testing.T) {
			srv := rpc.NewServer(16)
			srv.Register(1, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
				buf := make([]byte, bulk.Len())
				if err := bulk.Pull(buf); err != nil {
					return nil, err
				}
				var sum uint64
				for _, b := range buf {
					sum += uint64(b)
				}
				return []byte(fmt.Sprintf("%d", sum)), nil
			})
			srv.Register(2, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
				seed := req[0]
				out := make([]byte, bulk.Len())
				for i := range out {
					out[i] = seed + byte(i)
				}
				return []byte("ok"), bulk.Push(out)
			})

			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go ServeTCP(l, srv)
			conn, err := DialTCPPool(l.Addr().String(), 30*time.Second, size)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if p, ok := conn.(*Pool); !ok || p.Size() != size {
				t.Fatalf("DialTCPPool returned %T with size %d", conn, size)
			}

			var wg sync.WaitGroup
			for g := 0; g < 12; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					sizes := []int{1, 100, 4096, 70000, 2 << 20}
					for round := 0; round < 6; round++ {
						n := sizes[(g+round)%len(sizes)]
						payload := bytes.Repeat([]byte{byte(g + 1)}, n)
						resp, err := conn.Call(1, nil, payload, rpc.BulkIn)
						if err != nil {
							t.Errorf("g%d r%d write: %v", g, round, err)
							return
						}
						want := fmt.Sprintf("%d", uint64(n)*uint64(g+1))
						if string(resp) != want {
							t.Errorf("g%d r%d checksum %s, want %s", g, round, resp, want)
							return
						}
						buf := make([]byte, n)
						seed := byte(g * 5)
						if _, err := conn.Call(2, []byte{seed}, buf, rpc.BulkOut); err != nil {
							t.Errorf("g%d r%d read: %v", g, round, err)
							return
						}
						for i, b := range buf {
							if b != seed+byte(i) {
								t.Errorf("g%d r%d byte %d = %d, want %d", g, round, i, b, seed+byte(i))
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if st := srv.Stats(); st.Errors != 0 {
				t.Fatalf("server recorded %d handler errors", st.Errors)
			}
		})
	}
}

// TestPoolLazyReconnect kills every server-side socket under a pool and
// verifies that subsequent calls re-dial the dead slots and succeed.
func TestPoolLazyReconnect(t *testing.T) {
	srv := newTestServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var mu sync.Mutex
	var accepted []net.Conn
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted = append(accepted, c)
			mu.Unlock()
			go serve(c, srv, nil)
		}
	}()

	pool, err := DialTCPPool(l.Addr().String(), 2*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Touch both slots so both connections exist.
	for i := 0; i < 4; i++ {
		if resp, err := pool.Call(opEcho, []byte("warm"), nil, rpc.BulkNone); err != nil || string(resp) != "echo:warm" {
			t.Fatalf("warmup call %d = %q, %v", i, resp, err)
		}
	}

	// Sever every connection server-side.
	mu.Lock()
	for _, c := range accepted {
		c.Close()
	}
	mu.Unlock()

	// Calls hitting the dead sockets fail once per slot, condemning them;
	// the pool then re-dials lazily and traffic resumes.
	deadline := time.Now().Add(10 * time.Second)
	recovered := 0
	for recovered < 4 {
		if time.Now().After(deadline) {
			t.Fatal("pool did not recover after server-side connection loss")
		}
		resp, err := pool.Call(opEcho, []byte("x"), nil, rpc.BulkNone)
		if err != nil {
			recovered = 0
			continue
		}
		if string(resp) != "echo:x" {
			t.Fatalf("post-reconnect call = %q", resp)
		}
		recovered++
	}
}

// TestPoolClosed verifies calls into a closed pool fail cleanly.
func TestPoolClosed(t *testing.T) {
	srv := newTestServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, srv)
	pool, err := DialTCPPool(l.Addr().String(), time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Call(opEcho, nil, nil, rpc.BulkNone); err == nil {
		t.Fatal("call into closed pool succeeded")
	}
}

// TestPoolRedialsConnectionFoundDead pins the stale-slot case: a server
// dies and comes back while its connection sits idle in the pool. Once
// the connection's read loop has marked it dead, the next call is refused
// before a byte of it is sent — so the pool re-dials and runs it on the
// fresh connection, exactly once, instead of failing a caller whose
// request was never on the wire. A server that is not back up still
// fails the call, with the dial error.
func TestPoolRedialsConnectionFoundDead(t *testing.T) {
	srv := newTestServer()
	// start serves srv on a fresh port; the returned sever closes the
	// listener and every accepted socket, as a dying daemon does.
	start := func() (addr string, sever func()) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var accepted []net.Conn
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				accepted = append(accepted, c)
				mu.Unlock()
				go serve(c, srv, nil)
			}
		}()
		return l.Addr().String(), func() {
			l.Close()
			mu.Lock()
			defer mu.Unlock()
			for _, c := range accepted {
				c.Close()
			}
		}
	}
	var addr atomic.Value
	var dials atomic.Int32
	pool := NewPool(1, func() (rpc.Conn, error) {
		dials.Add(1)
		return DialTCP(addr.Load().(string), 2*time.Second)
	})
	defer pool.Close()
	echo := func(msg string) error {
		t.Helper()
		resp, err := pool.Call(opEcho, []byte(msg), nil, rpc.BulkNone)
		if err == nil && string(resp) != "echo:"+msg {
			t.Fatalf("echo %q = %q", msg, resp)
		}
		return err
	}
	// severAndWait kills the server and returns once the pooled
	// connection's read loop has noticed.
	severAndWait := func(sever func()) {
		t.Helper()
		sever()
		stale := pool.slots[0].conn.(*conn)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			stale.mu.Lock()
			dead := stale.dead != nil
			stale.mu.Unlock()
			if dead {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("read loop never marked the severed connection dead")
			}
		}
	}

	a, sever := start()
	addr.Store(a)
	if err := echo("first"); err != nil {
		t.Fatal(err)
	}

	// Died and came back: the stale connection costs one re-dial, not an
	// error.
	severAndWait(sever)
	a, sever = start()
	addr.Store(a)
	if err := echo("after restart"); err != nil {
		t.Fatalf("call on a slot holding a dead connection: %v; want it re-dialed and served", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: first use and exactly one re-dial", n)
	}

	// Died and stayed down: the one re-dial fails and the call reports it.
	severAndWait(sever)
	if err := echo("down"); err == nil || !strings.Contains(err.Error(), "pool dial") {
		t.Fatalf("call with the server down = %v, want the dial error", err)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("%d dials, want 3: one more attempt, not a loop", n)
	}
}
