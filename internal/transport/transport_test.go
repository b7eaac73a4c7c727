package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

const (
	opEcho rpc.Op = iota + 1
	opFail
	opWrite // reads bulk, returns its checksum byte count
	opRead  // fills the client's buffer with a pattern
	opSlow
)

func newTestServer() *rpc.Server {
	s := rpc.NewServer(8)
	s.Register(opEcho, func(req []byte, _ rpc.Bulk) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	s.Register(opFail, func([]byte, rpc.Bulk) ([]byte, error) {
		return nil, errors.New("handler exploded")
	})
	s.Register(opWrite, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		buf, err := bulk.Bytes()
		if err != nil {
			return nil, err
		}
		var sum uint64
		for _, b := range buf {
			sum += uint64(b)
		}
		return []byte(fmt.Sprintf("%d:%d", len(buf), sum)), nil
	})
	s.Register(opRead, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		out, err := bulk.Writable(bulk.Len())
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = 0x5A
		}
		return []byte("ok"), bulk.Commit(len(out))
	})
	s.Register(opSlow, func([]byte, rpc.Bulk) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return []byte("late"), nil
	})
	return s
}

// conns builds one connection per transport against the same server.
func conns(t *testing.T) map[string]rpc.Conn {
	t.Helper()
	return connsAgainst(t, newTestServer())
}

// connsAgainst builds one connection per transport against srv, for
// tests that need to hold the server (observers, stats).
func connsAgainst(t *testing.T, srv *rpc.Server) map[string]rpc.Conn {
	t.Helper()

	net1 := NewMemNetwork()
	net1.Register(0, srv)
	memConn, err := net1.Dial(0)
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeTCP(l, srv)
	t.Cleanup(func() { l.Close() })
	tcpConn, err := DialTCP(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcpConn.Close() })

	poolConn, err := DialTCPPool(l.Addr().String(), 5*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { poolConn.Close() })

	m := map[string]rpc.Conn{"mem": memConn, "tcp": tcpConn, "tcp-pool": poolConn}
	for name, c := range platformConns(t, srv) {
		m[name] = c
	}
	return m
}

func TestEcho(t *testing.T) {
	for name, c := range conns(t) {
		t.Run(name, func(t *testing.T) {
			resp, err := c.Call(opEcho, []byte("hello"), nil, rpc.BulkNone)
			if err != nil || string(resp) != "echo:hello" {
				t.Fatalf("Call = %q, %v", resp, err)
			}
		})
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	for name, c := range conns(t) {
		t.Run(name, func(t *testing.T) {
			_, err := c.Call(opFail, nil, nil, rpc.BulkNone)
			var re *rpc.RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v (%T), want RemoteError", err, err)
			}
			if !strings.Contains(re.Msg, "handler exploded") {
				t.Fatalf("msg = %q", re.Msg)
			}
		})
	}
}

func TestBulkWritePath(t *testing.T) {
	for name, c := range conns(t) {
		t.Run(name, func(t *testing.T) {
			data := bytes.Repeat([]byte{3}, 100000)
			resp, err := c.Call(opWrite, nil, data, rpc.BulkIn)
			if err != nil {
				t.Fatal(err)
			}
			if string(resp) != "100000:300000" {
				t.Fatalf("server saw %q", resp)
			}
		})
	}
}

func TestBulkReadPath(t *testing.T) {
	for name, c := range conns(t) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, 64*1024)
			resp, err := c.Call(opRead, nil, buf, rpc.BulkOut)
			if err != nil || string(resp) != "ok" {
				t.Fatalf("Call = %q, %v", resp, err)
			}
			for i, b := range buf {
				if b != 0x5A {
					t.Fatalf("byte %d = %#x, want 0x5A", i, b)
				}
			}
		})
	}
}

func TestLargeTransfer(t *testing.T) {
	for name, c := range conns(t) {
		t.Run(name, func(t *testing.T) {
			data := make([]byte, 4<<20)
			for i := range data {
				data[i] = byte(i * 7)
			}
			var sum uint64
			for _, b := range data {
				sum += uint64(b)
			}
			resp, err := c.Call(opWrite, nil, data, rpc.BulkIn)
			if err != nil || string(resp) != fmt.Sprintf("%d:%d", len(data), sum) {
				t.Fatalf("Call = %q, %v", resp, err)
			}
		})
	}
}

func TestConcurrentCalls(t *testing.T) {
	for name, c := range conns(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 32; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					msg := []byte(fmt.Sprintf("m%d", i))
					resp, err := c.Call(opEcho, msg, nil, rpc.BulkNone)
					if err != nil || string(resp) != "echo:"+string(msg) {
						t.Errorf("call %d = %q, %v", i, resp, err)
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

func TestTCPTimeout(t *testing.T) {
	srv := newTestServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, srv)
	c, err := DialTCP(l.Addr().String(), 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(opSlow, nil, nil, rpc.BulkNone); err == nil {
		t.Fatal("slow call did not time out")
	}
	// The connection stays usable for later calls.
	time.Sleep(250 * time.Millisecond) // let the late response drain
	resp, err := c.Call(opEcho, []byte("x"), nil, rpc.BulkNone)
	if err != nil || string(resp) != "echo:x" {
		t.Fatalf("post-timeout call = %q, %v", resp, err)
	}
}

func TestTCPConnectionFailure(t *testing.T) {
	srv := newTestServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeTCP(l, srv)
	c, err := DialTCP(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the transport under the client.
	l.Close()
	if _, err := c.Call(opEcho, []byte("a"), nil, rpc.BulkNone); err == nil {
		// The first call may still win the race with the close; the next
		// must fail.
		if _, err2 := c.Call(opEcho, []byte("b"), nil, rpc.BulkNone); err2 == nil {
			t.Skip("listener close did not break established conn on this platform")
		}
	}
}

func TestMemDialUnknownNode(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.Dial(42); err == nil {
		t.Fatal("dial to unregistered node succeeded")
	}
}

func TestUnknownOpOverTransports(t *testing.T) {
	for name, c := range conns(t) {
		t.Run(name, func(t *testing.T) {
			_, err := c.Call(rpc.Op(999), nil, nil, rpc.BulkNone)
			var re *rpc.RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown operation") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}
