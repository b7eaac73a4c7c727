package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestServerDispatch(t *testing.T) {
	s := NewServer(4)
	s.Register(1, func(req []byte, _ Bulk) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	resp, err := s.Dispatch(1, []byte("hi"), nil)
	if err != nil || string(resp) != "echo:hi" {
		t.Fatalf("Dispatch = %q, %v", resp, err)
	}
	if st := s.Stats(); st.Requests != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerUnknownOp(t *testing.T) {
	s := NewServer(1)
	if _, err := s.Dispatch(9, nil, nil); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerClosed(t *testing.T) {
	s := NewServer(1)
	s.Register(1, func([]byte, Bulk) ([]byte, error) { return nil, nil })
	s.Close()
	if _, err := s.Dispatch(1, nil, nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerErrorCounting(t *testing.T) {
	s := NewServer(1)
	boom := errors.New("boom")
	s.Register(2, func([]byte, Bulk) ([]byte, error) { return nil, boom })
	if _, err := s.Dispatch(2, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHandlerPoolLimit verifies the Margo-style bounded execution pool:
// no more than poolSize handlers run at once.
func TestHandlerPoolLimit(t *testing.T) {
	const poolSize = 3
	s := NewServer(poolSize)
	var inFlight, maxSeen atomic.Int32
	s.Register(1, func([]byte, Bulk) ([]byte, error) {
		n := inFlight.Add(1)
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return nil, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Dispatch(1, nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > poolSize {
		t.Fatalf("observed %d concurrent handlers, pool is %d", m, poolSize)
	}
}

func TestSliceBulk(t *testing.T) {
	buf := []byte("0123456789")
	b := SliceBulk(buf)
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	dst := make([]byte, 4)
	if err := b.Pull(dst); err != nil || string(dst) != "0123" {
		t.Fatalf("Pull = %q, %v", dst, err)
	}
	if err := b.Push([]byte("AB")); err != nil {
		t.Fatal(err)
	}
	if string(buf[:2]) != "AB" {
		t.Fatalf("Push did not reach the client buffer: %q", buf)
	}
	if err := b.Pull(make([]byte, 11)); err == nil {
		t.Fatal("oversized pull allowed")
	}
	if err := b.Push(make([]byte, 11)); err == nil {
		t.Fatal("oversized push allowed")
	}
}

func TestRemoteErrorMessage(t *testing.T) {
	e := &RemoteError{Msg: "no such file"}
	if e.Error() != "rpc: remote: no such file" {
		t.Fatalf("Error() = %q", e.Error())
	}
}

// fillConn answers every BulkOut call by recording the size of the
// exposed region and filling it with each byte's position modulo 251.
type fillConn struct{ regions []int }

func (c *fillConn) Call(_ Op, _, bulk []byte, dir BulkDir) ([]byte, error) {
	if dir == BulkOut {
		c.regions = append(c.regions, len(bulk))
		for i := range bulk {
			bulk[i] = byte(i % 251)
		}
	}
	return []byte("ok"), nil
}

func (c *fillConn) Close() error { return nil }

// scatterFillConn also offers the ScatterCaller extension, counting its
// uses.
type scatterFillConn struct {
	fillConn
	lists int
}

func (c *scatterFillConn) CallScatter(_ Op, _ []byte, dest [][]byte, _ Trace) ([]byte, error) {
	c.lists++
	return []byte("scattered"), nil
}

// TestCallScatter pins the helper's three routes: no window is a plain
// call, one window is a plain BulkOut call on any connection, and a list
// goes to the extension when the connection has it — otherwise through
// one contiguous region whose bytes end up in the windows in order.
func TestCallScatter(t *testing.T) {
	plain := &fillConn{}
	a, b := make([]byte, 300), make([]byte, 200)
	if resp, err := CallScatter(plain, 1, nil, [][]byte{a, b}, Trace{}); err != nil || string(resp) != "ok" {
		t.Fatalf("staged list = %q, %v", resp, err)
	}
	for i, v := range append(append([]byte(nil), a...), b...) {
		if v != byte(i%251) {
			t.Fatalf("staged list: byte %d of the windows = %d, want %d", i, v, i%251)
		}
	}
	if _, err := CallScatter(plain, 1, nil, nil, Trace{}); err != nil {
		t.Fatal(err)
	}
	if _, err := CallScatter(plain, 1, nil, [][]byte{a}, Trace{}); err != nil {
		t.Fatal(err)
	}
	if len(plain.regions) != 2 || plain.regions[0] != 500 || plain.regions[1] != 300 {
		t.Fatalf("regions exposed = %v, want [500 300]", plain.regions)
	}
	ext := &scatterFillConn{}
	if resp, err := CallScatter(ext, 1, nil, [][]byte{a, b}, Trace{}); err != nil || string(resp) != "scattered" || ext.lists != 1 {
		t.Fatalf("list over the extension = %q, %v (%d uses)", resp, err, ext.lists)
	}
	if _, err := CallScatter(ext, 1, nil, [][]byte{a}, Trace{}); err != nil || ext.lists != 1 || len(ext.regions) != 1 {
		t.Fatalf("one window must be a plain call: %v, %d extension uses, regions %v", err, ext.lists, ext.regions)
	}
}
