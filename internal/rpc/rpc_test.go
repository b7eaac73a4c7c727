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
	if got, err := b.Bytes(); err != nil || string(got) != "0123456789" {
		t.Fatalf("Bytes = %q, %v", got, err)
	}
	w, err := b.Writable(2)
	if err != nil {
		t.Fatal(err)
	}
	copy(w, "AB")
	if err := b.Commit(2); err != nil {
		t.Fatal(err)
	}
	if string(buf[:2]) != "AB" {
		t.Fatalf("Writable did not reach the client buffer: %q", buf)
	}
	if _, err := b.Writable(11); err == nil {
		t.Fatal("oversized writable allowed")
	}
	if err := b.Commit(11); err == nil {
		t.Fatal("oversized commit allowed")
	}
}

func TestRemoteErrorMessage(t *testing.T) {
	e := &RemoteError{Msg: "no such file"}
	if e.Error() != "rpc: remote: no such file" {
		t.Fatalf("Error() = %q", e.Error())
	}
}

// fillConn answers every BulkOut call by filling the region it was
// handed with each byte's position modulo 251.
type fillConn struct{}

func (fillConn) Call(_ Op, _, bulk []byte, dir BulkDir) ([]byte, error) {
	if dir == BulkOut {
		for i := range bulk {
			bulk[i] = byte(i % 251)
		}
	}
	return nil, nil
}

func (fillConn) Close() error { return nil }

// TestCallFallbackAllocatesNothing pins the staging fallback: over a
// Conn without the Vectored extension, rpc.Call lends one window as it
// is and runs a list through one pooled region, scattered out in order,
// with no allocation of its own either way.
func TestCallFallbackAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its Puts")
	}
	var c Conn = fillConn{}
	a, b := make([]byte, 300), make([]byte, 200)
	one, two := [][]byte{a}, [][]byte{a, b}
	for _, wins := range [][][]byte{one, two} {
		call := func() {
			if _, err := Call(c, 1, nil, wins, BulkOut, Trace{}); err != nil {
				t.Fatal(err)
			}
		}
		call() // fill the pool
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("a synchronous call over %d windows makes %v allocations, want 0", len(wins), n)
		}
	}
	for i, v := range append(append([]byte(nil), a...), b...) {
		if v != byte(i%251) {
			t.Fatalf("byte %d of the windows = %d, want %d", i, v, i%251)
		}
	}
}
