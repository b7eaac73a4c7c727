package client

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

// jitter delays an operation by a duration derived from its offset, so a
// window's operations settle out of start order — the same jitter
// staging's pump tests put on their fake source and sink.
func jitter(off int64) {
	time.Sleep(time.Duration(off/(64<<10)*7919%5) * 100 * time.Microsecond)
}

// regionBytes is the size of every region the window tests draw: a size
// no other code path asks the pool for, so the draw count is theirs.
const regionBytes = 4321

// countedWindow returns a window of k regions whose pool draws (of
// regionBytes) and puts are counted.
func countedWindow(t *testing.T, k int) (w *Window, draws, puts *atomic.Int64) {
	t.Helper()
	draws, puts = new(atomic.Int64), new(atomic.Int64)
	stop := rpc.ObserveDraws(func(n int) {
		if n == regionBytes {
			draws.Add(1)
		}
	})
	t.Cleanup(stop)
	w = NewWindow(k)
	w.put = func(b []byte) {
		if len(b) == regionBytes {
			puts.Add(1)
		}
		rpc.PutBuf(b)
	}
	return w, draws, puts
}

// fill is an operation writing off's stamp over its region after a jitter.
func fill(buf []byte, off int64, active *atomic.Int32) func() (int, error) {
	return func() (int, error) {
		active.Add(1)
		defer active.Add(-1)
		jitter(off)
		for i := range buf {
			buf[i] = byte(off / (64 << 10))
		}
		return len(buf), nil
	}
}

// TestWindowOrderedWaitOutOfOrderSettles streams twelve regions through a
// window of four whose operations settle out of order: waiting on the
// slots in start order hands each region back in stream order with its
// own bytes, no more than k operations are ever held, and every region
// drawn goes back to the pool exactly once.
func TestWindowOrderedWaitOutOfOrderSettles(t *testing.T) {
	const k, n = 4, 12
	w, draws, puts := countedWindow(t, k)
	var active atomic.Int32
	var peak int32
	var queue []*Slot
	for i := int64(0); i < n; i++ {
		off := i * 64 << 10
		buf := rpc.GetBuf(regionBytes)
		queue = append(queue, w.Start(off, off+regionBytes, buf, fill(buf, off, &active)))
		peak = max(peak, active.Load())
		if w.Full() {
			s := queue[0]
			queue = queue[1:]
			data, err := w.Wait(s)
			if err != nil || !bytes.Equal(data, bytes.Repeat([]byte{byte(s.Off / (64 << 10))}, regionBytes)) {
				t.Fatalf("slot at %d: %d bytes, %v; want its own %d", s.Off, len(data), err, regionBytes)
			}
			w.Drop(s.Off, s.End)
		}
	}
	for _, s := range queue {
		if _, err := w.Wait(s); err != nil {
			t.Fatal(err)
		}
		w.Drop(s.Off, s.End)
	}
	w.Drain()
	if peak > k {
		t.Fatalf("%d operations ran at once in a window of %d", peak, k)
	}
	if d, p := draws.Load(), puts.Load(); d != n || p != n {
		t.Fatalf("drew %d regions and put %d, want %d each", d, p, n)
	}
}

// TestWindowRecyclesOnce drops a slot before and after its operation
// settles, and twice: each region returns to the pool exactly once, on the
// later of the two events, and a Start waiting for room proceeds when it
// does.
func TestWindowRecyclesOnce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dropFirst  bool
		dropTwice  bool
		putsAtDrop int64 // puts once the drop returned
	}{
		{"drop-before-settle", true, false, 0},
		{"drop-after-settle", false, false, 1},
		{"drop-twice-in-flight", true, true, 0},
		{"drop-twice-landed", false, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, draws, puts := countedWindow(t, 1)
			release := make(chan struct{})
			buf := rpc.GetBuf(regionBytes)
			s := w.Start(0, regionBytes, buf, func() (int, error) {
				<-release
				return len(buf), nil
			})
			if !tc.dropFirst {
				close(release)
				if _, err := w.Wait(s); err != nil {
					t.Fatal(err)
				}
			}
			w.Drop(0, regionBytes)
			if tc.dropTwice {
				w.Drop(0, regionBytes)
			}
			if got := puts.Load(); got != tc.putsAtDrop {
				t.Fatalf("%d puts once dropped, want %d", got, tc.putsAtDrop)
			}
			// The window is full until the region is recycled.
			started := make(chan struct{})
			go func() {
				w.Start(1, 2, nil, func() (int, error) { return 0, nil })
				close(started)
			}()
			if tc.dropFirst {
				select {
				case <-started:
					t.Fatal("Start ran while the window's one region was still in flight")
				case <-time.After(20 * time.Millisecond):
				}
				close(release)
			}
			<-started
			w.Drop(1, 2)
			w.Drain()
			if d, p := draws.Load(), puts.Load(); d != 1 || p != 1 {
				t.Fatalf("drew %d regions and put %d, want 1 each", d, p)
			}
		})
	}
}

// TestWindowLatchSurfacesOnce fails two of three operations: the first
// failure latches and TakeErr surfaces it exactly once; a failure after
// the latch was taken latches anew.
func TestWindowLatchSurfacesOnce(t *testing.T) {
	w := NewWindow(4)
	first, second := errors.New("first"), errors.New("second")
	gate := make(chan struct{})
	s := w.Start(0, 1, nil, func() (int, error) { return 0, first })
	w.Start(1, 2, nil, func() (int, error) { <-gate; return 0, second })
	w.Start(2, 3, nil, func() (int, error) { return 0, nil })
	if _, err := w.Wait(s); err != first {
		t.Fatalf("Wait = %v, want the first failure", err)
	}
	w.Drop(0, 3)
	close(gate)
	w.Drain()
	if err := w.TakeErr(); err != first {
		t.Fatalf("TakeErr = %v, want the first failure", err)
	}
	if err := w.TakeErr(); err != nil {
		t.Fatalf("second TakeErr = %v, want nil: surfaced twice", err)
	}
	w.Start(3, 4, nil, func() (int, error) { return 0, second })
	w.Drop(3, 4)
	w.Drain()
	if err := w.TakeErr(); err != second {
		t.Fatalf("after a taken latch: TakeErr = %v, want the new failure", err)
	}
}

// TestWindowDrainWaitsForEveryOperation starts operations that settle out
// of order, some dropped in flight: Drain returns only once every one of
// them has finished.
func TestWindowDrainWaitsForEveryOperation(t *testing.T) {
	w, _, puts := countedWindow(t, 8)
	var active atomic.Int32
	var done atomic.Int32
	for i := int64(0); i < 8; i++ {
		off := i * 64 << 10
		buf := rpc.GetBuf(regionBytes)
		op := fill(buf, off, &active)
		w.Start(off, off+regionBytes, buf, func() (int, error) {
			defer done.Add(1)
			return op()
		})
		if i%2 == 0 {
			w.Drop(off, off+regionBytes)
		}
	}
	w.Drain()
	if a, d := active.Load(), done.Load(); a != 0 || d != 8 {
		t.Fatalf("Drain returned with %d operations running and %d of 8 finished", a, d)
	}
	if p := puts.Load(); p != 4 {
		t.Fatalf("%d regions recycled after Drain, want the 4 dropped", p)
	}
	w.Drop(0, 1<<30)
	if p := puts.Load(); p != 8 {
		t.Fatalf("%d regions recycled after dropping the rest, want 8", p)
	}
}
