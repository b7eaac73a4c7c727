package client

import (
	"slices"
	"sync"

	"repro/internal/rpc"
)

// The in-flight window: up to k slots, each the byte range [off, end) of
// a file with one asynchronous operation on it and, optionally, a pooled
// region the operation fills, held in start order. It has two callers:
// read-ahead fetches the spans past a sequential reader and serves its
// next reads from them (readahead.go), and staging's copy loop is a read
// window feeding a write window, so one side of a transfer never waits
// on the other (internal/staging). What tells them apart lives with each
// caller, never here. The rules:
//
//   - Start waits while k slots are held (backpressure);
//   - a region returns to the pool exactly once, by whichever of drop and
//     its operation's settle comes second;
//   - the first failing operation latches; TakeErr surfaces it once;
//   - Drain returns once every started operation has settled.

// Window is one in-flight window; NewWindow makes one.
type Window struct {
	k int
	// put returns a region to the pool: rpc.PutBuf, or a test's count of it.
	put func([]byte)

	mu      sync.Mutex
	changed sync.Cond // on mu; broadcast when an operation settles or a region is recycled
	slots   []*Slot   // guarded by mu; the held regions, in start order
	running int       // guarded by mu; operations started and not yet settled
	err     error     // guarded by mu; the first failure, latched until taken
}

// Slot is one held slot of a window: [Off, End) of a file, the operation
// on it and the region it holds, if any.
type Slot struct {
	Off, End int64
	buf      []byte
	n        int   // guarded by Window.mu; the count the operation returned
	err      error // guarded by Window.mu
	settled  bool  // guarded by Window.mu
	dropped  bool  // guarded by Window.mu; out of view: the later of drop and settle recycles buf
}

// NewWindow returns a window of k slots.
func NewWindow(k int) *Window {
	w := &Window{k: k, put: rpc.PutBuf}
	w.changed.L = &w.mu
	return w
}

// Start runs op on a goroutine of its own as the operation of a new slot
// over [off, end) holding buf — a region from rpc.GetBuf the window now
// owns, or nil for an operation on a region held elsewhere. It waits
// while k slots are held. op's count and error settle the slot; an
// error latches.
//
//gkfs:owns-buf
func (w *Window) Start(off, end int64, buf []byte, op func() (int, error)) *Slot {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.startLocked(off, end, buf, op)
}

// startLocked is Start inside the caller's critical section; waiting for
// room releases mu. Caller holds mu.
//
//gkfs:owns-buf
func (w *Window) startLocked(off, end int64, buf []byte, op func() (int, error)) *Slot {
	for len(w.slots) >= w.k {
		w.changed.Wait()
	}
	s := &Slot{Off: off, End: end, buf: buf}
	w.slots = append(w.slots, s)
	w.running++
	go w.run(s, op)
	return s
}

// run is one slot's operation, off every lock, and its settle.
func (w *Window) run(s *Slot, op func() (int, error)) {
	n, err := op()
	w.mu.Lock()
	s.n, s.err, s.settled = n, err, true
	w.running--
	if s.dropped {
		i := slices.Index(w.slots, s)
		w.slots = slices.Delete(w.slots, i, i+1)
		w.put(s.buf)
	}
	if err != nil && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.changed.Broadcast()
}

// Wait blocks until s settles and returns the bytes its operation
// counted and its error. Waiting on slots in start order is the ordered
// wait; s must stay in view until Wait returns.
func (w *Window) Wait(s *Slot) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitLocked(s)
	return s.buf[:s.n], s.err
}

// waitLocked blocks until s settles or leaves view. Caller holds mu.
func (w *Window) waitLocked(s *Slot) {
	for !s.settled && !s.dropped {
		w.changed.Wait()
	}
}

// Drop takes the slots overlapping [off, end) out of view.
func (w *Window) Drop(off, end int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dropLocked(func(s *Slot) bool { return s.Off < end && off < s.End })
}

// dropLocked takes the slots gone reports out of view. A dropped region
// returns to the pool now if its operation has settled, else when it
// does. Caller holds mu.
func (w *Window) dropLocked(gone func(s *Slot) bool) {
	kept := w.slots[:0]
	for _, s := range w.slots {
		if !s.dropped && gone(s) {
			s.dropped = true
			if s.settled {
				w.put(s.buf)
				continue
			}
		}
		kept = append(kept, s)
	}
	clear(w.slots[len(kept):])
	w.slots = kept
	w.changed.Broadcast()
}

// Full reports whether k slots are held: a Start now would wait.
func (w *Window) Full() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.slots) >= w.k
}

// Drain blocks until every started operation has settled. It leaves the
// latched error in place.
func (w *Window) Drain() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.running > 0 {
		w.changed.Wait()
	}
}

// TakeErr returns the latched failure and clears it, so each one
// surfaces exactly once.
func (w *Window) TakeErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	w.err = nil
	return err
}
