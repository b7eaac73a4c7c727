package transport

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// segSpan is one byte window [off, off+n) of a mapped segment.
type segSpan struct{ off, n int }

// segAlloc hands out byte windows of the mapped segment to concurrent
// calls: first-fit over an offset-sorted, coalesced free list, blocking
// while the segment is momentarily exhausted. Windows live for one call,
// so fragmentation stays negligible.
type segAlloc struct {
	mu   sync.Mutex
	cond *sync.Cond
	free []segSpan // sorted by off, adjacent spans coalesced
	size int
	dead error
}

func newSegAlloc(size int) *segAlloc {
	a := &segAlloc{free: []segSpan{{0, size}}, size: size}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// acquire reserves an n-byte window, blocking until one frees up. It
// fails fast when n can never fit or the connection died, and gives up
// with ErrTimeout after timeout (zero means wait without limit) — a
// stalled daemon parks windows as zombies, and without a bound here the
// exhausted segment would hang every later bulk call inside acquire
// instead of letting it report the timeout.
func (a *segAlloc) acquire(n int, timeout time.Duration) (int, error) {
	if n == 0 {
		return 0, nil
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// The broadcast takes the lock so the fire cannot slip between a
		// waiter's deadline check and its cond.Wait and be lost.
		t := time.AfterFunc(timeout, func() {
			a.mu.Lock()
			//lint:ignore SA2001 empty critical section orders the broadcast after any in-progress deadline check
			a.mu.Unlock()
			a.cond.Broadcast()
		})
		defer t.Stop()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if a.dead != nil {
			return 0, a.dead
		}
		if n > a.size {
			return 0, fmt.Errorf("transport: bulk of %d bytes exceeds the %d-byte shm segment", n, a.size)
		}
		for i := range a.free {
			if a.free[i].n >= n {
				off := a.free[i].off
				a.free[i].off += n
				a.free[i].n -= n
				if a.free[i].n == 0 {
					a.free = append(a.free[:i], a.free[i+1:]...)
				}
				return off, nil
			}
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return 0, fmt.Errorf("%w: waited %v for a %d-byte shm window", ErrTimeout, timeout, n)
		}
		a.cond.Wait()
	}
}

// release returns a window and wakes blocked acquirers.
func (a *segAlloc) release(off, n int) {
	if n == 0 {
		return
	}
	a.mu.Lock()
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= off })
	a.free = append(a.free, segSpan{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = segSpan{off, n}
	if i+1 < len(a.free) && a.free[i].off+a.free[i].n == a.free[i+1].off {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].n == a.free[i].off {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.mu.Unlock()
	a.cond.Broadcast()
}

// poison fails all current and future acquirers.
func (a *segAlloc) poison(err error) {
	a.mu.Lock()
	a.dead = err
	a.mu.Unlock()
	a.cond.Broadcast()
}
