package client

import (
	"math"
	"sync"
	"sync/atomic"
)

// What this client knows about a file's size lives here: one sizeView per
// open path, shared by its descriptors, and one sizeCand per descriptor
// (docs/ARCHITECTURE.md, "What a client knows about a size"). Every answer
// carries the generation read before its request went out. This client's
// own Truncate and Remove advance the generation and record it as the
// path's cut before they lower the view, so an answer issued before them
// changes nothing when it lands; another path's Truncate or Remove does
// not move the cut. Lock order: Client.mu, then sizeView.mu, a leaf.

// unknownEnd is sizeView.end when no end of file is known.
const unknownEnd = math.MaxInt64

// sizeView is what this client knows about one open path's size.
type sizeView struct {
	gen   *atomic.Uint64 // Client.sizeGen
	acked atomic.Int64   // the owner has confirmed at least this size
	end   atomic.Int64   // the last end of file seen, or unknownEnd; bounds speculation only

	mu    sync.Mutex // orders the rules below against lowerSize
	cut   uint64     // guarded by mu; the generation at the view's creation or the path's last own lowering
	files *openFile  // guarded by Client.mu; the path's descriptors, by openFile.sameNext
}

// sizeCand is one descriptor's share of its path's view.
type sizeCand struct {
	n   atomic.Int64 // largest end written and not yet sent; 0: none
	ops int          // size-cache writes since the last flush; under the descriptor's mu
}

// owner records the metadata owner's exact answer, asked at gen. Only a
// read lowers the observed end: speculation runs until a fetch finds the
// end, and the blocks it fetched past it stay cached as EOF blocks.
func (v *sizeView) owner(gen uint64, size int64) {
	v.mu.Lock()
	if gen >= v.cut {
		v.acked.Store(size)
		if size > v.end.Load() {
			v.end.Store(unknownEnd)
		}
	}
	v.mu.Unlock()
}

// raise records the owner's acknowledgement, asked at gen, that the file
// reaches at least n: a grow it took.
func (v *sizeView) raise(gen uint64, n int64) {
	v.mu.Lock()
	if gen >= v.cut {
		if n > v.acked.Load() {
			v.acked.Store(n)
		}
		if n > v.end.Load() {
			v.end.Store(unknownEnd)
		}
	}
	v.mu.Unlock()
}

// observe records a read, issued at gen, that stopped at at: with eof the
// file ends at or before it, without it the file reaches that far. Only
// news takes the lock.
func (v *sizeView) observe(gen uint64, at int64, eof bool) {
	if cur := v.end.Load(); eof && at >= cur || !eof && at <= cur {
		return
	}
	v.mu.Lock()
	if gen >= v.cut {
		switch cur := v.end.Load(); {
		case eof && at < cur:
			v.end.Store(at)
		case !eof && at > cur:
			v.end.Store(unknownEnd)
		}
	}
	v.mu.Unlock()
}

// announce raises the candidate to n, before the data reaching n goes
// out: an own Truncate or Remove that follows always lowers it.
func (s *sizeCand) announce(n int64) {
	for cur := s.n.Load(); cur < n && !s.n.CompareAndSwap(cur, n); cur = s.n.Load() {
	}
}

// lower drops the candidate to at most n.
func (s *sizeCand) lower(n int64) {
	for cur := s.n.Load(); cur > n && !s.n.CompareAndSwap(cur, n); cur = s.n.Load() {
	}
}

// eof is the end of a file the owner says holds size bytes, as the
// descriptor sees it — the EOF of the read clamp, O_APPEND and SEEK_END.
func (s *sizeCand) eof(size int64) int64 { return max(size, s.n.Load()) }

// attachLocked joins of to its path's view, creating the view on the
// path's first open, and records the owner's answer at open (size, asked
// at gen). Caller holds mu.
func (c *Client) attachLocked(of *openFile, gen uint64, size int64) {
	v := c.views[of.path]
	if v == nil {
		// A fresh view cuts at the current generation: an own Truncate or
		// Remove of the path while no view existed is then still seen.
		v = &of.home
		v.gen = &c.sizeGen
		v.mu.Lock()
		v.cut = c.sizeGen.Load()
		v.mu.Unlock()
		v.end.Store(unknownEnd)
		c.views[of.path] = v
	}
	v.owner(gen, size)
	of.view, of.sameNext, v.files = v, v.files, of
}

// detachLocked takes of out of its view, dropping the view with the
// path's last descriptor. Caller holds mu.
func (c *Client) detachLocked(of *openFile) {
	p := &of.view.files
	for *p != of {
		p = &(*p).sameNext
	}
	if *p = of.sameNext; of.view.files == nil {
		delete(c.views, of.path)
	}
}

// grew is what the owner's acknowledgement that p reaches at least n,
// asked at gen, owes: p's view rises (v, or the open path's own when v is
// nil), and p's cached EOF blocks go, since they may end before n.
func (c *Client) grew(p string, v *sizeView, gen uint64, n int64) {
	if v == nil {
		c.mu.Lock()
		v = c.views[p]
		c.mu.Unlock()
	}
	if v != nil {
		v.raise(gen, n)
	}
	c.cacheInvalidate(p, 0, 0)
}

// lowerSize is what this client's own Truncate of p to size, or Remove
// (size 0), owes once the owner applied it: the generation advances and
// becomes the path's cut, then the view and every descriptor's candidate
// come down, so nothing resurrects the old size or lets I/O past the new
// end skip the owner.
func (c *Client) lowerSize(p string, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.sizeGen.Add(1)
	v := c.views[p]
	if v == nil {
		return
	}
	v.mu.Lock()
	v.cut = gen
	v.acked.Store(min(v.acked.Load(), size))
	v.end.Store(size)
	v.mu.Unlock()
	for of := v.files; of != nil; of = of.sameNext {
		of.cand.lower(size)
	}
}
