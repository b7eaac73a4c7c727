package client

import (
	"sync"
)

// The asynchronous write-behind pipeline. The paper's headline data-path
// numbers come from keeping every node's SSD busy with overlapping chunk
// transfers (§III-A, §IV); a client that blocks each Write on a full
// round trip per daemon is bounded by latency instead. With AsyncWrites
// enabled, Write/WriteAt stage their chunk-span RPCs into a bounded
// per-descriptor in-flight window and return immediately:
//
//   - the window depth caps in-flight chunk RPCs per descriptor; a write
//     that would exceed it blocks until a slot retires (backpressure, so
//     a fast producer cannot buffer unbounded data),
//   - completions retire asynchronously; the first failure latches on the
//     descriptor and surfaces exactly once, on the next Write/WriteAt,
//     Read/ReadAt, Fsync or Close (whichever touches the descriptor
//     first — a reader must not consume bytes whose producing writes
//     already failed under it),
//   - Fsync and Close are true barriers: they drain the window and then
//     flush the descriptor's cached size candidate, so after either
//     returns nil all acknowledged data is stored and visible,
//   - reads on the same descriptor drain the window first, and a write
//     overlapping an in-flight write of the same descriptor drains
//     before enqueueing, preserving program order for the issuing
//     process (GekkoFS's relaxed semantics only leave *concurrent*
//     overlapping I/O undefined).
//
// This is DisTRaC's argument for temporary HPC storage applied to the
// client: intermediate data tolerates deferred durability, so the fast
// path acknowledges locally and pipelines.

// DefaultWriteWindow is the in-flight chunk-RPC window depth used when
// AsyncWrites is on and Config.WriteWindow is zero.
const DefaultWriteWindow = 8

// pipeline is one descriptor's write-behind state. Enqueues happen under
// the descriptor lock (of.mu); completions run on their own goroutines
// and touch only the pipeline's internals, so barriers can wait for them
// while holding the descriptor lock without deadlock.
type pipeline struct {
	// slots is the in-flight window: one token per outstanding chunk RPC.
	slots chan struct{}
	// wg tracks outstanding RPCs. Add happens under of.mu, so a barrier
	// holding of.mu can Wait without racing a concurrent Add.
	wg sync.WaitGroup
	// onFail, when set, runs once when the first failure latches — the
	// hook that drops the descriptor path's chunk-cache blocks (a failed
	// write leaves its ranges undefined; a cached pre-write image must
	// not mask that). Set at open time, before any enqueue.
	onFail func()

	mu     sync.Mutex
	err    error       // guarded by mu; first completion failure, latched until surfaced
	ranges []*inflight // guarded by mu; byte extents of in-flight writes
}

// inflight is one staged write call's byte extent, alive until all of
// its per-daemon RPCs have retired.
type inflight struct {
	off, end int64
	rpcs     int
}

// conflicts reports whether [off, end) overlaps an in-flight write.
// Without this check two sequential writes to the same region would
// race in flight and the earlier one could land last.
func (pl *pipeline) conflicts(off, end int64) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, r := range pl.ranges {
		if off < r.end && r.off < end {
			return true
		}
	}
	return false
}

// addRange registers a staged write spanning [off, end) as rpcs
// outstanding RPCs; each completion calls releaseRange once.
func (pl *pipeline) addRange(off, end int64, rpcs int) *inflight {
	r := &inflight{off: off, end: end, rpcs: rpcs}
	pl.mu.Lock()
	pl.ranges = append(pl.ranges, r)
	pl.mu.Unlock()
	return r
}

// releaseRange retires one RPC of r, dropping the extent when the last
// one completes.
func (pl *pipeline) releaseRange(r *inflight) {
	pl.mu.Lock()
	r.rpcs--
	if r.rpcs == 0 {
		for i, x := range pl.ranges {
			if x == r {
				last := len(pl.ranges) - 1
				pl.ranges[i] = pl.ranges[last]
				pl.ranges = pl.ranges[:last]
				break
			}
		}
	}
	pl.mu.Unlock()
}

func newPipeline(depth int) *pipeline {
	return &pipeline{slots: make(chan struct{}, depth)}
}

// latch records the first asynchronous failure; later ones are dropped
// (the descriptor is already poisoned and the first cause is the useful
// one).
func (pl *pipeline) latch(err error) {
	if err == nil {
		return
	}
	pl.mu.Lock()
	first := pl.err == nil
	if first {
		pl.err = err
	}
	onFail := pl.onFail
	pl.mu.Unlock()
	if first && onFail != nil {
		onFail()
	}
}

// takeErr returns the latched error and clears it, so a failure is
// surfaced to the application exactly once — on the next write, read,
// or barrier, whichever comes first.
func (pl *pipeline) takeErr() error {
	pl.mu.Lock()
	err := pl.err
	pl.err = nil
	pl.mu.Unlock()
	return err
}

// drain blocks until every in-flight RPC has retired. The caller must
// hold of.mu (excluding new enqueues). Draining does not consume the
// latched error; drainErr does.
func (pl *pipeline) drain() {
	pl.wg.Wait()
}

// drainErr drains the window and surfaces the latched error, exactly
// once — what reads and barriers do first. A nil pipeline (a descriptor
// without write-behind) has nothing to drain.
func (pl *pipeline) drainErr() error {
	if pl == nil {
		return nil
	}
	pl.drain()
	return pl.takeErr()
}
