package client

import (
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/rpc"
)

// The read-ahead pipeline, the read mirror of pipeline.go's write-behind.
// The paper's data path keeps every node's SSD busy with overlapping
// chunk transfers (§III-A, §IV); a client that blocks each Read on a full
// RPC fan-out is bounded by round-trip latency instead, exactly as writes
// were before the write-behind window. With ReadAhead on, every
// read-capable descriptor owns one prefetch window:
//
//   - a detector watches the descriptor's reads; once they are sequential
//     (each starting where the previous ended), every read tops the window
//     up with span fetches just past its end, so the next read's bytes
//     are already moving while this one's are consumed. A fetch is one
//     readSpans fan-out of prefetchSpanChunks chunks into one pooled
//     region; each group's spans are windows of it, so the transport
//     places the bytes directly,
//   - a sequential read copies what the window covers and reads the rest
//     of its range straight into its buffer; the fetches it read past are
//     recycled,
//   - a non-sequential read drops the window and reads exactly its range
//     into its buffer: random access never speculates and is never
//     amplified,
//   - the window never answers EOF: past the bytes a fetch found, the read
//     asks the daemons, so no later grow can outdate a fetch's end,
//   - this client's own writes drop the fetches they overlap once the data
//     has landed (synchronous writes, write-behind completions,
//     WritePath); Truncate, Remove and a latched write-behind error drop
//     the path's windows whole. A fetch still in flight is poisoned and
//     recycles its own region when it lands,
//   - a failed fetch is never latched: the read that needs its bytes reads
//     them itself and surfaces the error, if it persists, exactly once.
//
// Nothing outlives the descriptor: Close drops the window and waits for
// its fetches. Every read the window does not serve asks the daemons, so
// another mount's write stays unseen only in bytes a live descriptor
// fetched ahead of its position — at most one window (docs/ARCHITECTURE.md,
// "Read-ahead").

const (
	// prefetchSpanChunks is how many chunks one fetch covers. Fetching
	// chunk by chunk would pay one RPC wave — and usually one size probe
	// to the path's metadata owner — per chunk; grouping amortizes the
	// probe and engages several daemons per wave exactly like a demand
	// read's fan-out does.
	prefetchSpanChunks = 4
	// prefetchBytes is how far a window reaches past the reader, in whole
	// fetches: max(1, prefetchBytes/span), 4 at the 512 KiB default chunk.
	// The depth was a knob whose default no other setting beat: three runs
	// of BenchmarkAsyncReadStream (64 KiB chunks, 2 CPUs) gave
	// 1 023–1 287 MB/s at 4 fetches and 974–1 261 MB/s at 16.
	prefetchBytes = 8 << 20
	// seqThreshold is how many consecutive sequential reads arm
	// speculation: the first read of a stream establishes the pattern, the
	// second confirms it and starts prefetching.
	seqThreshold = 2
)

// fetch is one span fetch of a window: [off, off+len(buf)) of the file
// into buf, a pooled region. Once settled, the file's bytes from off are
// buf[:n]: fewer for a fetch reaching past the end, none for one that
// failed.
type fetch struct {
	off     int64
	buf     []byte
	n       int  // guarded by readahead.mu
	settled bool // guarded by readahead.mu
	dropped bool // guarded by readahead.mu; out of the window: the later of drop and settle recycles buf
}

// end is the first byte past f's range.
func (f *fetch) end() int64 { return f.off + int64(len(f.buf)) }

// readahead is one descriptor's prefetch window and the detector that
// arms it. It owns its lock — ReadAt runs off the descriptor lock — and
// sits below Client.mu in the lock order. depth is how many spans ahead
// of the reader it fetches; wg counts fetches in flight.
type readahead struct {
	depth int
	wg    sync.WaitGroup

	mu      sync.Mutex
	landed  sync.Cond // on mu; broadcast whenever a fetch settles
	lastEnd int64     // guarded by mu; end of the previous read
	seq     int       // guarded by mu; consecutive sequential reads
	window  []*fetch  // guarded by mu; offset-ordered, ahead of the reader
}

func newReadahead(span int64) *readahead {
	ra := &readahead{depth: int(max(1, prefetchBytes/span))}
	ra.landed.L = &ra.mu
	return ra
}

// dropLocked takes the fetches gone reports out of the window, keeping
// the rest in order. A dropped fetch's region goes back to the pool now
// if it has landed, else when it does. Caller holds mu.
func (ra *readahead) dropLocked(gone func(f *fetch) bool) {
	kept := ra.window[:0]
	for _, f := range ra.window {
		if !gone(f) {
			kept = append(kept, f)
			continue
		}
		f.dropped = true
		if f.settled {
			rpc.PutBuf(f.buf)
		}
	}
	clear(ra.window[len(kept):])
	ra.window = kept
}

// drop takes the fetches overlapping [off, end) out of the window.
func (ra *readahead) drop(off, end int64) {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	ra.dropLocked(func(f *fetch) bool { return f.off < end && off < f.end() })
}

// close drops the window and waits until its fetches have landed, so
// every region is back in the pool when the descriptor is gone.
func (ra *readahead) close() {
	ra.drop(0, math.MaxInt64)
	ra.wg.Wait()
}

// settle records what f found and wakes the reads waiting for it; a
// fetch dropped in flight recycles its own region.
func (ra *readahead) settle(f *fetch, n int) {
	ra.mu.Lock()
	f.n, f.settled = n, true
	if f.dropped {
		rpc.PutBuf(f.buf)
	}
	ra.mu.Unlock()
	ra.landed.Broadcast()
}

// serve copies into p what the window holds of the file from off on,
// waiting for fetches still in flight, and returns how much it copied:
// it stops at the first byte no landed fetch has. Caller holds mu.
func (ra *readahead) serve(p []byte, off int64) int {
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		var f *fetch
		for _, w := range ra.window {
			if w.off <= pos && pos < w.end() {
				f = w
				break
			}
		}
		switch {
		case f == nil:
			return n
		case !f.settled:
			ra.landed.Wait() // then look pos up again: f may be gone
		case pos >= f.off+int64(f.n):
			return n
		default:
			n += copy(p[n:], f.buf[pos-f.off:f.n])
		}
	}
	return n
}

// readAhead reads [off, off+len(p)) for a descriptor: through its window
// when it has one, straight from the daemons otherwise. It keeps
// readSpans's contract: a short count always comes with io.EOF or an
// error.
func (c *Client) readAhead(of *openFile, p []byte, off int64) (int, error) {
	ra := of.ra
	if ra == nil {
		return c.readSpans(of, p, off)
	}
	ra.mu.Lock()
	seq := off == ra.lastEnd
	n := 0
	if seq {
		n = ra.serve(p, off)
	}
	ra.mu.Unlock()
	var err error
	if n < len(p) {
		var m int
		m, err = c.readSpans(of, p[n:], off+int64(n))
		n += m
		if err != nil && err != io.EOF {
			return n, err
		}
	}
	c.advance(of, seq, off+int64(n), err == io.EOF)
	return n, err
}

// advance feeds the detector a finished read ending at end — seq: it
// began where the previous one ended — and moves the window along. A
// non-sequential read drops it; a sequential one drops the fetches it
// read past and, once the stream is confirmed and has not met EOF, tops
// the window up: fetches from the window's end (the read's, when it is
// empty) while they start less than depth spans past the read's end and
// below the size the descriptor knows. It never blocks on the wire.
func (c *Client) advance(of *openFile, seq bool, end int64, eof bool) {
	ra := of.ra
	bs := c.cfg.ChunkSize
	known := of.cand.eof(of.view.acked.Load())
	ra.mu.Lock()
	defer ra.mu.Unlock()
	ra.lastEnd = end
	if seq {
		ra.seq++
		ra.dropLocked(func(f *fetch) bool { return f.end() <= end })
	} else {
		ra.seq = 1
		ra.dropLocked(func(*fetch) bool { return true })
	}
	if ra.seq < seqThreshold || eof {
		return
	}
	next := end
	if k := len(ra.window); k > 0 {
		next = ra.window[k-1].end()
	}
	horizon := end + int64(ra.depth)*bs*prefetchSpanChunks
	for next < horizon && next < known {
		// Fetches end on chunk boundaries: only the first after an empty
		// window, starting where the read ended, may be shorter.
		f := &fetch{off: next, buf: rpc.GetBuf(int(next - next%bs + bs*prefetchSpanChunks - next))}
		next = f.end()
		ra.window = append(ra.window, f)
		ra.wg.Add(1)
		go c.fetchSpan(of, f)
	}
}

// fetchSpan is one speculative fetch, run off every lock: a single
// readSpans fan-out into f's region. Its size answer reaches the path's
// size view like any read's. Its error is dropped: a failed fetch found
// no bytes, so the read that needs them reads them itself and surfaces
// the error if it persists.
func (c *Client) fetchSpan(of *openFile, f *fetch) {
	defer of.ra.wg.Done()
	var t0 time.Time
	if c.tel.prefetch != nil {
		t0 = time.Now()
	}
	n, _ := c.readSpans(of, f.buf, f.off)
	if c.tel.prefetch != nil {
		c.tel.prefetch.ObserveSince(t0)
	}
	of.ra.settle(f, n)
}

// dropFetches drops the fetches overlapping [off, end) of path from every
// read-ahead window open on it. A mount without read-ahead takes no lock.
func (c *Client) dropFetches(path string, off, end int64) {
	if !c.cfg.ReadAhead {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.views[path]; v != nil {
		for of := v.files; of != nil; of = of.sameNext {
			if of.ra != nil {
				of.ra.drop(off, end)
			}
		}
	}
}
