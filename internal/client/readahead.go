package client

import (
	"io"
	"math"
	"time"

	"repro/internal/rpc"
)

// Read-ahead: "send, then serve" over an in-flight window (window.go).
// The paper's data path keeps every node's SSD busy with overlapping
// chunk transfers (§III-A, §IV); a client that blocks each Read on a full
// RPC fan-out is bounded by round-trip latency instead, exactly as writes
// were before write-behind. With ReadAhead on, every read-capable
// descriptor owns one window of span fetches:
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
//     dropped,
//   - a non-sequential read drops the window and reads exactly its range
//     into its buffer: random access never speculates and is never
//     amplified,
//   - the window never answers EOF: past the bytes a fetch found, the read
//     asks the daemons, so no later grow can outdate a fetch's end,
//   - this client's own writes drop the fetches they overlap once the data
//     has landed (synchronous writes, write-behind completions,
//     WritePath); Truncate, Remove and a latched write-behind error drop
//     the path's windows whole,
//   - a failed fetch is never latched: it settles having found no bytes,
//     and the read that needs them reads them itself and surfaces the
//     error, if it persists, exactly once.
//
// Nothing outlives the descriptor: Close drops the window and waits for
// its fetches. Every read the window does not serve asks the daemons, so
// another mount's write stays unseen only in bytes a live descriptor
// fetched ahead of its position — at most one window (docs/ARCHITECTURE.md,
// "In-flight windows").

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

// readahead is one descriptor's window of fetches and the detector that
// arms it. The detector lives under the window's lock — ReadAt runs off
// the descriptor lock — which sits below Client.mu in the lock order.
type readahead struct {
	w       *Window
	lastEnd int64 // guarded by Window.mu; end of the previous read
	seq     int   // guarded by Window.mu; consecutive sequential reads
}

// newReadahead sizes the window for fetches of span bytes: the
// prefetchBytes ahead of the reader, plus the fetch it is reading from.
func newReadahead(span int64) *readahead {
	return &readahead{w: NewWindow(int(max(1, prefetchBytes/span)) + 1)}
}

// serve copies into p what the window holds of the file from off on when
// the read is sequential, waiting for fetches still in flight, and
// returns how much it copied: it stops at the first byte no landed fetch
// has.
func (ra *readahead) serve(p []byte, off int64) (n int, seq bool) {
	w := ra.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if off != ra.lastEnd {
		return 0, false
	}
	for n < len(p) {
		pos := off + int64(n)
		var f *Slot
		for _, s := range w.slots {
			if !s.dropped && s.Off <= pos && pos < s.End {
				f = s
				break
			}
		}
		switch {
		case f == nil:
			return n, true
		case !f.settled:
			w.waitLocked(f) // then look pos up again: f may be gone
		case pos >= f.Off+int64(f.n):
			return n, true
		default:
			n += copy(p[n:], f.buf[pos-f.Off:f.n])
		}
	}
	return n, true
}

// close drops the window and waits until its fetches have landed, so
// every region is back in the pool when the descriptor is gone.
func (ra *readahead) close() {
	ra.w.Drop(0, math.MaxInt64)
	ra.w.Drain()
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
	n, seq := ra.serve(p, off)
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
// empty) while they start less than k-1 spans past the read's end, below
// the size the descriptor knows, and the window has room. It never blocks
// on the wire.
func (c *Client) advance(of *openFile, seq bool, end int64, eof bool) {
	ra, w := of.ra, of.ra.w
	bs := c.cfg.ChunkSize
	span := bs * prefetchSpanChunks
	known := of.cand.eof(of.view.acked.Load())
	w.mu.Lock()
	defer w.mu.Unlock()
	ra.lastEnd = end
	if seq {
		ra.seq++
		w.dropLocked(func(s *Slot) bool { return s.End <= end })
	} else {
		ra.seq = 1
		w.dropLocked(func(*Slot) bool { return true })
	}
	if ra.seq < seqThreshold || eof {
		return
	}
	next := end
	for i := len(w.slots) - 1; i >= 0; i-- {
		if !w.slots[i].dropped {
			next = w.slots[i].End
			break
		}
	}
	horizon := end + int64(w.k-1)*span
	for next < horizon && next < known && len(w.slots) < w.k {
		// Fetches end on chunk boundaries: only the first after an empty
		// window, starting where the read ended, may be shorter.
		off := next
		buf := rpc.GetBuf(int(off - off%bs + span - off))
		next = off + int64(len(buf))
		w.startLocked(off, next, buf, func() (int, error) { return c.fetchSpan(of, buf, off), nil })
	}
}

// fetchSpan is one speculative fetch, run off every lock: a single
// readSpans fan-out into buf, reporting how many of the file's bytes from
// off it found. Its size answer reaches the path's size view like any
// read's. Its error is dropped: a failed fetch found no bytes, so the
// read that needs them reads them itself and surfaces the error if it
// persists.
func (c *Client) fetchSpan(of *openFile, buf []byte, off int64) int {
	var t0 time.Time
	if c.tel.prefetch != nil {
		t0 = time.Now()
	}
	n, _ := c.readSpans(of, buf, off)
	if c.tel.prefetch != nil {
		c.tel.prefetch.ObserveSince(t0)
	}
	return n
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
				of.ra.w.Drop(off, end)
			}
		}
	}
}
