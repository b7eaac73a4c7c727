package client

import (
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/rpc"
)

// The asynchronous read-ahead pipeline and the client-side chunk cache —
// the read mirror of pipeline.go's write-behind. The paper's data path
// keeps every node's SSD busy with overlapping chunk transfers (§III-A,
// §IV); a client that blocks each Read on a full RPC fan-out is bounded
// by round-trip latency instead, exactly as writes were before the
// write-behind window. With read-ahead enabled on a descriptor:
//
//   - a detector watches the descriptor's access pattern; once reads are
//     sequential (each starting where the previous ended), the client
//     speculatively issues the next chunk-span fetches into a bounded
//     per-descriptor in-flight window (ReadWindow counts span fetches,
//     each covering up to prefetchSpanChunks chunks in one RPC wave), so
//     the data for the *next* Read is already moving while the current
//     one is being consumed,
//   - completed prefetches land in a size-bounded, client-wide LRU chunk
//     cache (CacheBytes) over pooled buffers; Read/ReadAt serve from it
//     without touching the wire, and demand reads opportunistically
//     deposit the full chunk blocks they cover, so sequential re-reads
//     of a cached file move zero wire bytes,
//   - random access never speculates: a non-sequential read resets the
//     detector, and a non-sequential miss smaller than a chunk pays an
//     exact-range wire read (no block amplification; only the full
//     blocks it happens to cover are deposited) — block-aligned
//     expansion applies to sequential runs and chunk-or-larger
//     requests, where it costs at most two partial chunks and buys
//     complete, re-servable blocks,
//   - the cache never serves this client's own stale bytes: every write
//     path invalidates the blocks it overlaps after the data lands
//     (synchronous writes, write-behind completions, WritePath), size
//     growth drops EOF-bearing blocks, and so does a read meeting one
//     the size view outgrew, Truncate/Remove drop the path,
//     and a latched write-behind error drops the path too (the failed
//     ranges are undefined — serving a cached pre-write image would hide
//     that),
//   - a failed prefetch is never latched: the entry is discarded and the
//     read that needs those bytes pays a demand fetch, surfacing the
//     error (if it persists) exactly once, from that read.
//
// Cross-client staleness is the standard client-cache relaxation (XUFS
// and kin): another client's concurrent write or append may not be
// observed by a cached read until the affected blocks age out or this
// client writes the file itself. GekkoFS already leaves concurrent
// conflicting I/O undefined (paper §III-A); see docs/ARCHITECTURE.md.

// Read-ahead defaults.
const (
	// DefaultReadWindow is the in-flight prefetch span-fetch limit per
	// descriptor when read-ahead is on and Config.ReadWindow is zero.
	DefaultReadWindow = 4
	// DefaultCacheBytes sizes the client chunk cache when read-ahead is
	// enabled without an explicit Config.CacheBytes.
	DefaultCacheBytes = 32 << 20
	// prefetchSpanChunks is how many chunks one speculative span fetch
	// covers. Fetching chunk by chunk would pay one RPC wave — and
	// usually one size-probe RPC to the path's metadata owner — per
	// chunk; grouping amortizes the probe and engages several daemons
	// per wave exactly like a demand read's fan-out does.
	prefetchSpanChunks = 4
)

// seqThreshold is how many consecutive sequential reads arm speculation:
// the first read of a stream establishes the pattern, the second
// confirms it and starts prefetching.
const seqThreshold = 2

// errCacheDropped poisons a cache entry that was invalidated while its
// fetch was still in flight; readers treat it as a miss.
var errCacheDropped = errors.New("gekkofs: cached block dropped mid-fetch")

// readahead is one descriptor's prefetch state. The detector fields are
// guarded by mu; slots is the in-flight window (one token per
// outstanding span fetch — up to prefetchSpanChunks blocks each) and wg
// tracks outstanding fetch goroutines so tests can quiesce
// deterministically.
type readahead struct {
	slots chan struct{}
	wg    sync.WaitGroup

	mu      sync.Mutex
	lastEnd int64 // guarded by mu; end offset of the previous read on this descriptor
	seq     int   // guarded by mu; consecutive sequential reads observed
	nextOff int64 // guarded by mu; next block offset speculation would issue
}

func newReadahead(window int) *readahead {
	return &readahead{slots: make(chan struct{}, window)}
}

// continues reports whether a read at off continues the current
// sequential run (it starts exactly where the last read ended).
func (ra *readahead) continues(off int64) bool {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return off == ra.lastEnd
}

// --- chunk cache ---

// cacheEnt is one cached (or in-flight) chunk-aligned block of one path.
// done closes when the fetch settles; data/n/eof/err are immutable after
// that. The LRU links, ref count and gone flag are guarded by the cache
// mutex.
type cacheEnt struct {
	path string
	off  int64 // chunk-aligned block offset
	size int64 // block size charged against the cache budget

	done chan struct{}
	data []byte // pooled; nil until settled and after recycling
	n    int    // present bytes (n == block size unless eof)
	eof  bool   // the file ended at off+n when fetched
	err  error  // fetch failure; entry is already unlinked

	settled    bool      // guarded by chunkCache.mu
	gone       bool      // guarded by chunkCache.mu; unlinked from the cache (invalidated/evicted)
	ref        int       // guarded by chunkCache.mu; readers copying from data; blocks buffer recycling
	prev, next *cacheEnt // guarded by chunkCache.mu
}

// end returns the first byte past the entry's present data.
func (ent *cacheEnt) end() int64 { return ent.off + int64(ent.n) }

// pathBlocks indexes one path's cached blocks. eofs counts settled
// entries carrying an EOF mark, so a grow can drop exactly those without
// scanning paths that have none. gen counts this path's invalidations: a
// demand read snapshots it before going to the wire and its deposit is
// accepted only if no write to this path landed in between — per path,
// so an unrelated path's writes never discard the deposit.
type pathBlocks struct {
	blocks map[int64]*cacheEnt // guarded by chunkCache.mu
	eofs   int                 // guarded by chunkCache.mu
	gen    uint64              // guarded by chunkCache.mu
}

func newPathBlocks() *pathBlocks {
	return &pathBlocks{blocks: make(map[int64]*cacheEnt)}
}

// chunkCache is the client-wide block cache: chunk-aligned spans of file
// data keyed by (path, block offset), bounded by cap bytes, evicted LRU.
// Buffers are pooled (rpc.GetBuf/PutBuf) and recycled only once no
// reader holds a reference.
type chunkCache struct {
	mu    sync.Mutex
	cap   int64
	used  int64                  // guarded by mu
	paths map[string]*pathBlocks // guarded by mu
	// LRU list: head is most recently used, tail the eviction candidate.
	head, tail *cacheEnt // guarded by mu
}

func newChunkCache(capBytes int64) *chunkCache {
	if capBytes <= 0 {
		capBytes = DefaultCacheBytes
	}
	return &chunkCache{cap: capBytes, paths: make(map[string]*pathBlocks)}
}

// lruUnlink removes ent from the LRU list. Caller holds mu.
func (cc *chunkCache) lruUnlink(ent *cacheEnt) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else if cc.head == ent {
		cc.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else if cc.tail == ent {
		cc.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

// lruFront moves ent to the MRU position. Caller holds mu.
func (cc *chunkCache) lruFront(ent *cacheEnt) {
	if cc.head == ent {
		return
	}
	cc.lruUnlink(ent)
	ent.next = cc.head
	if cc.head != nil {
		cc.head.prev = ent
	}
	cc.head = ent
	if cc.tail == nil {
		cc.tail = ent
	}
}

// unlink removes ent from the index and the LRU list and releases its
// budget; the buffer is recycled once the last reader lets go (or here,
// when none holds it). Caller holds mu.
func (cc *chunkCache) unlink(ent *cacheEnt) {
	if ent.gone {
		return
	}
	ent.gone = true
	cc.used -= ent.size
	cc.lruUnlink(ent)
	if pb := cc.paths[ent.path]; pb != nil {
		delete(pb.blocks, ent.off)
		if ent.settled && ent.eof {
			pb.eofs--
		}
		// An emptied pathBlocks is garbage-collected only when its
		// generation never moved: a gen>0 stub must survive so a deposit
		// whose wire read raced the invalidation cannot be fooled by a
		// freshly recreated gen-0 record (ABA). The retained stub is a
		// few words, only for paths both read and written by this client.
		if len(pb.blocks) == 0 && pb.gen == 0 {
			delete(cc.paths, ent.path)
		}
	}
	if ent.settled && ent.ref == 0 && ent.data != nil {
		rpc.PutBuf(ent.data)
		ent.data = nil
	}
}

// evict drops settled LRU entries until the budget fits. In-flight
// entries are pinned (their fetch is already paid for). Caller holds mu.
func (cc *chunkCache) evict() {
	for ent := cc.tail; ent != nil && cc.used > cc.cap; {
		prev := ent.prev
		if ent.settled {
			cc.unlink(ent)
		}
		ent = prev
	}
}

// contains reports whether a block (settled or in flight) exists at
// (path, off), and whether it is a settled EOF block, without touching
// the LRU order or reference counts.
func (cc *chunkCache) contains(path string, off int64) (ok, eof bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if pb := cc.paths[path]; pb != nil {
		if ent := pb.blocks[off]; ent != nil {
			return true, ent.settled && ent.eof
		}
	}
	return false, false
}

// coverage reports how far into [off, end) the cache can serve: the
// offset of the first byte whose block (granularity bs) is neither
// present nor in flight, clamped to end. One lock acquisition for the
// whole scan.
func (cc *chunkCache) coverage(path string, off, end, bs int64) int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pb := cc.paths[path]
	if pb == nil {
		return off
	}
	pos := off
	for pos < end && pb.blocks[pos-pos%bs] != nil {
		pos = pos - pos%bs + bs
	}
	return min(pos, end)
}

// acquire returns the block at (path, off) with a reader reference, or
// nil. The caller must wait on done, then release.
func (cc *chunkCache) acquire(path string, off int64) *cacheEnt {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pb := cc.paths[path]
	if pb == nil {
		return nil
	}
	ent := pb.blocks[off]
	if ent == nil {
		return nil
	}
	ent.ref++
	cc.lruFront(ent)
	return ent
}

// release drops a reader reference taken by acquire, recycling the
// buffer of an unlinked entry once the last reader is gone. A served
// entry is demoted to the eviction end: under pressure the cache must
// shed blocks the stream already consumed, never the prefetched blocks
// the reader is about to need (plain LRU does exactly the wrong thing
// here — consumption would refresh consumed blocks while the prefetch
// frontier's oldest, soonest-needed block ages to the tail).
func (cc *chunkCache) release(ent *cacheEnt) {
	cc.mu.Lock()
	ent.ref--
	switch {
	case ent.gone:
		if ent.ref == 0 && ent.data != nil {
			rpc.PutBuf(ent.data)
			ent.data = nil
		}
	default:
		cc.lruBack(ent)
	}
	cc.mu.Unlock()
}

// lruBack moves ent to the eviction end. Caller holds mu.
func (cc *chunkCache) lruBack(ent *cacheEnt) {
	if cc.tail == ent {
		return
	}
	cc.lruUnlink(ent)
	ent.prev = cc.tail
	if cc.tail != nil {
		cc.tail.next = ent
	}
	cc.tail = ent
	if cc.head == nil {
		cc.head = ent
	}
}

// startFetch registers an in-flight entry for (path, off), reserving
// size bytes of budget. It returns (ent, false) when the block is
// already present or being fetched.
func (cc *chunkCache) startFetch(path string, off, size int64) (*cacheEnt, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pb := cc.paths[path]
	if pb == nil {
		pb = newPathBlocks()
		cc.paths[path] = pb
	}
	if ent := pb.blocks[off]; ent != nil {
		return ent, false
	}
	ent := &cacheEnt{path: path, off: off, size: size, done: make(chan struct{})}
	pb.blocks[off] = ent
	cc.used += size
	cc.lruFront(ent)
	cc.evict()
	return ent, true
}

// settle completes an in-flight fetch with data. If the entry was
// invalidated mid-flight the buffer is recycled and waiters see a miss.
//
//gkfs:owns-buf
func (cc *chunkCache) settle(ent *cacheEnt, data []byte, eof bool) {
	cc.mu.Lock()
	if ent.gone {
		ent.err = errCacheDropped
		rpc.PutBuf(data)
	} else {
		ent.data, ent.n, ent.eof = data, len(data), eof
		if eof {
			cc.paths[ent.path].eofs++
		}
	}
	ent.settled = true
	close(ent.done)
	cc.mu.Unlock()
}

// settleErr completes an in-flight fetch that failed, recycling the
// block it was fetching into: the entry is unlinked and waiters treat it
// as a miss. Prefetch failures are never latched — the demand read that
// needs the bytes refetches and surfaces its own error.
//
//gkfs:owns-buf
func (cc *chunkCache) settleErr(ent *cacheEnt, data []byte, err error) {
	rpc.PutBuf(data)
	cc.mu.Lock()
	ent.err = err
	ent.settled = true
	cc.unlink(ent)
	close(ent.done)
	cc.mu.Unlock()
}

// insert deposits an already-fetched block (a demand read's opportunistic
// contribution). gen must be the path's generation observed before the
// wire read was issued (see generation): an invalidation of this path
// since then means the bytes may predate a write and must not be cached.
//
//gkfs:owns-buf
func (cc *chunkCache) insert(path string, off int64, data []byte, eof bool, gen uint64) {
	size := int64(len(data))
	if eof {
		size = int64(cap(data)) // charge the class the pool will hold
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pb := cc.paths[path]
	if pb == nil {
		pb = newPathBlocks()
		cc.paths[path] = pb
	}
	if pb.gen != gen {
		rpc.PutBuf(data)
		return
	}
	if pb.blocks[off] != nil {
		rpc.PutBuf(data)
		return
	}
	ent := &cacheEnt{
		path: path, off: off, size: size,
		done: make(chan struct{}),
		data: data, n: len(data), eof: eof, settled: true,
	}
	close(ent.done)
	pb.blocks[off] = ent
	if eof {
		pb.eofs++
	}
	cc.used += size
	cc.lruFront(ent)
	cc.evict()
}

// generation snapshots the path's invalidation counter (see insert),
// materializing the path record so a later invalidation — even one that
// finds no blocks to drop — is observable against this snapshot.
func (cc *chunkCache) generation(path string) uint64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pb := cc.paths[path]
	if pb == nil {
		pb = newPathBlocks()
		cc.paths[path] = pb
	}
	return pb.gen
}

// invalidate drops every block of path overlapping [off, end), plus any
// EOF-bearing block of the path (a write or size grow may have moved the
// file end past what those blocks believed). In-flight blocks are
// poisoned: their fetch may have read the daemons before the write
// landed. bs is the block granularity.
func (cc *chunkCache) invalidate(path string, off, end, bs int64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pb := cc.paths[path]
	if pb == nil {
		// No blocks and no reader has snapshotted this path (generation
		// materializes the record) — nothing can go stale.
		return
	}
	pb.gen++
	for boff := off - off%bs; boff < end; boff += bs {
		if ent := pb.blocks[boff]; ent != nil {
			cc.unlink(ent)
		}
	}
	if pb.eofs > 0 {
		for _, ent := range pb.blocks {
			if ent.settled && ent.eof {
				cc.unlink(ent)
			}
		}
	}
}

// dropPath forgets every block of path (truncate, remove, latched write
// error — the cached image no longer describes the file).
func (cc *chunkCache) dropPath(path string) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pb := cc.paths[path]
	if pb == nil {
		return
	}
	pb.gen++
	for _, ent := range pb.blocks {
		cc.unlink(ent)
	}
}

// entries reports how many blocks (settled or in flight) the cache
// holds; tests use it to prove random access never speculates.
func (cc *chunkCache) entries() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := 0
	for _, pb := range cc.paths {
		n += len(pb.blocks)
	}
	return n
}

// --- client integration ---

// cacheInvalidate drops the cached blocks overlapping a write to
// [off, end) of path, once the data has landed (or failed — either way
// the cached image is no longer trustworthy).
func (c *Client) cacheInvalidate(path string, off, end int64) {
	if c.cache != nil {
		c.cache.invalidate(path, off, end, c.cfg.ChunkSize)
	}
}

// cacheDropPath drops every cached block of path.
func (c *Client) cacheDropPath(path string) {
	if c.cache != nil {
		c.cache.dropPath(path)
	}
}

// wireRead is one wire fetch's outcome (see readThrough).
type wireRead struct {
	n   int
	err error
}

// cacheBlocks draws n pooled chunk-sized blocks for a chunk-aligned read
// to land in; each ends up owned by the cache (settle, insert) or back
// in the pool.
func (c *Client) cacheBlocks(n int) ioBuf {
	b := ioBuf{blocks: make([][]byte, n)}
	for i := range b.blocks {
		b.blocks[i] = rpc.GetBuf(int(c.cfg.ChunkSize))
	}
	return b
}

// readThrough is the cache-aware read path. It splits [off, off+len(p))
// at the cache's coverage boundary: the missing tail goes to the wire
// immediately (one block-aligned fan-out — the alignment is what lets
// the whole range be deposited; unaligned edges would never complete a
// cached block), the covered prefix is copied from cached blocks (and
// in-flight prefetches awaited) while that fan-out is already moving.
// Without the overlap a large buffered read would pay the prefix wait
// and the tail fan-out as two serial round trips. It preserves
// readSpans's contract: a short count is always accompanied by io.EOF
// (or a real error).
func (c *Client) readThrough(of *openFile, p []byte, off int64) (int, error) {
	cc := c.cache
	if cc == nil {
		return c.readSpans(of, ioBuf{p: p}, off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	bs := c.cfg.ChunkSize
	end := off + int64(len(p))
	sizeGen := of.view.gen.Load()

	// Launch the wire fetch for everything past the cache's coverage
	// before serving a single cached byte. Sequential continuations and
	// chunk-or-larger requests expand to block alignment (at most two
	// partial chunks of overhead, buying complete depositable blocks) and
	// land in the blocks the cache will hold; a non-sequential sub-chunk
	// miss pays an exact-range read straight into p — a random 4 KiB
	// reader must not be amplified to chunk-sized fetches.
	miss := cc.coverage(of.path, off, end, bs)
	var wire chan wireRead
	var wbuf ioBuf
	var gen uint64
	var blo int64
	if miss < end {
		blo = miss
		wbuf = ioBuf{p: p[miss-off:]}
		if end-off >= bs || (of.ra != nil && of.ra.continues(off)) {
			blo = miss - miss%bs
			wbuf = c.cacheBlocks(int((end + bs - 1 - blo) / bs))
		}
		gen = cc.generation(of.path)
		wire = make(chan wireRead, 1)
		go func() {
			n, err := c.readSpans(of, wbuf, blo)
			wire <- wireRead{n, err}
		}()
	}

	pos := off
	var hitEOF bool
	for pos < miss {
		boff := pos - pos%bs
		ent := cc.acquire(of.path, boff)
		if ent == nil {
			break // invalidated since the coverage scan
		}
		<-ent.done
		if ent.err != nil {
			cc.release(ent)
			break
		}
		if bpos := int(pos - boff); bpos < ent.n {
			pos += int64(copy(p[pos-off:], ent.data[bpos:ent.n]))
		}
		isEOF, entEnd := ent.eof, ent.end()
		cc.release(ent)
		if isEOF && pos < end {
			// The block says the file ends at entEnd. If the size view
			// knows better (a grow acknowledged since, or the candidate),
			// drop the block and fall back to the wire.
			if of.cand.eof(of.view.acked.Load()) > entEnd {
				cc.invalidate(of.path, boff, boff+1, bs)
				break
			}
			hitEOF = true
			break
		}
		if pos < miss && pos != boff+bs {
			break // incomplete non-EOF block: defensive, go to the wire
		}
	}

	if wire != nil {
		res := <-wire
		if res.err != nil && res.err != io.EOF {
			for _, blk := range wbuf.blocks {
				rpc.PutBuf(blk)
			}
			return int(pos - off), res.err
		}
		if pos == miss && !hitEOF {
			// Clean splice: the wire's good bytes, [blo, blo+n), continue
			// the served prefix — in place after an exact-range read, else
			// copied out of the blocks before the cache takes them.
			m := max(min(blo+int64(res.n), end)-pos, 0)
			for dst, o := p[pos-off:][:m], pos-blo; wbuf.blocks != nil && len(dst) > 0; {
				n := int64(copy(dst, wbuf.blocks[o/bs][o%bs:]))
				dst, o = dst[n:], o+n
			}
			pos += m
			// The aligned expansion may have observed EOF past the request's
			// end; the caller only sees EOF when its own range came up short.
			hitEOF = pos < end
		}
		c.depositBlocks(cc, of.path, blo, wbuf, res.n, res.err == io.EOF, gen)
	}
	if hitEOF && pos < end {
		c.maybePrefetch(of, sizeGen, off, pos, true)
		return int(pos - off), io.EOF
	}
	if pos < end {
		// The serve stopped short of what the cache (or the wire range
		// behind it) was to cover: a block failed or was invalidated
		// mid-flight, or a cached EOF is outgrown by the size view. Never
		// return short without io.EOF — pay one serial wire read for the
		// rest (rare; it consults the size view and deposits nothing).
		n, err := c.readSpans(of, ioBuf{p: p[pos-off:]}, pos)
		if err == nil || err == io.EOF {
			// Still feed the detector: one transient fallback must not
			// cost a sequential stream its speculation.
			c.maybePrefetch(of, sizeGen, off, pos+int64(n), err == io.EOF)
		}
		return int(pos-off) + n, err
	}
	c.maybePrefetch(of, sizeGen, off, pos, false)
	return int(pos - off), nil
}

// depositBlocks contributes a wire read's data to the cache: b holds n
// valid bytes starting at blo, and with eof the read observed the file
// end at blo+n. The blocks of a chunk-aligned read are adopted, not
// copied — every complete one, plus with eof the block the file ends in
// as an EOF block (empty when it ends exactly on a block boundary), so
// later reads at or past the end resolve EOF without touching the wire;
// the rest return to the pool. An exact-range read spans no complete
// block and landed in the caller's memory: only its EOF block can be
// deposited, by copy.
func (c *Client) depositBlocks(cc *chunkCache, path string, blo int64, b ioBuf, n int, eof bool, gen uint64) {
	bs := c.cfg.ChunkSize
	valid := blo + int64(n)
	for i, blk := range b.blocks {
		boff := blo + int64(i)*bs
		switch m := valid - boff; {
		case m >= bs:
			cc.insert(path, boff, blk, false, gen)
		case m >= 0 && eof:
			cc.insert(path, boff, blk[:m], true, gen)
		default:
			rpc.PutBuf(blk)
		}
	}
	boff := blo + (bs-blo%bs)%bs // first block boundary at or past blo
	if b.blocks == nil && eof && boff <= valid {
		buf := rpc.GetBuf(int(valid - boff))
		copy(buf, b.p[boff-blo:n])
		cc.insert(path, boff, buf, true, gen)
	}
}

// maybePrefetch feeds the sequential detector and the size view (at
// generation gen) with a finished read [off, end) and, when the pattern
// is sequential, tops the descriptor's speculation window up: span
// fetches of up to prefetchSpanChunks chunk-sized blocks from the read
// end forward, bounded by the in-flight window, the end of file a read
// observed and the first cached EOF block. It never blocks — a full
// window means speculation is already as deep as allowed.
func (c *Client) maybePrefetch(of *openFile, gen uint64, off, end int64, sawEOF bool) {
	ra := of.ra
	if ra == nil {
		return
	}
	of.view.observe(gen, end, sawEOF)
	bs := c.cfg.ChunkSize
	span := bs * prefetchSpanChunks
	ra.mu.Lock()
	if off == ra.lastEnd {
		ra.seq++
	} else {
		ra.seq = 1
		ra.nextOff = 0
	}
	ra.lastEnd = end
	if ra.seq < seqThreshold || sawEOF {
		ra.mu.Unlock()
		return
	}
	start := end + (bs-end%bs)%bs // first block at or past the read end
	if ra.nextOff > start {
		start = ra.nextOff
	}
	horizon := end + int64(cap(ra.slots))*span
	ra.mu.Unlock()

	cc := c.cache // set whenever read-ahead is: New creates it for ReadAhead
	fileEnd := of.cand.eof(of.view.end.Load())
	boff := start
	for boff < horizon && boff < fileEnd {
		if ok, eof := cc.contains(of.path, boff); eof {
			return // a cached EOF block: the file ends there
		} else if ok {
			boff += bs
			continue
		}
		select {
		case ra.slots <- struct{}{}:
		default:
			return // window full; the next read tops up again
		}
		// Claim a run of consecutive absent blocks for one span fetch.
		// The horizon gates where runs may start; a started run always
		// extends to full span length (overshooting the horizon by at
		// most one span) — clipping it would degrade the steady state
		// into single-block fetches as the horizon creeps along.
		var ents []*cacheEnt
		runStart := boff
		for boff < fileEnd && len(ents) < prefetchSpanChunks {
			ent, fresh := cc.startFetch(of.path, boff, bs)
			if !fresh {
				break
			}
			ents = append(ents, ent)
			boff += bs
		}
		if len(ents) == 0 {
			// Another descriptor claimed the block since the contains
			// check; skip it rather than spin.
			<-ra.slots
			boff += bs
			continue
		}
		ra.mu.Lock()
		if boff > ra.nextOff {
			ra.nextOff = boff
		}
		ra.mu.Unlock()
		ra.wg.Add(1)
		go c.fetchSpan(cc, of, ents, runStart)
	}
}

// fetchSpan is one speculative span fetch: a single readSpans fan-out
// covering the run's blocks, each landing in the pooled block its cache
// entry will hold. EOF is recorded in the path's size view so
// speculation stops at the file end; failures discard the entries
// without latching anywhere.
func (c *Client) fetchSpan(cc *chunkCache, of *openFile, ents []*cacheEnt, start int64) {
	defer func() {
		<-of.ra.slots
		of.ra.wg.Done()
	}()
	bs := c.cfg.ChunkSize
	b := c.cacheBlocks(len(ents))
	gen := of.view.gen.Load()
	t0 := time.Time{}
	if c.tel.prefetch != nil {
		t0 = time.Now()
	}
	n, err := c.readSpans(of, b, start)
	if c.tel.prefetch != nil {
		c.tel.prefetch.ObserveSince(t0)
	}
	valid := start + int64(n) // the file holds [start, valid) of this span
	eof := errors.Is(err, io.EOF)
	for i, ent := range ents {
		switch m := valid - (start + int64(i)*bs); {
		case err != nil && !eof:
			cc.settleErr(ent, b.blocks[i], err)
		case m >= bs:
			cc.settle(ent, b.blocks[i], false)
		default: // io.EOF: partial or empty block at the file end
			cc.settle(ent, b.blocks[i][:max(m, 0)], true)
		}
	}
	if eof {
		of.view.observe(gen, valid, true)
	}
}
