package client

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// The data path. A write or read is decomposed into chunk spans; spans
// are grouped by primary daemon (hash of path and chunk ID) and every
// group runs against its replica chain (replica.go) through one of two
// executors, in parallel across groups, with the span data concatenated
// in the RPC's bulk region. This is the paper's wide striping: a large
// I/O engages every node's SSD at once. There is one executor per
// direction — readGroup and writeGroup — for every caller: descriptor
// I/O, the read-ahead fetcher, the write-behind pipeline, WritePath and
// ReadSnapshot. An unreplicated mount is a chain of one and a live read
// is a read at epoch ∞; neither has a code path of its own. What an
// executor does depends only on how many live candidates the chain
// offers: one is served on the calling goroutine, straight into the
// caller's memory; several are hedged or fanned out.

// LiveEpoch is the epoch of a read that is not pinned to a snapshot.
// A finite epoch adds the ReadAtEpoch field to the request and narrows
// the replica chain to its head (chunk pre-images live where the primary
// chunk lived); everything else is shared.
const LiveEpoch = meta.LiveEpoch

// targetGroup collects the spans of one I/O that share a primary daemon
// and therefore a replica chain.
type targetGroup struct {
	spans  []proto.ChunkSpan
	bufOff []int64 // caller-buffer offset per span
	bytes  int64

	// Read-side plan, filled by readRange before the fan-out: the group's
	// live candidates in preference order and, on the one group whose
	// reply carries it, the metadata owner's size view.
	chain, cands []int
	reply        sizeReply

	// Backing for the first span: a group of a small I/O holds exactly
	// one, and then its span, offset and window vectors cost no allocation
	// of their own.
	span0 [1]proto.ChunkSpan
	off0  [1]int64
	win0  [1][]byte
}

// ioBuf is the client memory of one I/O: p, contiguous, or — for a
// chunk-aligned read bound for the chunk cache — a run of chunk-sized
// blocks. No span crosses a block, so every span has a window either way
// and a cache block is fetched into rather than copied to.
type ioBuf struct {
	p      []byte
	blocks [][]byte
}

func (b ioBuf) len() int64 {
	if b.blocks != nil {
		return int64(len(b.blocks) * len(b.blocks[0]))
	}
	return int64(len(b.p))
}

// at returns the n bytes at offset off of the buffer.
func (b ioBuf) at(off, n int64) []byte {
	if b.blocks != nil {
		bs := int64(len(b.blocks[0]))
		return b.blocks[off/bs][off%bs:][:n]
	}
	return b.p[off : off+n]
}

// sizeReply is the metadata owner's answer piggybacked on a read reply
// (proto.ReadWantSize).
type sizeReply struct {
	state uint8
	size  int64
}

// gather returns the group's bulk region for a write of p (what the
// daemon pulls; RDMA-read in the paper's deployment). A single-span
// group lends the caller's own slice of p — the transport gathers it
// straight into the socket (writev) or copies it once into the shared
// segment, with no client-side staging copy. That is only sound when the
// caller blocks on the RPC before reusing p; the write-behind pipeline
// returns first and passes copyAlways to force a pooled copy. pooled
// reports which happened: a pooled region is released by the caller with
// rpc.PutBuf once the group has settled; a borrowed slice of p must never
// enter the pool.
func (g *targetGroup) gather(p []byte, copyAlways bool) (bulk []byte, pooled bool) {
	wins := g.windows(ioBuf{p: p})
	if !copyAlways && len(wins) == 1 {
		return wins[0], false
	}
	bulk = rpc.GetBuf(int(g.bytes))[:0]
	for _, w := range wins {
		bulk = append(bulk, w...)
	}
	return bulk, true
}

// windows returns the slices of b the group's spans read into or write
// from, in span order — a read's scatter list.
func (g *targetGroup) windows(b ioBuf) [][]byte {
	wins := g.win0[:0]
	for i, s := range g.spans {
		wins = append(wins, b.at(g.bufOff[i], s.Len))
	}
	return wins
}

// groupByTarget splits [off, off+n) into per-primary span groups.
func (c *Client) groupByTarget(path string, off, n int64) map[int]*targetGroup {
	slices := meta.Slices(off, n, c.cfg.ChunkSize)
	groups := make(map[int]*targetGroup)
	for _, s := range slices {
		tgt := c.cfg.Dist.ChunkTarget(path, s.ID)
		g := groups[tgt]
		if g == nil {
			g = &targetGroup{}
			g.spans, g.bufOff = g.span0[:0], g.off0[:0]
			groups[tgt] = g
		}
		g.spans = append(g.spans, proto.ChunkSpan{ID: s.ID, Off: s.ChunkOff, Len: s.Len})
		g.bufOff = append(g.bufOff, s.BufOff)
		g.bytes += s.Len
	}
	return groups
}

// runGroups executes fn per target group, in parallel when more than one
// is involved. Every group's error is reported (errors.Join): a
// multi-daemon failure must not be silently narrowed to whichever single
// cause happened to be observed first.
func runGroups(groups map[int]*targetGroup, fn func(g *targetGroup) error) error {
	if len(groups) == 1 {
		for _, g := range groups {
			return fn(g)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	i := 0
	for _, g := range groups {
		wg.Add(1)
		go func(i int, g *targetGroup) {
			defer wg.Done()
			errs[i] = fn(g)
		}(i, g)
		i++
	}
	wg.Wait()
	return errors.Join(errs...)
}

// encodeChunkReq builds the request payload OpReadChunks and
// OpWriteChunks share: path, span vector, flags byte, and the pinned
// epoch when there is one (reads set proto.ReadAtEpoch alongside).
func encodeChunkReq(path string, spans []proto.ChunkSpan, flags uint8, epoch uint64) []byte {
	e := rpc.NewEnc(len(path) + 26 + 24*len(spans))
	e.Str(path)
	proto.EncodeSpans(e, spans)
	e.U8(flags)
	if epoch != LiveEpoch {
		e.U64(epoch)
	}
	return e.Bytes()
}

// readChunks is the one place an OpReadChunks call is built, issued and
// its reply validated. The spans' data lands, in span order, across the
// windows of dest (none for a zero-span size probe), which may be dirty:
// the transport zeroes what the daemon did not send, so holes and reads
// beyond EOF still read as zeros. wantSize asks node to piggyback its size
// view of path, which is what keeps reads stat-free.
func (c *Client) readChunks(node int, path string, epoch uint64, spans []proto.ChunkSpan, wantSize bool, dest ...[]byte) (sizeReply, error) {
	var flags uint8
	if wantSize {
		flags |= proto.ReadWantSize
	}
	if epoch != LiveEpoch {
		flags |= proto.ReadAtEpoch
	}
	var reply sizeReply
	d, err := c.call(node, proto.OpReadChunks, encodeChunkReq(path, spans, flags, epoch), nil, rpc.BulkOut, dest...)
	if err != nil {
		return reply, err
	}
	if cnt := d.U32(); int(cnt) != len(spans) {
		return reply, fmt.Errorf("reply carries %d span counts, want %d: %w", cnt, len(spans), proto.ErrInval)
	}
	for _, s := range spans {
		// Per-span present-byte counts; holes are zeros. A count outside
		// [0, span.Len] means a hostile or buggy daemon is claiming bytes
		// it cannot have sent — refuse the reply rather than trusting the
		// bulk region past what was pushed.
		if got := d.I64(); got < 0 || got > s.Len {
			return reply, fmt.Errorf("reply claims %d present bytes for a %d-byte span: %w", got, s.Len, proto.ErrInval)
		}
	}
	if wantSize {
		reply.state = d.U8()
		reply.size = d.I64()
	}
	return reply, d.Done()
}

// readResult is one hedged read attempt's outcome; buf is the attempt's
// pooled bulk region, owned by whoever receives the result.
type readResult struct {
	node int
	buf  []byte
	err  error
}

// readGroup serves one target group of a read from its live candidates
// (g.cands, planned by readRange). With a single candidate there is
// nothing to hedge to: the RPC runs on the calling goroutine, every span
// lands straight in its own window of b, and no timer, channel, private
// buffer or latency sample is spent. With several, the
// first (normally the primary) is tried first; the next launches when
// the first outlives the daemon's p95 latency estimate (a hedged read) or
// when every outstanding attempt has failed (a failover read). The first
// success wins; each attempt lands in its own pooled buffer — two racing
// RPCs must never scatter into the caller's memory concurrently — and
// losers are drained in the background. Transport failures strike their
// daemon; deterministic answers surface (every replica would say the
// same).
func (c *Client) readGroup(path string, epoch uint64, g *targetGroup, b ioBuf, wantSize bool) error {
	cands := g.cands
	if len(cands) == 0 {
		return fmt.Errorf("read %s: replica chain %v: %w", path, g.chain, ErrDegraded)
	}
	if cands[0] != g.chain[0] {
		// The condemned primary was skipped: this group is served by a
		// secondary from the first RPC on.
		atomic.AddUint64(&c.live.HedgedReads, 1)
	}
	var fails attemptErrs
	if len(cands) == 1 {
		reply, err := c.readChunks(cands[0], path, epoch, g.spans, wantSize, g.windows(b)...)
		c.settle(&fails, g.chain, cands[0], err)
		if err != nil {
			return fails.err("read", path)
		}
		g.reply = reply
		return nil
	}

	results := make(chan readResult, len(cands))
	launched := 0
	launch := func() {
		node := cands[launched]
		launched++
		go func() {
			//gkfs:owns-buf (released here on failure, or by the result's receiver)
			buf := rpc.GetBuf(int(g.bytes))
			start := time.Now()
			if _, err := c.readChunks(node, path, epoch, g.spans, false, buf); err != nil {
				rpc.PutBuf(buf)
				results <- readResult{node: node, err: err}
				return
			}
			c.health[node].observe(time.Since(start))
			results <- readResult{node: node, buf: buf}
		}()
	}
	launch()
	hedge := time.NewTimer(c.health[cands[0]].p95())
	defer hedge.Stop()
	var winner []byte
	pending := 1
	for pending > 0 && winner == nil {
		select {
		case r := <-results:
			pending--
			c.settle(&fails, g.chain, r.node, r.err)
			if r.err == nil {
				winner = r.buf
				break
			}
			if pending == 0 && launched < len(cands) {
				// Every outstanding attempt failed: fail over to the next
				// replica immediately instead of waiting for the timer.
				atomic.AddUint64(&c.live.HedgedReads, 1)
				atomic.AddUint64(&c.live.FailoverReads, 1)
				launch()
				pending++
			}
		case <-hedge.C:
			if launched < len(cands) {
				atomic.AddUint64(&c.live.HedgedReads, 1)
				launch()
				pending++
			}
		}
	}
	if pending > 0 {
		// Losers still in flight own pooled buffers; recycle them as they
		// land without holding up the winner.
		go func(pending int) {
			for i := 0; i < pending; i++ {
				if r := <-results; r.buf != nil {
					rpc.PutBuf(r.buf)
				}
			}
		}(pending)
	}
	if winner == nil {
		return fails.err("read", path)
	}
	rpc.Scatter(g.windows(b), winner)
	rpc.PutBuf(winner)
	return nil
}

// readRange gathers the chunk spans of [off, off+b.len()) of path as of
// epoch from their daemons into b and returns the size to clamp EOF by.
// floor is a size the caller already knows the metadata owner to hold (a
// descriptor's floor; 0 when it knows nothing): a range that ends at or
// below it is all file, so only the data RPCs go out and floor comes
// back. Anything reaching past it needs the owner's size view, and the
// protocol for that is stat-free: no leading stat RPC is paid, the size
// comes back with the data. It rides on the group whose sole live
// candidate is the path's metadata owner (only the owner holds the
// record, and only an attempt that cannot be hedged away is certain to
// reach it); when no group qualifies, a zero-span size probe joins the
// fan-out — still one round trip, all in parallel. Regions never written
// inside the size read as zeros.
func (c *Client) readRange(path string, epoch uint64, b ioBuf, off, floor int64) (int64, error) {
	groups := c.groupByTarget(path, off, b.len())
	wantSize := off+b.len() > floor
	owner := c.cfg.Dist.MetaTarget(path)
	var sized *targetGroup
	for _, g := range groups {
		g.chain = c.chunkChain(path, g, epoch)
		g.cands = c.liveChain(g.chain)
		if wantSize && len(g.cands) == 1 && g.cands[0] == owner {
			sized = g
		}
	}
	if wantSize && sized == nil {
		probe := []int{owner}
		sized = &targetGroup{chain: probe, cands: probe}
		groups[-1] = sized // keyed apart from every primary
	}
	// Each group's reply is written by its own goroutine; runGroups'
	// WaitGroup orders the write before the read below.
	err := runGroups(groups, func(g *targetGroup) error {
		return c.readGroup(path, epoch, g, b, g == sized)
	})
	if err != nil {
		return 0, err
	}
	if !wantSize {
		atomic.AddUint64(&c.live.SizeProbesElided, 1)
		return floor, nil
	}
	switch sized.reply.state {
	case proto.ReadSizeFile:
		return sized.reply.size, nil
	case proto.ReadSizeNone:
		// The metadata owner has no record: the file was removed (or did
		// not exist at the epoch). A descriptor's own unflushed writes
		// cannot resurrect it.
		return 0, fmt.Errorf("read %s: daemon %d: %w", path, owner, proto.ErrNotExist)
	default:
		return 0, fmt.Errorf("read %s: daemon %d: reply size state %d: %w", path, owner, sized.reply.state, proto.ErrInval)
	}
}

// clampEOF turns a read of n bytes at off into the io.ReaderAt answer
// for a file of the given size: a short count always comes with io.EOF.
func clampEOF(n int, off, size int64) (int, error) {
	if off >= size {
		return 0, io.EOF
	}
	if rest := size - off; rest < int64(n) {
		return int(rest), io.EOF
	}
	return n, nil
}

// readSpans is readRange for a descriptor's live file. A range below the
// path's acknowledged size costs its data RPCs and nothing else; past it
// the owner's answer comes back with the data into the size view (where
// another client's truncate or remove is noticed) and, raised by the
// descriptor's candidate, clamps the read.
func (c *Client) readSpans(of *openFile, b ioBuf, off int64) (int, error) {
	n := b.len()
	if n == 0 {
		return 0, nil
	}
	v := of.view
	floor := v.acked.Load()
	if off+n <= floor {
		if _, err := c.readRange(of.path, LiveEpoch, b, off, floor); err != nil {
			return 0, err
		}
		return int(n), nil
	}
	gen := v.gen.Load()
	size, err := c.readRange(of.path, LiveEpoch, b, off, floor)
	if errors.Is(err, proto.ErrNotExist) {
		v.owner(gen, 0)
	}
	if err != nil {
		return 0, err
	}
	v.owner(gen, size)
	return clampEOF(int(n), off, of.cand.eof(size))
}

// ReplicaChain returns the daemons holding chunk id of path under this
// mount's placement and replication factor, primary first — what
// ReadChunkFrom is pointed at to interrogate each copy.
func (c *Client) ReplicaChain(path string, id meta.ChunkID) []int {
	return c.cfg.Dist.ChunkReplicas(path, id, c.cfg.Replicas)
}

// ReadChunkFrom reads [0, len(p)) of one chunk of path as of epoch
// directly from daemon node — bypassing placement, health and hedging so
// a specific replica can be interrogated (gkfs-fsck's replica-agreement
// check). Bytes past the daemon's last present byte read as zeros, so two
// full-chunk reads from agreeing replicas are byte-identical even when
// their chunk files have different physical lengths; at a pinned epoch
// the daemon serves the chunk's pre-image.
func (c *Client) ReadChunkFrom(node int, path string, epoch uint64, id meta.ChunkID, p []byte) error {
	span := []proto.ChunkSpan{{ID: id, Len: int64(len(p))}}
	if _, err := c.readChunks(node, path, epoch, span, false, p); err != nil {
		return fmt.Errorf("read %s: daemon %d: %w", path, node, err)
	}
	return nil
}

// writeChunks is the one place an OpWriteChunks call is built, issued
// and its reply validated. A copy bound for any daemon but the chain's
// primary is marked proto.WriteReplica (it feeds a daemon counter and
// nothing else).
func (c *Client) writeChunks(node, primary int, path string, g *targetGroup, bulk []byte) error {
	var flags uint8
	if node != primary {
		flags = proto.WriteReplica
	}
	d, err := c.call(node, proto.OpWriteChunks, encodeChunkReq(path, g.spans, flags, LiveEpoch), bulk, rpc.BulkIn)
	if err != nil {
		return err
	}
	written := d.I64()
	if err := d.Done(); err != nil {
		return err
	}
	if written != g.bytes {
		return io.ErrShortWrite
	}
	return nil
}

// writeGroup pushes one target group's spans to every live replica of
// its chain — on the calling goroutine when there is one, in parallel
// otherwise. bulk is borrowed: every replica RPC reads it (BulkIn) and
// none mutates it, so one region backs the whole fan-out. The write
// succeeds when at least one replica acknowledged and none returned a
// deterministic error; a replica failing at the transport level is
// struck (and eventually condemned) instead of failing the write — the
// failover semantics that keep a killed daemon from latching every
// descriptor. Only when the entire chain is condemned or fails does the
// write surface ErrDegraded.
func (c *Client) writeGroup(path string, g *targetGroup, bulk []byte) error {
	chain := c.chunkChain(path, g, LiveEpoch)
	live := c.liveChain(chain)
	var errs []error
	switch len(live) {
	case 0:
		return fmt.Errorf("write %s: replica chain %v: %w", path, chain, ErrDegraded)
	case 1:
		errs = []error{c.writeChunks(live[0], chain[0], path, g, bulk)}
	default:
		// A slice of its own: captured by the goroutines, it must not drag
		// the single-replica literal above onto the heap.
		fan := make([]error, len(live))
		var wg sync.WaitGroup
		for i, node := range live {
			wg.Add(1)
			go func(i, node int) {
				defer wg.Done()
				fan[i] = c.writeChunks(node, chain[0], path, g, bulk)
			}(i, node)
		}
		wg.Wait()
		errs = fan
	}
	var fails attemptErrs
	acked := 0
	for i, err := range errs {
		c.settle(&fails, chain, live[i], err)
		if err == nil {
			acked++
			if live[i] != chain[0] {
				atomic.AddUint64(&c.live.ReplicaWrites, 1)
			}
		}
	}
	if fails.hard != nil || acked == 0 {
		return fails.err("write", path)
	}
	return nil
}

// writeRange pushes p's chunk spans for [off, off+len(p)) synchronously,
// one writeGroup per primary in parallel — the shared sync write core of
// descriptor writes and WritePath. Cached chunk blocks overlapping the
// range are invalidated after the RPCs settle (on failure too: the
// affected ranges are undefined and a cached pre-write image must not
// mask that).
func (c *Client) writeRange(path string, p []byte, off int64) error {
	groups := c.groupByTarget(path, off, int64(len(p)))
	err := runGroups(groups, func(g *targetGroup) error {
		bulk, pooled := g.gather(p, false)
		err := c.writeGroup(path, g, bulk)
		if pooled {
			rpc.PutBuf(bulk)
		}
		return err
	})
	c.cacheInvalidate(path, off, off+int64(len(p)))
	return err
}

// WriteAt writes p at offset off, without touching the descriptor
// position.
func (c *Client) WriteAt(fd int, p []byte, off int64) (int, error) {
	of, err := c.lookupIO(fd, true)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, proto.ErrInval
	}
	if len(p) == 0 {
		return 0, nil
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	if err := c.writeSpansLocked(of, p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Write writes p at the descriptor position (or at EOF with O_APPEND) and
// advances it.
func (c *Client) Write(fd int, p []byte) (int, error) {
	of, err := c.lookupIO(fd, true)
	if err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	off := of.pos
	if of.flags&O_APPEND != 0 {
		// Append resolves EOF with a stat; concurrent appenders may
		// interleave (GekkoFS offers no atomic append — applications are
		// responsible for avoiding conflicts, paper §III-A). The stat is
		// raised by the descriptor's candidate, or deferred appends would
		// overwrite each other.
		md, err := c.statPath(of.path, LiveEpoch)
		if err != nil {
			return 0, err
		}
		off = of.cand.eof(md.Size)
	}
	if err := c.writeSpansLocked(of, p, off); err != nil {
		return 0, err
	}
	of.pos = off + int64(len(p))
	return len(p), nil
}

// writeSpansLocked sends the chunk writes and then the size update —
// synchronously, or through the write-behind pipeline when the
// descriptor has one. A rewrite ending at or below the path's
// acknowledged size has only a time to report: it joins the descriptor's
// candidate (announced before the data goes out, as the size-update
// cache's writes are) and the next barrier sends one update for all.
// Caller holds of.mu.
func (c *Client) writeSpansLocked(of *openFile, p []byte, off int64) error {
	if of.pl != nil {
		return c.enqueueSpansLocked(of, p, off)
	}
	end := off + int64(len(p))
	below := end <= of.view.acked.Load()
	if below || c.cfg.SizeCacheOps > 0 {
		of.cand.announce(end)
	}
	if err := c.writeRange(of.path, p, off); err != nil {
		return err
	}
	if below {
		atomic.AddUint64(&c.live.SizeUpdatesElided, 1)
		return nil
	}
	return c.growSizeLocked(of, end)
}

// enqueueSpansLocked is the write-behind fast path: it stages one
// writeGroup per target group into the descriptor's bounded in-flight
// window and returns without waiting for any round trip. The caller's buffer is
// copied into pooled bulk buffers before returning (io.Writer allows the
// caller to reuse p immediately), which is the same copy the synchronous
// path performs. A previously latched completion failure is surfaced
// here — before accepting new writes — and cleared. Caller holds of.mu.
func (c *Client) enqueueSpansLocked(of *openFile, p []byte, off int64) error {
	if err := of.pl.takeErr(); err != nil {
		return err
	}
	end := off + int64(len(p))
	if of.pl.conflicts(off, end) {
		// Rewriting a region that is still in flight: drain first, so
		// the writes land in program order. Streaming and strided
		// patterns never pay this; only overlapping rewrites serialize.
		of.pl.drain()
	}
	// Announced before any data goes out; the barrier publishes it.
	of.cand.announce(end)
	groups := c.groupByTarget(of.path, off, int64(len(p)))
	r := of.pl.addRange(off, end, len(groups))
	var remaining atomic.Int32
	remaining.Store(int32(len(groups)))
	for _, g := range groups {
		// copyAlways: this path returns before the write settles, so the
		// caller's buffer cannot back the bulk region.
		bulk, _ := g.gather(p, true)
		// A group occupies one window slot whatever its chain length — the
		// window bounds logical chunk writes. Blocking on a slot is the
		// pipeline's backpressure; slots are released by completions, which
		// never need of.mu, so holding the descriptor lock here cannot
		// deadlock.
		c.stageWait(of.pl)
		of.pl.wg.Add(1)
		go func(g *targetGroup, bulk []byte) {
			defer func() {
				of.pl.releaseRange(r)
				<-of.pl.slots
				of.pl.wg.Done()
			}()
			err := c.writeGroup(of.path, g, bulk)
			rpc.PutBuf(bulk)
			// Invalidate once the whole write has settled on the daemons
			// (last group to retire): a chunk-cache block — or in-flight
			// prefetch — fetched before this point may predate the write
			// and must not serve. One invalidation per write, not per
			// group.
			if remaining.Add(-1) == 0 {
				c.cacheInvalidate(of.path, off, end)
			}
			// A replica failing at the transport level was absorbed inside
			// writeGroup; only a write no replica accepted (or a
			// deterministic refusal) latches the descriptor.
			of.pl.latch(err)
		}(g, bulk)
	}
	return nil
}

// GrowSize raises the file's size to at least size without writing any
// data: the byte range between the old EOF and size reads as zeros (a
// hole), and no chunk is materialized for it. Staging uses it to give a
// sparse file its full extent after skipping trailing zero runs. Under
// AsyncWrites it becomes the descriptor's candidate and lands at the
// next barrier; otherwise it follows the synchronous (or
// size-cached) update protocol, exactly like a write ending at size.
func (c *Client) GrowSize(fd int, size int64) error {
	of, err := c.lookupIO(fd, true)
	if err != nil {
		return err
	}
	if size < 0 {
		return proto.ErrInval
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	if of.pl != nil {
		if err := of.pl.takeErr(); err != nil {
			return err
		}
		of.cand.announce(size)
		return nil
	}
	return c.growSizeLocked(of, size)
}

// WritePath stores p at offset off of path without a descriptor: one
// synchronous chunk RPC per owning daemon and nothing else — no file-map
// slot, no stat, and deliberately no size update (callers own that, e.g.
// through GrowMany's batched update-size plane). It is the bulk-ingest
// write half of staging's small-file path; general applications should
// use descriptors, whose size handling is automatic.
func (c *Client) WritePath(path string, p []byte, off int64) error {
	pth, err := meta.Clean(path)
	if err != nil {
		return err
	}
	if off < 0 {
		return proto.ErrInval
	}
	if len(p) == 0 {
		return nil
	}
	return c.writeRange(pth, p, off)
}

// growSizeLocked reports a size past the acknowledged one: to the owner
// at once (the paper's default), or under the size-update cache (§IV-B)
// as the candidate, flushed every SizeCacheOps writes. Caller holds of.mu.
func (c *Client) growSizeLocked(of *openFile, size int64) error {
	if c.cfg.SizeCacheOps == 0 {
		return c.sendGrow(of, size)
	}
	of.cand.announce(size)
	if of.cand.ops++; of.cand.ops < c.cfg.SizeCacheOps {
		return nil
	}
	return c.flushSizeLocked(of)
}

// flushSizeLocked publishes the descriptor's candidate, whichever mode
// deferred it. Zero is nothing to report — or all an own Remove left,
// and a grow would bring the removed file back. A failed flush keeps the
// candidate for the next barrier. Caller holds of.mu.
func (c *Client) flushSizeLocked(of *openFile) error {
	of.cand.ops = 0
	n := of.cand.n.Load()
	if n == 0 {
		return nil
	}
	if err := c.sendGrow(of, n); err != nil {
		return err
	}
	// Cleared only once the owner has it (readers never find neither side
	// knowing), and not if an own Truncate lowered it meanwhile.
	of.cand.n.CompareAndSwap(n, 0)
	return nil
}

// updateSize grows path's size to at least size, or with truncate sets it
// exactly.
func (c *Client) updateSize(path string, size int64, truncate bool) error {
	_, err := c.metaOp(&proto.MetaOp{Kind: proto.MetaOpUpdateSize, Path: path, Size: size, Truncate: truncate, TimeNS: time.Now().UnixNano()})
	return err
}

// sendGrow tells the metadata owner the file reaches at least n; its
// acknowledgement raises the path's size view.
func (c *Client) sendGrow(of *openFile, n int64) error {
	gen := of.view.gen.Load()
	if err := c.updateSize(of.path, n, false); err != nil {
		return err
	}
	c.grew(of.path, of.view, gen, n)
	return nil
}

// ReadAt reads into p from offset off without touching the descriptor
// position. It returns io.EOF when fewer than len(p) bytes lie below the
// file's current size, after the fashion of io.ReaderAt. Under
// AsyncWrites the descriptor's in-flight window is drained first
// (program-order read-after-write) and a latched write failure surfaces
// here, exactly once — the bytes a failed write covered are undefined,
// so handing them to a reader without the error would be silent
// corruption. Concurrent ReadAts then proceed in parallel, off the
// descriptor lock.
func (c *Client) ReadAt(fd int, p []byte, off int64) (int, error) {
	of, err := c.lookupIO(fd, false)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, proto.ErrInval
	}
	if of.pl != nil {
		// The lock serializes the drain against in-progress enqueues; the
		// read RPCs themselves run outside it, so concurrent ReadAts still
		// overlap on the wire.
		of.mu.Lock()
		werr := of.pl.drainErr()
		of.mu.Unlock()
		if werr != nil {
			return 0, werr
		}
	}
	return c.readThrough(of, p, off)
}

// Read reads from the descriptor position and advances it. Like ReadAt
// it drains the write-behind window and surfaces a latched write error
// before touching the wire or the cache.
func (c *Client) Read(fd int, p []byte) (int, error) {
	of, err := c.lookupIO(fd, false)
	if err != nil {
		return 0, err
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	if werr := of.pl.drainErr(); werr != nil {
		return 0, werr
	}
	n, err := c.readThrough(of, p, of.pos)
	of.pos += int64(n)
	return n, err
}
