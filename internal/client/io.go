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
// are grouped by the daemon that holds them (hash of path and chunk ID),
// at most one RPC's transfer (rpc.MaxBulk) to a group, and every group is
// one RPC to that daemon, in parallel across groups, with the group's
// windows of the caller's buffer as the RPC's bulk region. This is the
// paper's wide striping: a large I/O engages every node's SSD at once.
// There is one executor per direction — readGroup and writeGroup — for
// every caller: descriptor I/O, the read-ahead fetcher, WritePath and
// ReadPath. Every chunk has one copy: a group whose daemon does not
// answer fails its I/O (ErrDegraded), naming op, path and daemon.

// targetGroup collects the spans of one I/O that one daemon holds.
type targetGroup struct {
	target int // the daemon holding the spans
	spans  []proto.ChunkSpan
	bufOff []int64 // caller-buffer offset per span
	bytes  int64

	// reply is the metadata owner's size view, on the one group of a read
	// whose reply carries it.
	reply sizeReply

	// Backing for the first span: a group of a small I/O holds exactly
	// one, and then its span, offset and window vectors cost no allocation
	// of their own.
	span0 [1]proto.ChunkSpan
	off0  [1]int64
	win0  [1][]byte
}

// sizeReply is the metadata owner's answer piggybacked on a read reply
// (proto.ReadWantSize).
type sizeReply struct {
	state uint8
	size  int64
}

// windows returns the slices of p the group's spans read into or write
// from, in span order, spans adjacent in p merged: a group of one span,
// or of consecutive chunks with no other daemon's chunk between them, is
// one window on every carrier. It is the call's bulk region — a read's
// scatter list, a write's gather list — and the same slices of p either
// way: TCP and shm send and land every window where it lies.
func (g *targetGroup) windows(p []byte) [][]byte {
	wins := g.win0[:0]
	var lo, hi int64 // the last window
	for i, s := range g.spans {
		if off := g.bufOff[i]; len(wins) == 0 || off != hi {
			lo, hi = off, off+s.Len
			wins = append(wins, p[lo:hi])
		} else {
			hi += s.Len
			wins[len(wins)-1] = p[lo:hi]
		}
	}
	return wins
}

// groupByTarget splits [off, off+n) into span groups, each bound for one
// daemon and no larger than one RPC may carry (rpc.MaxBulk, which
// a chunk never exceeds): a daemon's chunks form one group until the next
// would take it past that, then the next group.
func (c *Client) groupByTarget(path string, off, n int64) []*targetGroup {
	var groups []*targetGroup
	for _, s := range meta.Slices(off, n, c.cfg.ChunkSize) {
		tgt := c.dist.ChunkTarget(path, s.ID)
		g := lastGroup(groups, tgt)
		if g == nil || g.bytes+s.Len > rpc.MaxBulk {
			g = &targetGroup{target: tgt}
			g.spans, g.bufOff = g.span0[:0], g.off0[:0]
			groups = append(groups, g)
		}
		g.spans = append(g.spans, proto.ChunkSpan{ID: s.ID, Off: s.ChunkOff, Len: s.Len})
		g.bufOff = append(g.bufOff, s.BufOff)
		g.bytes += s.Len
	}
	return groups
}

// lastGroup returns the latest of groups bound for tgt, or nil.
func lastGroup(groups []*targetGroup, tgt int) *targetGroup {
	for i := len(groups) - 1; i >= 0; i-- {
		if groups[i].target == tgt {
			return groups[i]
		}
	}
	return nil
}

// runGroups executes fn per target group, in parallel when more than one
// is involved. Every group's error is reported (errors.Join): a
// multi-daemon failure must not be silently narrowed to whichever single
// cause happened to be observed first.
func runGroups(groups []*targetGroup, fn func(g *targetGroup) error) error {
	if len(groups) == 1 {
		return fn(groups[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for i, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(g)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// chunkReq encodes the head OpReadChunks and OpWriteChunks share: path
// and span vector. A write request is just that; a read appends its flags
// byte. The encoder is returned by value, so only its buffer reaches the
// heap.
func chunkReq(path string, spans []proto.ChunkSpan) rpc.Enc {
	e := rpc.NewEnc(len(path) + 26 + 24*len(spans))
	e.Str(path)
	proto.EncodeSpans(e, spans)
	return *e
}

// readChunks is the one place an OpReadChunks call is built, issued and
// its reply validated. The spans' data lands, in span order, across the
// windows of dest (none for a zero-span size probe), which may be dirty:
// the transport zeroes what the daemon did not send, so holes and reads
// beyond EOF still read as zeros. wantSize asks node to piggyback its size
// view of path, which is what keeps reads stat-free.
func (c *Client) readChunks(node int, path string, spans []proto.ChunkSpan, wantSize bool, dest ...[]byte) (sizeReply, error) {
	var flags uint8
	if wantSize {
		flags |= proto.ReadWantSize
	}
	e := chunkReq(path, spans)
	e.U8(flags)
	var reply sizeReply
	d, err := c.call(node, proto.OpReadChunks, e.Bytes(), rpc.BulkOut, dest...)
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

// readGroup reads one target group into its windows of p with one RPC on
// the calling goroutine; wantSize asks the group's daemon, the path's
// metadata owner, for its size view as well.
func (c *Client) readGroup(path string, g *targetGroup, p []byte, wantSize bool) error {
	reply, err := c.readChunks(g.target, path, g.spans, wantSize, g.windows(p)...)
	if err != nil {
		return opErr("read", path, g.target, err)
	}
	g.reply = reply
	return nil
}

// readRange gathers the chunk spans of [off, off+len(p)) of path from
// their daemons into p and returns the size to clamp EOF by.
// floor is a size the caller already knows the metadata owner to hold (a
// descriptor's floor; 0 when it knows nothing): a range that ends at or
// below it is all file, so only the data RPCs go out and floor comes
// back. Anything reaching past it needs the owner's size view, and the
// protocol for that is stat-free: no leading stat RPC is paid, the size
// comes back with the data. It rides on a group bound for the path's
// metadata owner (only the owner holds the record); when there is none, a
// zero-span size probe joins the fan-out — still one round trip, all in
// parallel. Regions never written inside the size read as zeros.
func (c *Client) readRange(path string, p []byte, off, floor int64) (int64, error) {
	n := int64(len(p))
	groups := c.groupByTarget(path, off, n)
	wantSize := off+n > floor
	owner := c.dist.MetaTarget(path)
	var sized *targetGroup
	if wantSize {
		for _, g := range groups {
			if g.target == owner {
				sized = g
			}
		}
		if sized == nil {
			sized = &targetGroup{target: owner}
			groups = append(groups, sized)
		}
	}
	// Each group's reply is written by its own goroutine; runGroups'
	// WaitGroup orders the write before the read below.
	err := runGroups(groups, func(g *targetGroup) error {
		return c.readGroup(path, g, p, g == sized)
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
		// The metadata owner has no record: the file was removed. A
		// descriptor's own unflushed writes cannot resurrect it.
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

// ReadPath reads [off, off+len(p)) of path without a descriptor: no
// position, no read-ahead window and no size view to coordinate with, so
// the size clamp comes from the metadata owner's answer on the same
// fan-out.
// It is stage-out's read, the mirror of WritePath.
func (c *Client) ReadPath(path string, p []byte, off int64) (int, error) {
	cp, err := meta.Clean(path)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("gekkofs: negative offset %d: %w", off, proto.ErrInval)
	}
	if len(p) == 0 {
		return 0, nil
	}
	size, err := c.readRange(cp, p, off, 0)
	if err != nil {
		return 0, err
	}
	return clampEOF(len(p), off, size)
}

// readSpans is readRange for a descriptor's file. A range below the
// path's acknowledged size costs its data RPCs and nothing else; past it
// the owner's answer comes back with the data into the size view (where
// another client's truncate or remove is noticed) and, raised by the
// descriptor's candidate, clamps the read.
func (c *Client) readSpans(of *openFile, p []byte, off int64) (int, error) {
	n := int64(len(p))
	if n == 0 {
		return 0, nil
	}
	v := of.view
	floor := v.acked.Load()
	if off+n <= floor {
		if _, err := c.readRange(of.path, p, off, floor); err != nil {
			return 0, err
		}
		return int(n), nil
	}
	gen := v.gen.Load()
	size, err := c.readRange(of.path, p, off, floor)
	if errors.Is(err, proto.ErrNotExist) {
		v.owner(gen, 0)
	}
	if err != nil {
		return 0, err
	}
	v.owner(gen, size)
	return clampEOF(int(n), off, of.cand.eof(size))
}

// wrote validates one OpWriteChunks reply: the daemon must have written
// every byte of the group.
func (g *targetGroup) wrote(d *rpc.Dec, err error) error {
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

// writeGroup is the one chunk write: it sends the group's spans from its
// windows of p to the group's daemon on the calling goroutine and takes
// the reply, which comes once the daemon has stored them.
func (c *Client) writeGroup(path string, g *targetGroup, p []byte) error {
	wins := g.windows(p)
	req := chunkReq(path, g.spans)
	d, err := c.call(g.target, proto.OpWriteChunks, req.Bytes(), rpc.BulkIn, wins...)
	clear(wins)
	if err := g.wrote(d, err); err != nil {
		return opErr("write", path, g.target, err)
	}
	return nil
}

// writeRange pushes p's chunk spans for [off, off+len(p)) synchronously,
// one writeGroup per target group in parallel — the shared sync write
// core of descriptor writes and WritePath. Prefetched spans overlapping
// the range are dropped after the RPCs settle (on failure too: the
// affected ranges are undefined and a prefetched pre-write image must not
// mask that).
func (c *Client) writeRange(path string, p []byte, off int64) error {
	groups := c.groupByTarget(path, off, int64(len(p)))
	err := runGroups(groups, func(g *targetGroup) error { return c.writeGroup(path, g, p) })
	c.dropFetches(path, off, off+int64(len(p)))
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
		md, err := c.statPath(of.path)
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

// writeSpansLocked sends the chunk writes and then the size update, and
// returns once the daemons have stored the bytes. A rewrite ending at or
// below the path's acknowledged size has only a time to report: it joins
// the descriptor's candidate (announced before the data goes out, as the
// size-update cache's writes are) and the next barrier sends one update
// for all. Caller holds of.mu.
func (c *Client) writeSpansLocked(of *openFile, p []byte, off int64) error {
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

// WritePath stores p at offset off of path without a descriptor: one
// synchronous chunk RPC per owning daemon and nothing else — no file-map
// slot, no stat, and deliberately no size update (callers own that, e.g.
// through GrowMany's batched update-size plane). It is staging's write
// path; general applications should use descriptors, whose size handling
// is automatic.
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
// file's current size, after the fashion of io.ReaderAt. Concurrent
// ReadAts proceed in parallel, off the descriptor lock.
func (c *Client) ReadAt(fd int, p []byte, off int64) (int, error) {
	of, err := c.lookupIO(fd, false)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, proto.ErrInval
	}
	return c.readAhead(of, p, off)
}

// Read reads from the descriptor position and advances it.
func (c *Client) Read(fd int, p []byte) (int, error) {
	of, err := c.lookupIO(fd, false)
	if err != nil {
		return 0, err
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	n, err := c.readAhead(of, p, of.pos)
	of.pos += int64(n)
	return n, err
}
