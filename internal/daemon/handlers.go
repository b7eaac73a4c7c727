package daemon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chunkstore"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// Response convention: every payload starts with a u16 errno; success data
// follows. Unexpected internal failures return a Go error and surface at
// the client as rpc.RemoteError.

func okResp(extra int) *rpc.Enc {
	e := rpc.NewEnc(2 + extra)
	e.U16(uint16(proto.OK))
	return e
}

func errResp(errno proto.Errno) []byte {
	e := rpc.NewEnc(2)
	e.U16(uint16(errno))
	return e.Bytes()
}

// register installs every handler. The point ops, which the stream
// transport runs inline on the connection's reader
// (rpc.Server.RegisterPoint), are the ones whose work is bounded by
// their frame and that never wait on another request: ping, the four
// single-op metadata framings (one bounded key-value read-modify-write
// each), and the chunk reads and writes (one pread or pwrite per span
// the frame carries or asks for, each span inside one chunk — spanTotal).
// A path lock a chunk I/O meets is held by a running handler for its own
// bounded work. Everything else may scale beyond its frame — an unlink
// per chunk file under the path's write lock, up to proto.MaxBatchOps
// sub-ops, a directory page, the stats document — and gets a goroutine of
// its own.
func (d *Daemon) register() {
	d.srv.RegisterPoint(proto.OpPing, d.handlePing)
	d.srv.RegisterPoint(proto.OpCreate, d.metaOpHandler(proto.MetaOpCreate))
	d.srv.RegisterPoint(proto.OpStat, d.metaOpHandler(proto.MetaOpStat))
	d.srv.RegisterPoint(proto.OpRemoveMeta, d.metaOpHandler(proto.MetaOpRemove))
	d.srv.RegisterPoint(proto.OpUpdateSize, d.metaOpHandler(proto.MetaOpUpdateSize))
	d.srv.RegisterPoint(proto.OpWriteChunks, d.handleWriteChunks)
	d.srv.RegisterPoint(proto.OpReadChunks, d.handleReadChunks)
	d.srv.Register(proto.OpRemoveChunks, d.handleRemoveChunks)
	d.srv.Register(proto.OpTruncateChunks, d.handleTruncateChunks)
	d.srv.Register(proto.OpReadDir, d.handleReadDir)
	d.srv.Register(proto.OpStats, d.handleStats)
	d.srv.Register(proto.OpBatchMeta, d.handleBatchMeta)
}

// metaOpHandler binds handleMetaOp to one of the four single-op codes.
func (d *Daemon) metaOpHandler(kind proto.MetaOpKind) rpc.Handler {
	return func(req []byte, _ rpc.Bulk) ([]byte, error) { return d.handleMetaOp(kind, req) }
}

// handlePing reports the daemon's ID, its protocol version, the path of
// its shared-memory doorbell socket when it serves one — co-located
// clients use it to switch to the zero-copy segment transport at mount
// time — and its effective chunk size, the deployment's source of truth
// for it. Version, ID and chunk size are what let a client refuse a
// mixed-generation deployment, a permuted daemon list or a wrong chunk
// size at mount time instead of failing obscurely, or silently, mid-I/O
// (client.VerifyProtocol). The reply has this one shape; clients decode
// all of it (client.ProbeDaemon).
func (d *Daemon) handlePing([]byte, rpc.Bulk) ([]byte, error) {
	e := okResp(6 + 2 + len(d.cfg.ShmSocket) + 8)
	e.U32(uint32(d.cfg.ID))
	e.U16(proto.ProtocolVersion)
	e.Str(d.cfg.ShmSocket)
	e.I64(d.cfg.ChunkSize)
	return e.Bytes(), nil
}

// maxSpanBytes bounds one chunk RPC's total span bytes: the one
// transfer a call may carry, which the client splits its I/O to. Summing
// attacker-supplied span lengths with plain int64 arithmetic can wrap
// negative and slip past the bulk-length guard, so totals are validated
// span by span.
const maxSpanBytes = rpc.MaxBulk

// spanTotal sums span lengths, rejecting any request whose total could
// not have arrived through a sane transport and any span that leaves its
// chunk — Off past chunkSize or Len past chunkSize-Off, compared without
// arithmetic that can wrap. It runs before any I/O: a span at offset
// 1<<40 would otherwise leave a terabyte-sized sparse chunk file behind
// (or, on an in-memory vfs, exhaust the process's memory).
func spanTotal(path string, spans []proto.ChunkSpan, chunkSize int64) (int64, error) {
	var total int64
	for _, s := range spans {
		if s.Len < 0 || s.Len > maxSpanBytes {
			return 0, fmt.Errorf("chunks %s: span length %d out of range", path, s.Len)
		}
		if s.Off < 0 || s.Off > chunkSize || s.Len > chunkSize-s.Off {
			return 0, fmt.Errorf("chunks %s: span [%d, +%d) of chunk %d leaves the %d-byte chunk", path, s.Off, s.Len, s.ID, chunkSize)
		}
		total += s.Len
		if total > maxSpanBytes {
			return 0, fmt.Errorf("chunks %s: span total exceeds %d", path, int64(maxSpanBytes))
		}
	}
	return total, nil
}

// maxSpanWorkers bounds per-request chunk-file parallelism. Spans within
// one RPC touch distinct chunk files of the same path, which chunkstore
// serves under a shared read lock, so they can proceed concurrently —
// engaging the node-local SSD's internal parallelism instead of issuing
// one synchronous file I/O at a time.
const maxSpanWorkers = 8

// forEachSpan runs fn over every span, with its index and its byte offset
// into the request's concatenated bulk region. Multi-span requests fan
// out over a bounded worker set; the first error wins, but all spans are
// attempted.
func forEachSpan(spans []proto.ChunkSpan, fn func(i int, s proto.ChunkSpan, off int64) error) error {
	if len(spans) == 1 {
		return fn(0, spans[0], 0)
	}
	offs := make([]int64, len(spans))
	var off int64
	for i, s := range spans {
		offs[i] = off
		off += s.Len
	}
	workers := min(len(spans), maxSpanWorkers)
	errs := make([]error, len(spans))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				errs[i] = fn(i, spans[i], offs[i])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// handleWriteChunks stores chunk spans.
func (d *Daemon) handleWriteChunks(req []byte, bulk rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	spans := proto.DecodeSpans(dec)
	if err := dec.Done(); err != nil {
		return nil, err
	}
	total, err := spanTotal(path, spans, d.cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	if bulk == nil || int64(bulk.Len()) < total {
		return nil, fmt.Errorf("write %s: bulk region %d short of %d", path, bulkLen(bulk), total)
	}
	// The transport's wire-read region (or the shared segment window) is
	// the pwrite source itself — no staging copy.
	data, err := bulk.Bytes()
	if err != nil {
		return nil, err
	}
	err = forEachSpan(spans, func(_ int, s proto.ChunkSpan, off int64) error {
		return d.chunks.WriteChunk(path, s.ID, s.Off, data[off:off+s.Len])
	})
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&d.live.WriteOps, 1)
	atomic.AddUint64(&d.live.WriteBytes, uint64(total))
	e := okResp(8)
	e.I64(total)
	return e.Bytes(), nil
}

// handleReadChunks serves chunk spans and, when the request carries the
// ReadWantSize flag, piggybacks this daemon's size view of the path onto
// the reply — the stat-free read protocol. A zero-span request with the
// flag set is a pure size probe (the client sends one when no attempt of
// a read's groups is bound for the path's metadata owner) and moves no
// bulk bytes.
func (d *Daemon) handleReadChunks(req []byte, bulk rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	spans := proto.DecodeSpans(dec)
	flags := dec.U8()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	total, err := spanTotal(path, spans, d.cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	if total > 0 && (bulk == nil || int64(bulk.Len()) < total) {
		return nil, fmt.Errorf("read %s: bulk region %d short of %d", path, bulkLen(bulk), total)
	}
	sizeState := proto.ReadSizeNone
	var sizeView int64
	if flags&proto.ReadWantSize != 0 {
		rec, err := d.record([]byte(path))
		if err != nil {
			return nil, fmt.Errorf("read %s: size view: %w", path, err)
		}
		if rec.Exists && rec.Meta.IsDir() {
			return errResp(proto.ErrnoIsDir), nil
		}
		if rec.Exists {
			sizeState, sizeView = proto.ReadSizeFile, rec.Meta.Size
		}
	}
	counts := make([]int64, len(spans))
	if total > 0 {
		r := getReadReply()
		r.views = append(r.views[:0], make([]chunkstore.View, len(spans))...)
		// Views only for a carrier that sends them where they lie (TCP's
		// writev, whose copy is the kernel's: a fault in a view is an
		// EFAULT there, never a signal). Any other carrier would copy them
		// into its region in user space; it gets the read straight into
		// that region instead, as before views.
		_, r.lend = bulk.(rpc.Gatherer)
		err = forEachSpan(spans, func(i int, s proto.ChunkSpan, off int64) error {
			v, err := d.readSpan(r, bulk, total, path, s, off)
			r.views[i], counts[i] = v, int64(len(v.B))
			return err
		})
		if err != nil {
			r.done()
			return nil, err
		}
		// Reply only up to the last present byte: the carrier zeroes what
		// it did not deliver (rpc.Bulk.Commit), so the untransferred tail
		// reads as zeros on the client. Reads past EOF and hole-heavy
		// windows move (almost) nothing over the wire instead of a window
		// of zeros.
		var high, spanOff int64
		for i, s := range spans {
			if n := counts[i]; n > 0 && spanOff+n > high {
				high = spanOff + n
			}
			spanOff += s.Len
		}
		if err := rpc.Gather(bulk, r.windows(spans, high), r.release); err != nil {
			return nil, err
		}
		atomic.AddUint64(&d.live.ReadBytesPushed, uint64(high))
	}
	atomic.AddUint64(&d.live.ReadOps, 1)
	atomic.AddUint64(&d.live.ReadBytes, uint64(total))
	atomic.AddUint64(&d.live.ReadSpans, uint64(len(spans)))
	e := okResp(4 + 8*len(counts) + 9)
	e.U32(uint32(len(counts)))
	for _, c := range counts {
		e.I64(c)
	}
	if flags&proto.ReadWantSize != 0 {
		e.U8(sizeState)
		e.I64(sizeView)
	}
	return e.Bytes(), nil
}

// readSpan reads one span of a chunk read: a chunk lent to a gathering
// carrier as a view of its mapping, which holds the chunk's handle but not
// its path lock until the reply is written; any other read — a carrier
// that cannot gather, a chunk the store cannot map — by a copy under the
// path lock into the carrier's own region at the span's place in the
// reply (drawn at the first such span).
func (d *Daemon) readSpan(r *readReply, bulk rpc.Bulk, total int64, path string, s proto.ChunkSpan, off int64) (chunkstore.View, error) {
	if r.lend {
		v, ok, err := d.chunks.ViewChunk(path, s.ID, s.Off, s.Len)
		if ok || err != nil {
			return v, err
		}
	}
	region, err := r.region(bulk, total)
	if err != nil {
		return chunkstore.View{}, err
	}
	dst := region[off : off+s.Len]
	n, err := d.chunks.ReadChunk(path, s.ID, s.Off, dst)
	return chunkstore.View{B: dst[:n]}, err
}

// zeroPad is the one shared run of zeros a read reply pads short spans
// and holes from. 64 KiB rather than a page keeps a hole-heavy reply to
// one window per 64 KiB of padding.
var zeroPad [64 << 10]byte

// readReply is one chunk read's reply while the carrier sends it: each
// span's present bytes (views, one per span, in span order) and the
// window list gathered from them. Pooled; release, bound once, gives the
// views back and the reply to the pool.
type readReply struct {
	views   []chunkstore.View
	list    [][]byte
	release func()
	lend    bool // spans are read as views (readSpan)

	mu  sync.Mutex
	dst []byte // guarded by mu; the carrier's Writable region, once a span needed it
}

var readReplies sync.Pool

func getReadReply() *readReply {
	if r, ok := readReplies.Get().(*readReply); ok {
		return r
	}
	r := new(readReply)
	r.release = r.done
	return r
}

// region returns the carrier's Writable region of total bytes for the
// spans read by copy, drawing it at the first call.
func (r *readReply) region(bulk rpc.Bulk, total int64) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dst == nil {
		b, err := bulk.Writable(int(total))
		if err != nil {
			return nil, err
		}
		r.dst = b
	}
	return r.dst, nil
}

// windows lays the reply out up to high: each span's present bytes, then
// zeros from zeroPad to the span's end.
func (r *readReply) windows(spans []proto.ChunkSpan, high int64) [][]byte {
	list := r.list[:0]
	var off int64
	for i, s := range spans {
		if off >= high {
			break
		}
		b := r.views[i].B
		if len(b) > 0 {
			list = append(list, b)
		}
		for pad := min(s.Len, high-off) - int64(len(b)); pad > 0; {
			z := zeroPad[:min(pad, int64(len(zeroPad)))]
			list = append(list, z)
			pad -= int64(len(z))
		}
		off += s.Len
	}
	r.list = list
	return list
}

// done releases every view and returns r to the pool.
func (r *readReply) done() {
	for _, v := range r.views {
		v.Release()
	}
	clear(r.views)
	clear(r.list)
	r.views, r.list = r.views[:0], r.list[:0]
	r.mu.Lock()
	r.dst = nil
	r.mu.Unlock()
	readReplies.Put(r)
}

func bulkLen(b rpc.Bulk) int {
	if b == nil {
		return 0
	}
	return b.Len()
}

func (d *Daemon) handleRemoveChunks(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	if err := d.chunks.RemoveChunks(path); err != nil {
		return nil, err
	}
	return okResp(0).Bytes(), nil
}

func (d *Daemon) handleTruncateChunks(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	newSize := dec.I64()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	if newSize < 0 {
		return errResp(proto.ErrnoInval), nil
	}
	// Directories carry no chunks; truncating one is a caller error. The
	// record lives only on the path's metadata owner, so the check bites
	// there and is a no-op on the other daemons of the fan-out.
	if rec, err := d.record([]byte(path)); err != nil {
		return nil, fmt.Errorf("truncate %s: %w", path, err)
	} else if rec.Exists && rec.Meta.IsDir() {
		return errResp(proto.ErrnoIsDir), nil
	}
	if err := d.chunks.TruncateChunks(path, d.cfg.ChunkSize, newSize); err != nil {
		return nil, err
	}
	return okResp(0).Bytes(), nil
}

// handleReadDir scans this daemon's KV store for direct children of dir,
// returning one page per call: at most `limit` entries after the
// continuation token, plus the token for the next page (empty when the
// scan is exhausted). Paging bounds the response frame regardless of
// directory size — a listing that once had to fit in a single frame now
// streams. The scan runs against a point-in-time iterator locally, but
// pages and the client's cross-daemon merge see no global lock — the
// eventual consistency the paper accepts for indirect operations like
// `ls -l` (§III-A).
func (d *Daemon) handleReadDir(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	dir := dec.Str()
	after := dec.Str()
	limit := dec.U32()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	if limit == 0 {
		limit = proto.DefaultReadDirPage
	}
	if limit > proto.MaxReadDirPage {
		limit = proto.MaxReadDirPage
	}
	atomic.AddUint64(&d.live.ReadDirs, 1)
	prefix := dir
	if prefix != meta.Root {
		prefix += "/"
	}
	start := []byte(prefix)
	if after != "" {
		// Resume strictly after the last returned child: no string sorts
		// between name and name+"\x00", and the seek landing among that
		// child's own descendants is harmless — IsChildOf skips them.
		start = []byte(prefix + after + "\x00")
	}
	it, err := d.db.NewIterator()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	type ent struct {
		name  string
		isDir bool
		size  int64
	}
	var ents []ent
	next := ""
	for it.Seek(start); it.Valid(); it.Next() {
		p := string(it.Key())
		if len(p) < len(prefix) || p[:len(prefix)] != prefix {
			break
		}
		if !meta.IsChildOf(p, dir) {
			continue // deeper descendant hashed here
		}
		if uint32(len(ents)) == limit {
			// A further child exists: hand back a token so the client
			// asks for the next page.
			next = ents[len(ents)-1].name
			break
		}
		m, err := meta.DecodeMetadata(it.Value())
		if err != nil {
			return nil, fmt.Errorf("readdir %s: corrupt record at %s: %w", dir, p, err)
		}
		ents = append(ents, ent{name: meta.Base(p), isDir: m.IsDir(), size: m.Size})
	}
	e := okResp(16*len(ents) + len(next) + 8)
	e.U32(uint32(len(ents)))
	for _, en := range ents {
		e.Str(en.name)
		if en.isDir {
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.I64(en.size)
	}
	e.Str(next)
	return e.Bytes(), nil
}

// handleStats serves the daemon's telemetry snapshot — the document
// /statz renders, name for name.
func (d *Daemon) handleStats([]byte, rpc.Bulk) ([]byte, error) {
	e := okResp(4096)
	proto.EncodeSnapshot(e, d.reg.Snapshot())
	return e.Bytes(), nil
}
