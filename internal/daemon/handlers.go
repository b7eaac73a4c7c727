package daemon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/kvstore"
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

func (d *Daemon) register() {
	d.srv.Register(proto.OpPing, d.handlePing)
	d.srv.Register(proto.OpCreate, d.metaOpHandler(proto.MetaOpCreate))
	d.srv.Register(proto.OpStat, d.metaOpHandler(proto.MetaOpStat))
	d.srv.Register(proto.OpRemoveMeta, d.metaOpHandler(proto.MetaOpRemove))
	d.srv.Register(proto.OpUpdateSize, d.metaOpHandler(proto.MetaOpUpdateSize))
	d.srv.Register(proto.OpWriteChunks, d.handleWriteChunks)
	d.srv.Register(proto.OpReadChunks, d.handleReadChunks)
	d.srv.Register(proto.OpRemoveChunks, d.handleRemoveChunks)
	d.srv.Register(proto.OpTruncateChunks, d.handleTruncateChunks)
	d.srv.Register(proto.OpReadDir, d.handleReadDir)
	d.srv.Register(proto.OpStats, d.handleStats)
	d.srv.Register(proto.OpBatchMeta, d.handleBatchMeta)
	d.srv.Register(proto.OpSnapshot, d.handleSnapshot)
	d.srv.Register(proto.OpSnapshotList, d.handleSnapshotList)
	d.srv.Register(proto.OpSnapshotDrop, d.handleSnapshotDrop)
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

// metaAt reads path's metadata record as of epoch at (meta.LiveEpoch
// for the live state) — the chunk handlers' view of the namespace. ok is
// false when this daemon holds no such record: the path is absent,
// removed, not yet born at the epoch, or owned by another daemon. A
// present-but-corrupt record is an error, never "absent" — a client told
// the file is gone could let the application overwrite it.
func (d *Daemon) metaAt(path string, at uint64) (md meta.Metadata, ok bool, err error) {
	cur, err := d.db.Get([]byte(path))
	if errors.Is(err, kvstore.ErrNotFound) {
		return meta.Metadata{}, false, nil
	}
	if err != nil {
		return meta.Metadata{}, false, err
	}
	vm, err := meta.DecodeVersionedMeta(cur)
	if err != nil {
		return meta.Metadata{}, false, fmt.Errorf("corrupt metadata record: %w", err)
	}
	md, ok = vm.At(at)
	return md, ok, nil
}

// maxSpanBytes bounds one chunk RPC's total span bytes (mirrors the TCP
// transport's frame limit). Summing attacker-supplied span lengths with
// plain int64 arithmetic can wrap negative and slip past the bulk-length
// guard, so totals are validated span by span.
const maxSpanBytes = 128 << 20

// spanTotal sums span lengths, rejecting any request whose total could
// not have arrived through a sane transport.
func spanTotal(path string, spans []proto.ChunkSpan) (int64, error) {
	var total int64
	for _, s := range spans {
		if s.Len < 0 || s.Len > maxSpanBytes {
			return 0, fmt.Errorf("chunks %s: span length %d out of range", path, s.Len)
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

// handleWriteChunks stores chunk spans. The WriteReplica flag bit marks
// the call as a non-primary replica copy, which feeds the ReplicaWrites
// counter and nothing else — replicas are stored exactly like primaries.
func (d *Daemon) handleWriteChunks(req []byte, bulk rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	spans := proto.DecodeSpans(dec)
	flags := dec.U8()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	total, err := spanTotal(path, spans)
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
	slot, retained := d.enter()
	err = forEachSpan(spans, func(_ int, s proto.ChunkSpan, off int64) error {
		return d.chunks.WriteChunkEpoch(path, s.ID, s.Off, data[off:off+s.Len], slot.epoch, retained)
	})
	slot.exit()
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&d.live.WriteOps, 1)
	atomic.AddUint64(&d.live.WriteBytes, uint64(total))
	if flags&proto.WriteReplica != 0 {
		atomic.AddUint64(&d.live.ReplicaWrites, 1)
	}
	e := okResp(8)
	e.I64(total)
	return e.Bytes(), nil
}

// handleReadChunks serves chunk spans and, when the request carries the
// ReadWantSize flag, piggybacks this daemon's size view of the path onto
// the reply — the stat-free read protocol. A zero-span request with the
// flag set is a pure size probe (the client sends one when no attempt of
// a read is certain to reach the path's metadata owner) and moves no bulk
// bytes.
func (d *Daemon) handleReadChunks(req []byte, bulk rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	spans := proto.DecodeSpans(dec)
	flags := dec.U8()
	at := meta.LiveEpoch
	if flags&proto.ReadAtEpoch != 0 {
		at = dec.U64()
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	total, err := spanTotal(path, spans)
	if err != nil {
		return nil, err
	}
	if total > 0 && (bulk == nil || int64(bulk.Len()) < total) {
		return nil, fmt.Errorf("read %s: bulk region %d short of %d", path, bulkLen(bulk), total)
	}
	sizeState := proto.ReadSizeNone
	var sizeView int64
	if flags&proto.ReadWantSize != 0 {
		m, ok, err := d.metaAt(path, at)
		if err != nil {
			return nil, fmt.Errorf("read %s: size view: %w", path, err)
		}
		if ok && m.IsDir() {
			return errResp(proto.ErrnoIsDir), nil
		}
		if ok {
			sizeState, sizeView = proto.ReadSizeFile, m.Size
		}
	}
	counts := make([]int64, len(spans))
	if total > 0 {
		// The transport's outgoing bulk region is the pread destination
		// itself — no staging copy, no Push.
		data, werr := bulk.Writable(int(total))
		if werr != nil {
			return nil, werr
		}
		err = forEachSpan(spans, func(i int, s proto.ChunkSpan, off int64) error {
			dst := data[off : off+s.Len]
			n, err := d.chunks.ReadChunkAt(path, s.ID, s.Off, dst, at)
			if err != nil {
				return err
			}
			// The region is dirty (a pooled wire buffer or a reused segment
			// window); bytes past what the chunk file holds are holes and
			// must read as zeros.
			clear(dst[n:])
			counts[i] = int64(n)
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Commit only up to the last present byte: the carrier zeroes what
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
		if err := bulk.Commit(int(high)); err != nil {
			return nil, err
		}
		atomic.AddUint64(&d.live.ReadBytesPushed, uint64(high))
	}
	atomic.AddUint64(&d.live.ReadOps, 1)
	atomic.AddUint64(&d.live.ReadBytes, uint64(total))
	atomic.AddUint64(&d.live.ReadSpans, uint64(len(spans)))
	if at != meta.LiveEpoch {
		atomic.AddUint64(&d.live.SnapshotReads, 1)
	}
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
	slot, retained := d.enter()
	defer slot.exit()
	if err := d.chunks.RemoveChunksEpoch(path, slot.epoch, retained); err != nil {
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
	if m, ok, err := d.metaAt(path, meta.LiveEpoch); err != nil {
		return nil, fmt.Errorf("truncate %s: %w", path, err)
	} else if ok && m.IsDir() {
		return errResp(proto.ErrnoIsDir), nil
	}
	slot, retained := d.enter()
	defer slot.exit()
	if err := d.chunks.TruncateChunksEpoch(path, d.cfg.ChunkSize, newSize, slot.epoch, retained); err != nil {
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
	// The scan resolves each record at this epoch: a snapshot's, or
	// LiveEpoch for the live namespace.
	_, at := proto.DecodeEpochTail(dec)
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
	if at != meta.LiveEpoch {
		atomic.AddUint64(&d.live.SnapshotReads, 1)
	}
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
		vm, err := meta.DecodeVersionedMeta(it.Value())
		if err != nil {
			return nil, fmt.Errorf("readdir %s: corrupt record at %s: %w", dir, p, err)
		}
		m, ok := vm.At(at)
		if !ok {
			continue // tombstoned (or unborn at the requested epoch)
		}
		ents = append(ents, ent{name: meta.Base(p), isDir: m.IsDir(), size: m.Size})
	}
	if err := it.Err(); err != nil {
		return nil, err
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
