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
	d.srv.Register(proto.OpCreate, d.handleCreate)
	d.srv.Register(proto.OpStat, d.handleStat)
	d.srv.Register(proto.OpRemoveMeta, d.handleRemoveMeta)
	d.srv.Register(proto.OpUpdateSize, d.handleUpdateSize)
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

// handlePing reports the daemon's ID, its protocol version and — when
// the daemon serves one — the path of its shared-memory doorbell socket,
// which co-located clients use to switch to the zero-copy segment
// transport at mount time. The version is what lets a client refuse a
// mixed-generation deployment at mount time instead of failing obscurely
// mid-I/O (client.VerifyProtocol). The reply has this one shape; clients
// decode all of it.
func (d *Daemon) handlePing([]byte, rpc.Bulk) ([]byte, error) {
	e := okResp(6 + 2 + len(d.cfg.ShmSocket))
	e.U32(uint32(d.cfg.ID))
	e.U16(proto.ProtocolVersion)
	e.Str(d.cfg.ShmSocket)
	return e.Bytes(), nil
}

// handleCreate inserts a metadata record. The flat namespace makes this a
// single conditional KV insert regardless of directory population — the
// property behind Fig. 2a's flat-vs-Lustre gap.
func (d *Daemon) handleCreate(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	mode := meta.Mode(dec.U8())
	ctime := dec.I64()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	d.creates.Add(1)
	md := meta.Metadata{Mode: mode, CTimeNS: ctime, MTimeNS: ctime}
	epoch, retained := d.snapEpoch(), d.retainedEpochs()
	var errno proto.Errno
	err := d.db.Update([]byte(path), func(cur []byte, ok bool) ([]byte, bool, error) {
		var vm meta.VersionedMeta
		if ok {
			v, err := meta.DecodeVersionedMeta(cur)
			if err != nil {
				return nil, false, err
			}
			if _, live := v.Live(); live {
				errno = proto.ErrnoExist
				return nil, false, proto.ErrExist
			}
			vm = v
		}
		vm.Stamp(epoch, md)
		vm.Compact(retained)
		return vm.Encode(), false, nil
	})
	if errno != proto.OK {
		return errResp(errno), nil
	}
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", path, err)
	}
	return okResp(0).Bytes(), nil
}

// handleStat resolves a record's live state, or — with StatAtEpoch in
// the request's [u8 flags][u64 epoch, with StatAtEpoch] tail — its state
// at a pinned snapshot epoch. The reply blob is always a resolved 25-byte
// Metadata record regardless of how the record is stored; with
// StatWantVersions the full version history follows it.
func (d *Daemon) handleStat(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	flags := dec.U8()
	var at uint64
	if flags&proto.StatAtEpoch != 0 {
		at = dec.U64()
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	d.statOps.Add(1)
	v, err := d.db.Get([]byte(path))
	if errors.Is(err, kvstore.ErrNotFound) {
		return errResp(proto.ErrnoNotExist), nil
	}
	if err != nil {
		return nil, fmt.Errorf("stat %s: %w", path, err)
	}
	vm, err := meta.DecodeVersionedMeta(v)
	if err != nil {
		return nil, fmt.Errorf("stat %s: %w", path, err)
	}
	var md meta.Metadata
	var ok bool
	if flags&proto.StatAtEpoch != 0 {
		d.snapReads.Add(1)
		md, ok = vm.At(at)
	} else {
		md, ok = vm.Live()
	}
	if !ok {
		return errResp(proto.ErrnoNotExist), nil
	}
	e := okResp(32 + 35*len(vm.V))
	e.Blob(md.Encode())
	if flags&proto.StatWantVersions != 0 {
		proto.EncodeVersions(e, vm.V)
	}
	return e.Bytes(), nil
}

// handleRemoveMeta deletes the record and reports the mode and size it
// had, so the client can decide whether chunk collection RPCs are needed
// (zero-size files need none — the common mdtest case). With
// proto.RemoveFileOnly set, directories are refused with ErrnoIsDir
// instead of deleted, which lets the client unlink a regular file in one
// RPC without a leading stat.
func (d *Daemon) handleRemoveMeta(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	flags := dec.U8()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	d.removes.Add(1)
	epoch, retained := d.snapEpoch(), d.retainedEpochs()
	var removed meta.Metadata
	var errno proto.Errno
	err := d.db.Update([]byte(path), func(cur []byte, ok bool) ([]byte, bool, error) {
		if !ok {
			errno = proto.ErrnoNotExist
			return nil, false, kvstore.ErrNotFound
		}
		vm, err := meta.DecodeVersionedMeta(cur)
		if err != nil {
			return nil, false, err
		}
		m, live := vm.Live()
		if !live {
			errno = proto.ErrnoNotExist
			return nil, false, kvstore.ErrNotFound
		}
		if flags&proto.RemoveFileOnly != 0 && m.IsDir() {
			errno = proto.ErrnoIsDir
			return nil, false, proto.ErrIsDir
		}
		removed = m
		vm.StampTombstone(epoch)
		vm.Compact(retained)
		if len(vm.V) == 1 {
			// No retained snapshot sees the old state: drop the key
			// outright instead of storing a lone tombstone.
			return nil, true, nil
		}
		return vm.Encode(), false, nil
	})
	if errno != proto.OK {
		return errResp(errno), nil
	}
	if err != nil {
		return nil, fmt.Errorf("remove %s: %w", path, err)
	}
	e := okResp(9)
	e.U8(uint8(removed.Mode)).I64(removed.Size)
	return e.Bytes(), nil
}

// handleUpdateSize grows the size through a merge operand (lock-free, the
// released GekkoFS's RocksDB merge) or sets it exactly for truncate.
func (d *Daemon) handleUpdateSize(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	path := dec.Str()
	size := dec.I64()
	truncate := dec.U8() == 1
	mtime := dec.I64()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	d.sizeUpdates.Add(1)
	epoch, retained := d.snapEpoch(), d.retainedEpochs()
	if !truncate {
		// A size grow against a directory record is refused rather than
		// silently folded in. The check is an unlocked read — a racing
		// mkdir could still slip a dir in before the merge lands — so
		// sizeMerger independently refuses to grow directory records.
		if m, live := d.liveMeta(path); live && m.IsDir() {
			return errResp(proto.ErrnoIsDir), nil
		}
		// The epoch is stamped server-side at arrival: clients never
		// carry epochs on mutations, and the merger (which must stay
		// deterministic for WAL replay) reads it from the operand.
		op := rpc.NewEnc(24)
		op.I64(size).I64(mtime).U64(epoch)
		if err := d.db.Merge([]byte(path), op.Bytes()); err != nil {
			return nil, fmt.Errorf("grow %s: %w", path, err)
		}
		return okResp(0).Bytes(), nil
	}
	var errno proto.Errno
	err := d.db.Update([]byte(path), func(cur []byte, ok bool) ([]byte, bool, error) {
		if !ok {
			errno = proto.ErrnoNotExist
			return nil, false, kvstore.ErrNotFound
		}
		vm, err := meta.DecodeVersionedMeta(cur)
		if err != nil {
			return nil, false, err
		}
		m, live := vm.Live()
		if !live {
			errno = proto.ErrnoNotExist
			return nil, false, kvstore.ErrNotFound
		}
		if m.IsDir() {
			errno = proto.ErrnoIsDir
			return nil, false, proto.ErrIsDir
		}
		m.Size = size
		m.MTimeNS = mtime
		vm.Stamp(epoch, m)
		vm.Compact(retained)
		return vm.Encode(), false, nil
	})
	if errno != proto.OK {
		return errResp(errno), nil
	}
	if err != nil {
		return nil, fmt.Errorf("truncate %s: %w", path, err)
	}
	return okResp(0).Bytes(), nil
}

// liveMeta reads a path's current resolved metadata. ok is false when
// the record is absent, tombstoned or unreadable — callers using this
// for advisory checks treat all three the same.
func (d *Daemon) liveMeta(path string) (meta.Metadata, bool) {
	cur, err := d.db.Get([]byte(path))
	if err != nil {
		return meta.Metadata{}, false
	}
	vm, err := meta.DecodeVersionedMeta(cur)
	if err != nil {
		return meta.Metadata{}, false
	}
	return vm.Live()
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
	epoch, retained := d.snapEpoch(), d.retainedEpochs()
	err = forEachSpan(spans, func(_ int, s proto.ChunkSpan, off int64) error {
		return d.chunks.WriteChunkEpoch(path, s.ID, s.Off, data[off:off+s.Len], epoch, retained)
	})
	if err != nil {
		return nil, err
	}
	d.writeOps.Add(1)
	d.writeBytes.Add(uint64(total))
	if flags&proto.WriteReplica != 0 {
		d.replicaWrites.Add(1)
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
	atEpoch := flags&proto.ReadAtEpoch != 0
	var at uint64
	if atEpoch {
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
		if cur, err := d.db.Get([]byte(path)); err == nil {
			vm, merr := meta.DecodeVersionedMeta(cur)
			if merr != nil {
				// A present-but-corrupt record must surface as an error,
				// not as ReadSizeNone — the client would mistake the file
				// for removed and the application could overwrite it.
				return nil, fmt.Errorf("read %s: corrupt metadata record: %w", path, merr)
			}
			var m meta.Metadata
			var live bool
			if atEpoch {
				m, live = vm.At(at)
			} else {
				m, live = vm.Live()
			}
			if live && m.IsDir() {
				return errResp(proto.ErrnoIsDir), nil
			}
			if live {
				sizeState = proto.ReadSizeFile
				sizeView = m.Size
			}
		} else if !errors.Is(err, kvstore.ErrNotFound) {
			return nil, fmt.Errorf("read %s: size view: %w", path, err)
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
			var n int
			var err error
			if atEpoch {
				n, err = d.chunks.ReadChunkAt(path, s.ID, s.Off, dst, at)
			} else {
				n, err = d.chunks.ReadChunk(path, s.ID, s.Off, dst)
			}
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
		// Commit only up to the last present byte: the client cleared its
		// bulk region before exposing it, so the untransferred tail reads
		// as zeros there. Reads past EOF and hole-heavy windows move
		// (almost) nothing over the wire instead of a window of zeros.
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
		d.readPushed.Add(uint64(high))
	}
	d.readOps.Add(1)
	d.readBytes.Add(uint64(total))
	d.readSpans.Add(uint64(len(spans)))
	if atEpoch {
		d.snapReads.Add(1)
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
	if err := d.chunks.RemoveChunksEpoch(path, d.snapEpoch(), d.retainedEpochs()); err != nil {
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
	if m, live := d.liveMeta(path); live && m.IsDir() {
		return errResp(proto.ErrnoIsDir), nil
	}
	if err := d.chunks.TruncateChunksEpoch(path, d.cfg.ChunkSize, newSize, d.snapEpoch(), d.retainedEpochs()); err != nil {
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
	// [u8 flags][u64 epoch, with StatAtEpoch]: with an epoch the scan
	// resolves each record at that snapshot instead of its live state.
	flags := dec.U8()
	var at uint64
	if flags&proto.StatAtEpoch != 0 {
		at = dec.U64()
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	atEpoch := flags&proto.StatAtEpoch != 0
	if limit == 0 {
		limit = proto.DefaultReadDirPage
	}
	if limit > proto.MaxReadDirPage {
		limit = proto.MaxReadDirPage
	}
	d.readDirs.Add(1)
	if atEpoch {
		d.snapReads.Add(1)
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
		var m meta.Metadata
		var ok bool
		if atEpoch {
			m, ok = vm.At(at)
		} else {
			m, ok = vm.Live()
		}
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

// handleStats serves the fixed counters plus, since protocol v7, the
// latency-histogram extension. The extension is trailing: a pre-v7
// client stops after the counters and never sees it.
func (d *Daemon) handleStats([]byte, rpc.Bulk) ([]byte, error) {
	e := okResp(proto.DaemonStatsWireLen)
	proto.EncodeDaemonStats(e, d.Stats())
	proto.EncodeStatsExt(e, d.StatsExt())
	return e.Bytes(), nil
}
