// Package proto defines the client↔daemon protocol: RPC operation IDs,
// request/response encodings, and the file system error space. Both
// internal/client and internal/daemon speak exactly this vocabulary, the
// Go analogue of GekkoFS's Mercury RPC definitions.
package proto

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// ProtocolVersion is the client↔daemon wire protocol generation. Frames
// and payloads carry no version tag of their own, so a deployment runs
// one generation on every client and daemon — which a per-job file
// system, shipping both ends from one build, always does. Daemons report
// it in every OpPing reply, and client.ProbeDaemon checks it at mount,
// refusing any other generation. Any change to a frame or
// payload shape bumps it. CHANGES.md records what each generation changed.
const ProtocolVersion uint16 = 15

// RPC operations. Each corresponds to one registered Mercury RPC in the
// released GekkoFS.
const (
	// OpPing checks daemon liveness during deployment.
	OpPing rpc.Op = iota + 1
	// OpCreate inserts a metadata record (file or directory) if absent.
	OpCreate
	// OpStat fetches a path's metadata record.
	OpStat
	// OpRemoveMeta deletes a path's metadata record, returning the size
	// it had so the client knows whether chunks must be collected.
	OpRemoveMeta
	// OpUpdateSize grows (merge) or sets (truncate) a file's size.
	OpUpdateSize
	// OpWriteChunks stores spans of one or more chunks held by the target
	// daemon; data travels in the bulk region (daemon pulls). The request
	// is the path and the span vector, nothing after them.
	OpWriteChunks
	// OpReadChunks fetches spans of chunks; data returns through the bulk
	// region (daemon pushes).
	OpReadChunks
	// OpRemoveChunks deletes all chunks of a path on the target daemon.
	OpRemoveChunks
	// OpTruncateChunks discards chunk data beyond a new size on the
	// target daemon.
	OpTruncateChunks
	// OpReadDir scans the daemon-local KV store for children of a
	// directory, one bounded page per call (continuation token + limit),
	// so listings of any size stream in bounded frames.
	OpReadDir
	// OpStats returns daemon operation counters (tooling/tests).
	OpStats
	// OpBatchMeta applies a vector of metadata sub-ops
	// (create/stat/remove/update-size) in one RPC, returning a per-op
	// errno vector. Mutating sub-ops commit through one KV batch (one WAL
	// append per RPC instead of one per op).
	OpBatchMeta

	// OpEnd is one past the last op: the tables indexed by op are sized
	// by it, and TestEveryOpRegistered dispatches every op below it.
	OpEnd
)

// opNames gives ops human names for trace events, metric tables and
// tooling output. Indexed by op value.
var opNames = [OpEnd]string{
	OpPing:           "ping",
	OpCreate:         "create",
	OpStat:           "stat",
	OpRemoveMeta:     "remove_meta",
	OpUpdateSize:     "update_size",
	OpWriteChunks:    "write_chunks",
	OpReadChunks:     "read_chunks",
	OpRemoveChunks:   "remove_chunks",
	OpTruncateChunks: "truncate_chunks",
	OpReadDir:        "readdir",
	OpStats:          "stats",
	OpBatchMeta:      "batch_meta",
}

// OpName returns the human name of op, or "op<N>" for values this
// build does not know. Trace events on both ends and the percentile
// tables use it, so the names line up across processes.
func OpName(op rpc.Op) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

// Errno is the wire representation of an expected file system error.
// Unexpected failures travel as rpc.RemoteError instead.
type Errno uint16

// Wire error codes.
const (
	OK Errno = iota
	ErrnoNotExist
	ErrnoExist
	ErrnoIsDir
	ErrnoNotDir
	ErrnoNotEmpty
	ErrnoInval

	// errnoEnd is one past the last wire code; errnoErrs is sized by it.
	errnoEnd
)

// File system errors shared by daemon, client and the public facade.
var (
	// ErrNotExist reports a missing path.
	ErrNotExist = errors.New("gekkofs: no such file or directory")
	// ErrExist reports a create of an existing path.
	ErrExist = errors.New("gekkofs: file exists")
	// ErrIsDir reports a file operation on a directory.
	ErrIsDir = errors.New("gekkofs: is a directory")
	// ErrNotDir reports a directory operation on a file.
	ErrNotDir = errors.New("gekkofs: not a directory")
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = errors.New("gekkofs: directory not empty")
	// ErrInval reports an invalid argument.
	ErrInval = errors.New("gekkofs: invalid argument")
	// ErrNotSupported reports POSIX functionality GekkoFS deliberately
	// omits: rename/move, links, and permission management (paper
	// §III-A).
	ErrNotSupported = errors.New("gekkofs: operation not supported")
)

// errnoErrs is the errno codec, both directions: the Go error of every
// wire code but OK. TestErrnoTableClosed pins that no entry is missing.
var errnoErrs = [errnoEnd]error{
	ErrnoNotExist: ErrNotExist,
	ErrnoExist:    ErrExist,
	ErrnoIsDir:    ErrIsDir,
	ErrnoNotDir:   ErrNotDir,
	ErrnoNotEmpty: ErrNotEmpty,
	ErrnoInval:    ErrInval,
}

// Err converts a wire code to its Go error; OK maps to nil.
func (e Errno) Err() error {
	if e == OK {
		return nil
	}
	if e < errnoEnd {
		return errnoErrs[e]
	}
	return fmt.Errorf("gekkofs: errno %d", uint16(e))
}

// ErrnoOf maps a Go error to its wire code; nil maps to OK. Unknown
// errors map to ErrnoInval (daemons convert unexpected errors to
// rpc.RemoteError before this is consulted).
func ErrnoOf(err error) Errno {
	if err == nil {
		return OK
	}
	for e := OK + 1; e < errnoEnd; e++ {
		if errors.Is(err, errnoErrs[e]) {
			return e
		}
	}
	return ErrnoInval
}

// ChunkSpan names one contiguous byte range of one chunk inside a
// write/read RPC. Spans of a single RPC address chunks owned by the same
// daemon; their data is concatenated in span order inside the bulk
// region.
type ChunkSpan struct {
	// ID is the chunk.
	ID meta.ChunkID
	// Off is the offset inside the chunk file.
	Off int64
	// Len is the span length in bytes.
	Len int64
}

// EncodeSpans appends spans to an encoder: [u32 count] + triples.
func EncodeSpans(e *rpc.Enc, spans []ChunkSpan) {
	e.U32(uint32(len(spans)))
	for _, s := range spans {
		e.U64(uint64(s.ID)).I64(s.Off).I64(s.Len)
	}
}

// spanWireBytes is the encoded size of one span triple.
const spanWireBytes = 24

// DecodeSpans reads what EncodeSpans wrote. The claimed count is
// validated against the remaining buffer before any allocation, and
// spans with negative offsets or lengths are rejected — length fields on
// the wire must never size allocations unchecked.
func DecodeSpans(d *rpc.Dec) []ChunkSpan {
	n := d.U32()
	if d.Err() != nil {
		return nil
	}
	if int64(n)*spanWireBytes > int64(d.Remaining()) {
		d.Corrupt()
		return nil
	}
	spans := make([]ChunkSpan, 0, n)
	for i := uint32(0); i < n; i++ {
		s := ChunkSpan{
			ID:  meta.ChunkID(d.U64()),
			Off: d.I64(),
			Len: d.I64(),
		}
		if s.Off < 0 || s.Len < 0 {
			d.Corrupt()
			return nil
		}
		spans = append(spans, s)
	}
	return spans
}

// SpanBytes sums the lengths of spans (the expected bulk region size).
func SpanBytes(spans []ChunkSpan) int64 {
	var n int64
	for _, s := range spans {
		n += s.Len
	}
	return n
}

// ReadWantSize is the OpReadChunks request flag bit (the u8 flags field
// after the span vector) asking the daemon to piggyback its current size
// view of the path onto the reply: a [u8 state][i64 size] pair after the
// per-span present-byte counts. It is
// what makes reads stat-free — the client learns the EOF clamp from the
// chunk RPC itself instead of a leading OpStat round trip. Only the reply
// of the path's metadata owner carries an authoritative state; other
// daemons answer ReadSizeNone. The pair is emitted only when the request
// sets this bit.
const ReadWantSize uint8 = 1 << 0

// OpReadChunks size-view states (the u8 preceding the piggybacked size).
// A directory record produces no state: the daemon refuses the whole
// call with ErrnoIsDir instead.
const (
	// ReadSizeNone: this daemon holds no metadata record for the path.
	// From the path's metadata owner this means the file does not exist.
	ReadSizeNone uint8 = 0
	// ReadSizeFile: a regular-file record exists; its size follows.
	ReadSizeFile uint8 = 1
)

// RemoveFileOnly is the OpRemoveMeta flag bit asking the daemon to refuse
// directories with ErrnoIsDir instead of deleting them. It lets a client
// unlink a regular file in a single RPC — no leading stat to find out
// whether the path is a directory — and fall back to the directory
// protocol only when the daemon says so.
const RemoveFileOnly uint8 = 1 << 0

// UpdateSizeTruncate is the OpUpdateSize flag bit selecting set-exactly
// (truncate) over grow.
const UpdateSizeTruncate uint8 = 1 << 0

// ReadDir pagination. Each OpReadDir call returns at most a page of
// entries plus a continuation token (the last returned name; empty means
// the scan is exhausted), so a huge directory never has to fit in one
// response frame.
const (
	// DefaultReadDirPage is the page size used when a request asks for 0.
	DefaultReadDirPage = 4096
	// MaxReadDirPage caps the page size a daemon will honor, bounding the
	// response frame regardless of what the request claims.
	MaxReadDirPage = 1 << 16
)

// DaemonStats are one daemon's operation counters: the struct the daemon
// bumps (daemon.Stats is an alias; handlers add to its fields atomically)
// and the typed view tooling reads (DaemonStatsOf). Each field's metric
// tag is the counter's one declaration — the name it has in the daemon's
// telemetry snapshot and therefore on /metrics, /statz and in the OpStats
// reply; telemetry's field walker derives the rest.
type DaemonStats struct {
	// Creates, StatOps, Removes count metadata operations.
	Creates uint64 `metric:"gkfs_daemon_creates_total"`
	StatOps uint64 `metric:"gkfs_daemon_stat_ops_total"`
	Removes uint64 `metric:"gkfs_daemon_removes_total"`
	// SizeUpdates counts size merge/truncate operations.
	SizeUpdates uint64 `metric:"gkfs_daemon_size_updates_total"`
	// WriteOps and ReadOps count chunk RPCs; WriteBytes and ReadBytes the
	// logical payloads they addressed.
	WriteOps   uint64 `metric:"gkfs_daemon_write_ops_total"`
	ReadOps    uint64 `metric:"gkfs_daemon_read_ops_total"`
	WriteBytes uint64 `metric:"gkfs_daemon_write_bytes_total"`
	ReadBytes  uint64 `metric:"gkfs_daemon_read_bytes_total"`
	// ReadSpans counts the chunk spans read RPCs carried (a zero-span
	// size probe adds none) and ReadBytesPushed the bulk bytes actually
	// pushed back after trimming trailing holes/EOF. Against a client's
	// logical read volume these expose the read path's efficiency: a
	// prefetch-heavy workload shows large spans per op (see gkfs-shell
	// stats).
	ReadSpans       uint64 `metric:"gkfs_daemon_read_spans_total"`
	ReadBytesPushed uint64 `metric:"gkfs_daemon_read_bytes_pushed_total"`
	// ReadDirs counts directory scan pages served.
	ReadDirs uint64 `metric:"gkfs_daemon_read_dirs_total"`
	// BatchRPCs counts OpBatchMeta calls; BatchedOps the sub-operations
	// they carried. BatchedOps/BatchRPCs is the achieved batching factor —
	// the number of metadata ops amortized over one RPC and one WAL
	// append.
	BatchRPCs  uint64 `metric:"gkfs_daemon_batch_rpcs_total"`
	BatchedOps uint64 `metric:"gkfs_daemon_batched_ops_total"`
	// FramesIn/FramesOut count transport frames the daemon decoded and
	// wrote; WireBytesIn/WireBytesOut the socket bytes they moved (bulk
	// bytes over the shared-memory segment are excluded — they never
	// touch a socket). VectoredWrites counts responses sent as
	// scatter-gather header+bulk pairs, ShmCalls requests that arrived
	// over the shared-memory doorbell. Together they expose the wire
	// tier: logical I/O volume versus WireBytes shows the zero-copy and
	// fast-path win directly. The transports keep them on the RPC server
	// (rpc.WireCounters); Daemon.Stats copies them in.
	FramesIn       uint64 `metric:"gkfs_daemon_frames_in_total"`
	FramesOut      uint64 `metric:"gkfs_daemon_frames_out_total"`
	WireBytesIn    uint64 `metric:"gkfs_daemon_wire_bytes_in_total"`
	WireBytesOut   uint64 `metric:"gkfs_daemon_wire_bytes_out_total"`
	VectoredWrites uint64 `metric:"gkfs_daemon_vectored_writes_total"`
	ShmCalls       uint64 `metric:"gkfs_daemon_shm_calls_total"`
}

// Add accumulates other's counters into st (per-cluster totals).
func (st *DaemonStats) Add(other DaemonStats) { telemetry.AddFields(st, &other) }

// DaemonStatsOf rebuilds the typed view from a daemon's snapshot (an
// OpStats reply, or a Merge of several). A counter the snapshot carries
// that this build does not know stays in the snapshot only.
func DaemonStatsOf(s telemetry.Snapshot) DaemonStats {
	var st DaemonStats
	s.View(&st)
	return st
}

// MetaRPCs sums the metadata-plane RPC counters.
func (st DaemonStats) MetaRPCs() uint64 {
	return st.Creates + st.StatOps + st.Removes + st.SizeUpdates + st.ReadDirs + st.BatchRPCs
}

// EncodeHistSnapshot appends one histogram snapshot: the sum, then the
// occupied buckets as [u32 index][u64 count] pairs. Count is derived
// from the buckets on decode.
func EncodeHistSnapshot(e *rpc.Enc, h telemetry.HistSnapshot) {
	e.U64(h.Sum)
	e.U32(uint32(len(h.Buckets)))
	for _, b := range h.Buckets {
		e.U32(b.Index)
		e.U64(b.Count)
	}
}

// histBucketWireBytes is the encoded size of one bucket pair.
const histBucketWireBytes = 12

// DecodeHistSnapshot reads what EncodeHistSnapshot wrote, with the
// usual wrap-proof discipline: the claimed bucket count is validated
// against the remaining buffer before allocation, and indexes must be
// strictly ascending and inside the fixed layout.
func DecodeHistSnapshot(d *rpc.Dec) telemetry.HistSnapshot {
	sum := d.U64()
	n := d.U32()
	if d.Err() != nil {
		return telemetry.HistSnapshot{}
	}
	if int64(n)*histBucketWireBytes > int64(d.Remaining()) {
		d.Corrupt()
		return telemetry.HistSnapshot{}
	}
	buckets := make([]telemetry.HistBucket, 0, n)
	var count uint64
	last := int64(-1)
	for i := uint32(0); i < n; i++ {
		b := telemetry.HistBucket{Index: d.U32(), Count: d.U64()}
		if int64(b.Index) <= last || b.Index >= telemetry.HistBucketCount {
			d.Corrupt()
			return telemetry.HistSnapshot{}
		}
		last = int64(b.Index)
		buckets = append(buckets, b)
		count += b.Count
	}
	if d.Err() != nil {
		return telemetry.HistSnapshot{}
	}
	return telemetry.HistSnapshot{Count: count, Sum: sum, Buckets: buckets}
}

// MaxMetricName bounds a metric name inside an OpStats reply.
const MaxMetricName = 128

// EncodeSnapshot appends the OpStats reply body: three sections —
// counters ([u64 value]), gauges ([i64 value]), histograms
// (EncodeHistSnapshot) — each [u32 n] then n × [str name][value], names
// strictly ascending, so a snapshot has exactly one encoding.
func EncodeSnapshot(e *rpc.Enc, s telemetry.Snapshot) {
	encodeNamed(e, s.Counters, func(v uint64) { e.U64(v) })
	encodeNamed(e, s.Gauges, func(v int64) { e.I64(v) })
	encodeNamed(e, s.Hists, func(h telemetry.HistSnapshot) { EncodeHistSnapshot(e, h) })
}

func encodeNamed[V any](e *rpc.Enc, m map[string]V, value func(V)) {
	e.U32(uint32(len(m)))
	for _, name := range slices.Sorted(maps.Keys(m)) {
		e.Str(name)
		value(m[name])
	}
}

// DecodeSnapshot reads what EncodeSnapshot wrote; the caller's d.Done()
// then refuses trailing bytes. Every count is checked against the bytes
// that remain before anything is allocated for it, and a name that is
// empty, over-long, out of order or repeated corrupts the frame.
func DecodeSnapshot(d *rpc.Dec) telemetry.Snapshot {
	s := telemetry.Snapshot{
		Counters: decodeNamed(d, 8, (*rpc.Dec).U64),
		Gauges:   decodeNamed(d, 8, (*rpc.Dec).I64),
		Hists:    decodeNamed(d, 8+4, DecodeHistSnapshot),
	}
	if d.Err() != nil {
		return telemetry.Snapshot{}
	}
	return s
}

// decodeNamed reads one section whose values take at least minValue
// bytes each (plus two for the shortest name).
func decodeNamed[V any](d *rpc.Dec, minValue int, value func(*rpc.Dec) V) map[string]V {
	n := d.U32()
	if d.Err() != nil {
		return nil
	}
	if int64(n)*int64(2+minValue) > int64(d.Remaining()) {
		d.Corrupt()
		return nil
	}
	m := make(map[string]V, n)
	last := ""
	for i := uint32(0); i < n; i++ {
		name := d.Blob()
		if len(name) > MaxMetricName || string(name) <= last {
			d.Corrupt()
		}
		v := value(d)
		if d.Err() != nil {
			return nil
		}
		last = string(name)
		m[last] = v
	}
	return m
}

// MetaOpKind discriminates OpBatchMeta sub-operations. A kind's value
// is the op code of its single-op framing, so a sub-op on the wire reads
// [u8 op code][the single-op request body].
type MetaOpKind uint8

// Batch sub-operation kinds.
const (
	// MetaOpCreate inserts a metadata record if absent.
	MetaOpCreate = MetaOpKind(OpCreate)
	// MetaOpStat fetches a record.
	MetaOpStat = MetaOpKind(OpStat)
	// MetaOpRemove deletes a record, reporting its mode and size.
	MetaOpRemove = MetaOpKind(OpRemoveMeta)
	// MetaOpUpdateSize grows or truncates a file's size.
	MetaOpUpdateSize = MetaOpKind(OpUpdateSize)
)

// MetaOp is one metadata operation: an OpBatchMeta sub-op or, alone, the
// request of its kind's own op code.
type MetaOp struct {
	// Kind selects the operation.
	Kind MetaOpKind
	// Path is the target path (canonical).
	Path string
	// Mode is the record mode for MetaOpCreate.
	Mode meta.Mode
	// Size is the size candidate (grow) or exact size (truncate) for
	// MetaOpUpdateSize.
	Size int64
	// Truncate selects set-exactly over grow for MetaOpUpdateSize.
	Truncate bool
	// FileOnly makes MetaOpRemove refuse directories (RemoveFileOnly).
	FileOnly bool
	// TimeNS is the ctime (create) or mtime (update-size) in UnixNano.
	TimeNS int64
	// Inval is set by the decoder when a field is outside the op's
	// domain; the daemon answers such an op ErrnoInval without looking
	// at the record.
	Inval bool
}

// MetaResult is one metadata operation's outcome.
type MetaResult struct {
	// Errno is the per-op outcome; OK means the op-specific fields below
	// are populated.
	Errno Errno
	// Blob is the encoded metadata record (MetaOpStat only).
	Blob []byte
	// Mode and Size describe the removed record (MetaOpRemove only), so
	// the client knows whether chunk collection is needed.
	Mode meta.Mode
	Size int64
}

// minMetaOpBytes is the smallest possible encoded sub-op: kind byte plus a
// zero-length path prefix. Anything claiming more ops than the remaining
// bytes could hold at this size is lying about its count.
const minMetaOpBytes = 2

// MaxBatchOps caps the sub-ops one OpBatchMeta may carry. It bounds how
// long a daemon holds the KV stripe locks for one batch; clients shard
// larger vectors into multiple RPCs.
const MaxBatchOps = 1 << 16

// EncodeMetaOps appends a sub-op vector to an encoder: [u32 count] then
// per op a kind byte and the op's body.
func EncodeMetaOps(e *rpc.Enc, ops []MetaOp) {
	e.U32(uint32(len(ops)))
	for i := range ops {
		EncodeMetaOp(e, &ops[i])
	}
}

// EncodeMetaOp appends one sub-op. Callers encoding a shard of a larger
// vector emit the count themselves and call this per op, avoiding a
// gathered copy of the shard.
func EncodeMetaOp(e *rpc.Enc, op *MetaOp) {
	e.U8(uint8(op.Kind))
	EncodeMetaOpBody(e, op)
}

// EncodeMetaOpBody appends op's body — the path and the kind's fields —
// which is the whole request when op travels alone under its own op code.
func EncodeMetaOpBody(e *rpc.Enc, op *MetaOp) {
	e.Str(op.Path)
	switch op.Kind {
	case MetaOpCreate:
		e.U8(uint8(op.Mode)).I64(op.TimeNS)
	case MetaOpRemove:
		var flags uint8
		if op.FileOnly {
			flags |= RemoveFileOnly
		}
		e.U8(flags)
	case MetaOpUpdateSize:
		var flags uint8
		if op.Truncate {
			flags |= UpdateSizeTruncate
		}
		e.I64(op.Size).U8(flags).I64(op.TimeNS)
	}
}

// DecodeMetaOpBody reads the body of an op whose Kind is already set —
// from the sub-op's kind byte or from the op code the request arrived
// under. It is the one place wire values are checked against the op's
// domain (see MetaOp.Inval). An unknown kind poisons the decoder.
func DecodeMetaOpBody(d *rpc.Dec, op *MetaOp) {
	op.Path = d.Str()
	switch op.Kind {
	case MetaOpCreate:
		op.Mode = meta.Mode(d.U8())
		op.TimeNS = d.I64()
		op.Inval = !op.Mode.Valid()
	case MetaOpStat:
	case MetaOpRemove:
		flags := d.U8()
		op.FileOnly = flags&RemoveFileOnly != 0
		op.Inval = flags&^RemoveFileOnly != 0
	case MetaOpUpdateSize:
		op.Size = d.I64()
		flags := d.U8()
		op.TimeNS = d.I64()
		op.Truncate = flags&UpdateSizeTruncate != 0
		op.Inval = op.Size < 0 || flags&^UpdateSizeTruncate != 0
	default:
		d.Corrupt()
	}
}

// DecodeMetaOps reads what EncodeMetaOps wrote, with the same wrap-proof
// discipline as DecodeSpans: the claimed count is validated against the
// remaining buffer before any allocation, and unknown kinds poison the
// decoder.
func DecodeMetaOps(d *rpc.Dec) []MetaOp {
	n := d.U32()
	if d.Err() != nil {
		return nil
	}
	if n > MaxBatchOps || int64(n)*minMetaOpBytes > int64(d.Remaining()) {
		d.Corrupt()
		return nil
	}
	ops := make([]MetaOp, n)
	for i := range ops {
		ops[i].Kind = MetaOpKind(d.U8())
		DecodeMetaOpBody(d, &ops[i])
		if d.Err() != nil {
			return nil
		}
	}
	return ops
}

// EncodeMetaResults appends the per-op outcome vector. ops must be the
// request vector the results answer — the reply shape of each result
// depends on its op.
func EncodeMetaResults(e *rpc.Enc, ops []MetaOp, results []MetaResult) {
	e.U32(uint32(len(results)))
	for i := range results {
		EncodeMetaResult(e, &ops[i], &results[i])
	}
}

// EncodeMetaResult appends one result: [u16 errno] and, when OK, the
// body op's kind defines — which is the whole reply when op traveled
// alone.
func EncodeMetaResult(e *rpc.Enc, op *MetaOp, r *MetaResult) {
	e.U16(uint16(r.Errno))
	if r.Errno != OK {
		return
	}
	switch op.Kind {
	case MetaOpStat:
		e.Blob(r.Blob)
	case MetaOpRemove:
		e.U8(uint8(r.Mode)).I64(r.Size)
	}
}

// DecodeMetaResults reads what EncodeMetaResults wrote, against the
// request vector the caller sent. A reply whose count disagrees with the
// request poisons the decoder.
func DecodeMetaResults(d *rpc.Dec, ops []MetaOp) []MetaResult {
	n := d.U32()
	if d.Err() != nil {
		return nil
	}
	if int(n) != len(ops) {
		d.Corrupt()
		return nil
	}
	results := make([]MetaResult, 0, n)
	for i := range ops {
		r := DecodeMetaResult(d, &ops[i])
		if d.Err() != nil {
			return nil
		}
		results = append(results, r)
	}
	return results
}

// DecodeMetaResult reads one result. The shard-count preamble and the
// count check are the caller's job (see DecodeMetaResults); this is the
// per-op half for callers scattering a reply without a gathered shard.
func DecodeMetaResult(d *rpc.Dec, op *MetaOp) MetaResult {
	r := MetaResult{Errno: Errno(d.U16())}
	if r.Errno == OK {
		DecodeMetaResultBody(d, op, &r)
	}
	return r
}

// DecodeMetaResultBody reads the success body of op's result — all that
// is left of a single-op reply once its errno header has been peeled off.
func DecodeMetaResultBody(d *rpc.Dec, op *MetaOp, r *MetaResult) {
	switch op.Kind {
	case MetaOpStat:
		r.Blob = d.Blob()
	case MetaOpRemove:
		r.Mode = meta.Mode(d.U8())
		r.Size = d.I64()
	}
}
