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

// ProtocolVersion is the client↔daemon wire protocol generation. Daemons
// report it in every OpPing reply (appended after the daemon ID) and
// clients verify it at mount time (client.VerifyProtocol): the frame
// formats carry no per-message version tag, so a deployment must run
// clients and daemons of the same generation — which a per-job file
// system, shipping both ends from one build, always does. Generations
// 3–8 each appended trailing-optional fields (3: ReadWantSize size view
// and the versioned ping, 4: read-span counters, 5: shm doorbell
// advertisement and wire counters, 6: WriteReplica and ReplicaWrites,
// 7: the frame trace trailer and stats histograms, 8: snapshot ops and the epoch
// extensions on OpStat/OpReadDir/OpReadChunks). Version 9 began retiring
// the optionality: OpReadChunks and OpWriteChunks requests have exactly
// one shape — path, spans, a flags byte, and the epoch when ReadAtEpoch
// is set. Version 10 finishes it for every payload — OpStat and
// OpReadDir requests always end in their flags byte, and the ping reply
// and the OpStats reply are decoded whole — and
// gives the two transports one frame: a shm doorbell frame is the TCP
// frame with dirRefFlag set and a [u64 segOff] where the bulk bytes would
// be (transport/stream.go). Only the frame trace trailer is still
// optional, announced by its own flag bit. Version 11 gives the metadata plane one body codec per operation
// kind: a single-op request (OpCreate, OpStat, OpRemoveMeta,
// OpUpdateSize) is byte for byte the OpBatchMeta sub-op without its kind
// byte, and its reply is the sub-op's result. The stat sub-op so gains
// OpStat's [u8 flags][u64 epoch] tail; out-of-domain field values (a mode
// that is no object kind, a negative size, unknown flag bits) answer
// ErrnoInval per op instead of poisoning the frame. Version 12 is
// version 11 plus one field: the ping reply ends in the daemon's
// effective chunk size ([u32 id][u16 version][str shm][i64 chunk]), so a
// mount learns the chunk size from the daemons instead of being told it,
// and refuses a daemon whose chunk size or ID is not what the daemon list
// implies (client.VerifyProtocol). Version 13 makes the OpStats reply the
// daemon's telemetry snapshot itself — name-tagged counters, gauges and
// histograms (EncodeSnapshot) — in place of 25 positional counters and a
// histogram extension: what the RPC carries is what /statz serves.
const ProtocolVersion uint16 = 13

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
	// daemon; data travels in the bulk region (daemon pulls).
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
	// OpSnapshot drives the two-phase epoch pin on one daemon: reserve
	// proposes an epoch for a tag, commit durably records the
	// cluster-agreed epoch and advances the daemon's write epoch, abort
	// discards a reservation. The client fans the phases across every
	// daemon — daemons never talk to each other.
	OpSnapshot
	// OpSnapshotList returns the daemon's committed tags with their
	// pinned epochs.
	OpSnapshotList
	// OpSnapshotDrop deletes a committed or pending tag and garbage
	// collects the versions and chunk pre-images only that tag retained.
	OpSnapshotDrop
)

// opNames gives ops human names for trace events, metric tables and
// tooling output. Indexed by op value.
var opNames = [OpSnapshotDrop + 1]string{
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
	OpSnapshot:       "snapshot",
	OpSnapshotList:   "snapshot_list",
	OpSnapshotDrop:   "snapshot_drop",
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

var errnoToErr = map[Errno]error{
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
	if err, ok := errnoToErr[e]; ok {
		return err
	}
	return fmt.Errorf("gekkofs: errno %d", uint16(e))
}

// ErrnoOf maps a Go error to its wire code; nil maps to OK. Unknown
// errors map to ErrnoInval (daemons convert unexpected errors to
// rpc.RemoteError before this is consulted).
func ErrnoOf(err error) Errno {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, ErrNotExist):
		return ErrnoNotExist
	case errors.Is(err, ErrExist):
		return ErrnoExist
	case errors.Is(err, ErrIsDir):
		return ErrnoIsDir
	case errors.Is(err, ErrNotDir):
		return ErrnoNotDir
	case errors.Is(err, ErrNotEmpty):
		return ErrnoNotEmpty
	default:
		return ErrnoInval
	}
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

// ReadAtEpoch is the OpReadChunks request flag bit asking the daemon to
// serve the spans as of a pinned snapshot epoch: a [u64 epoch] follows
// the flags byte when set, and the daemon resolves each chunk through
// its retained pre-images so bytes written after the pin are invisible.
// The size view piggybacked by ReadWantSize is likewise resolved at the
// epoch.
const ReadAtEpoch uint8 = 1 << 1

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

// WriteReplica is the OpWriteChunks request flag bit (the u8 flags field
// after the span vector) marking the write as a non-primary replica copy.
// The daemon stores it exactly like a primary write — the bit only feeds
// the ReplicaWrites counter, so replication overhead is observable per
// daemon without changing the storage path.
const WriteReplica uint8 = 1 << 0

// RemoveFileOnly is the OpRemoveMeta flag bit asking the daemon to refuse
// directories with ErrnoIsDir instead of deleting them. It lets a client
// unlink a regular file in a single RPC — no leading stat to find out
// whether the path is a directory — and fall back to the directory
// protocol only when the daemon says so.
const RemoveFileOnly uint8 = 1 << 0

// UpdateSizeTruncate is the OpUpdateSize flag bit selecting set-exactly
// (truncate) over grow.
const UpdateSizeTruncate uint8 = 1 << 0

// OpStat and OpReadDir request flag bits (the u8 every such request
// ends in, followed by the epoch when StatAtEpoch is set).
const (
	// StatAtEpoch: a [u64 epoch] follows the flags byte and the daemon
	// resolves the record as of that snapshot epoch instead of live.
	StatAtEpoch uint8 = 1 << 0
	// StatWantVersions: the reply appends the record's full version
	// history after the resolved metadata blob — [u32 n] then, newest
	// first, [u64 epoch][u8 flags][25-byte payload when live]. The
	// vkv-style Versions accessor rides on this bit.
	StatWantVersions uint8 = 1 << 1
)

// OpSnapshot phases (the leading u8 of the request). The pin is
// two-phase and client-driven: reserve at every metadata owner to learn
// the cluster-maximum epoch, then commit that epoch everywhere. A
// daemon that fails reserve aborts the tag on the daemons that already
// took it.
const (
	// SnapReserve proposes tag; the reply carries the epoch this daemon
	// would pin ([u64 epoch]).
	SnapReserve uint8 = 1
	// SnapCommit finalizes tag at the cluster-agreed epoch
	// ([u64 epoch] follows the tag) and advances the daemon's write
	// epoch past it; the reply echoes the pinned epoch.
	SnapCommit uint8 = 2
	// SnapAbort discards a reservation; committed tags are untouched.
	SnapAbort uint8 = 3
)

// MaxSnapshotTag bounds a snapshot tag's length on the wire, keeping
// tag state keys and reply frames small.
const MaxSnapshotTag = 255

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
	// prefetch-heavy workload shows large spans per op, and a chunk-cache
	// hit moves no wire bytes at all, so cache hit rates appear as
	// logical reads outpacing ReadBytes (see gkfs-shell stats).
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
	// ReplicaWrites counts OpWriteChunks calls carrying the WriteReplica
	// flag — chunk copies stored on behalf of replication rather than
	// primary placement. WriteOps counts primaries and replicas alike, so
	// WriteOps−ReplicaWrites is the primary write load.
	ReplicaWrites uint64 `metric:"gkfs_daemon_replica_writes_total"`
	// SnapshotPins counts committed epoch pins (OpSnapshot commits) and
	// SnapshotDrops dropped tags. SnapshotReads counts epoch-pinned
	// reads served (stat/readdir/chunk reads carrying an epoch).
	// CowCopies and CowBytes count chunk pre-images preserved by
	// copy-on-write before a post-pin overwrite, and the bytes they
	// hold — the physical cost of keeping snapshots readable (kept by
	// the chunk store; Daemon.Stats copies them in).
	SnapshotPins  uint64 `metric:"gkfs_daemon_snapshot_pins_total"`
	SnapshotDrops uint64 `metric:"gkfs_daemon_snapshot_drops_total"`
	SnapshotReads uint64 `metric:"gkfs_daemon_snapshot_reads_total"`
	CowCopies     uint64 `metric:"gkfs_daemon_snapshot_cow_copies_total"`
	CowBytes      uint64 `metric:"gkfs_daemon_snapshot_cow_bytes_total"`
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
	// MetaOpStat fetches a record, live or at a pinned epoch.
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
	// Flags are MetaOpStat's request flags (StatAtEpoch,
	// StatWantVersions); the zero value asks for the live record.
	Flags uint8
	// Epoch is the epoch MetaOpStat resolves the record at. On the wire
	// it follows the flags when StatAtEpoch is set; a decoded op without
	// the bit carries meta.LiveEpoch, so the daemon never asks which it
	// was.
	Epoch uint64
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
	// Versions is the record's stored history, newest first (MetaOpStat
	// with StatWantVersions only).
	Versions []meta.Version
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
	case MetaOpStat:
		EncodeEpochTail(e, op.Flags, op.Epoch)
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

// EncodeEpochTail appends the [u8 flags][u64 epoch, with StatAtEpoch]
// tail stat and readdir requests end in.
func EncodeEpochTail(e *rpc.Enc, flags uint8, epoch uint64) {
	e.U8(flags)
	if flags&StatAtEpoch != 0 {
		e.U64(epoch)
	}
}

// DecodeEpochTail reads what EncodeEpochTail wrote; without StatAtEpoch
// the epoch is meta.LiveEpoch.
func DecodeEpochTail(d *rpc.Dec) (flags uint8, epoch uint64) {
	flags, epoch = d.U8(), meta.LiveEpoch
	if flags&StatAtEpoch != 0 {
		epoch = d.U64()
	}
	return flags, epoch
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
		op.Flags, op.Epoch = DecodeEpochTail(d)
		op.Inval = op.Flags&^(StatAtEpoch|StatWantVersions) != 0
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
		if op.Flags&StatWantVersions != 0 {
			EncodeVersions(e, r.Versions)
		}
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
		if op.Flags&StatWantVersions != 0 {
			r.Versions = DecodeVersions(d)
		}
	case MetaOpRemove:
		r.Mode = meta.Mode(d.U8())
		r.Size = d.I64()
	}
}
