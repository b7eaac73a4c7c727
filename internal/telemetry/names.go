// The metric name catalog: every name this repo can export through a
// Registry or the daemon's /metrics endpoint is declared here, and
// Catalog returns the complete list. scripts/check-docs.sh runs
// `gkfs-daemon -print-metrics` (which prints Catalog) and requires each
// name to appear in docs/OBSERVABILITY.md, so a metric cannot ship
// undocumented.
package telemetry

import "sort"

// Daemon-side histograms (nanoseconds). The queue-wait histogram times
// the dispatch pool admission (Margo handler-stream saturation); the
// per-op histograms time the handler body itself.
const (
	DaemonQueueWaitNS = "gkfs_daemon_rpc_queue_wait_ns"

	DaemonOpPingNS           = "gkfs_daemon_op_ping_ns"
	DaemonOpCreateNS         = "gkfs_daemon_op_create_ns"
	DaemonOpStatNS           = "gkfs_daemon_op_stat_ns"
	DaemonOpRemoveMetaNS     = "gkfs_daemon_op_remove_meta_ns"
	DaemonOpUpdateSizeNS     = "gkfs_daemon_op_update_size_ns"
	DaemonOpWriteChunksNS    = "gkfs_daemon_op_write_chunks_ns"
	DaemonOpReadChunksNS     = "gkfs_daemon_op_read_chunks_ns"
	DaemonOpRemoveChunksNS   = "gkfs_daemon_op_remove_chunks_ns"
	DaemonOpTruncateChunksNS = "gkfs_daemon_op_truncate_chunks_ns"
	DaemonOpReadDirNS        = "gkfs_daemon_op_readdir_ns"
	DaemonOpStatsNS          = "gkfs_daemon_op_stats_ns"
	DaemonOpBatchMetaNS      = "gkfs_daemon_op_batch_meta_ns"
	DaemonOpSnapshotNS       = "gkfs_daemon_op_snapshot_ns"
	DaemonOpSnapshotListNS   = "gkfs_daemon_op_snapshot_list_ns"
	DaemonOpSnapshotDropNS   = "gkfs_daemon_op_snapshot_drop_ns"
)

// Metadata-store counters (kvstore.Stats), exported by gkfs-daemon next
// to the operation counters. Folds are merge operands stored as the
// folded put at insert; resolves are the folds that had to look the base
// up below the active memtable because a key's merge run reached its
// bound — a resolve rate near the fold rate means hot keys keep losing
// their base to memtable rotation.
const (
	KVMergeFoldsTotal    = "gkfs_kv_merge_folds_total"
	KVMergeResolvesTotal = "gkfs_kv_merge_resolves_total"
	KVFlushesTotal       = "gkfs_kv_flushes_total"
	KVCompactionsTotal   = "gkfs_kv_compactions_total"
)

// Chunk-store open-chunk cache counters (chunkstore.OpenStats), exported
// the same way. A hit is a chunk I/O that found its file already open —
// one data syscall; a miss opened it; an eviction closed the least
// recently used handle to stay within the bound. Hits near zero with
// evictions tracking misses is streaming (every chunk touched once);
// the same picture on a small-I/O workload means its hot set outgrew
// the cache. ChunkOpenHandles is the gauge the bound applies to.
const (
	ChunkOpenHitsTotal      = "gkfs_chunk_open_hits_total"
	ChunkOpenMissesTotal    = "gkfs_chunk_open_misses_total"
	ChunkOpenEvictionsTotal = "gkfs_chunk_open_evictions_total"
	ChunkOpenHandles        = "gkfs_chunk_open_handles"
)

// Client-side metrics. The rpc histograms time the full call round
// trip by family (write = OpWriteChunks, read = OpReadChunks,
// everything else meta); the wait histograms time the client-side
// queues in front of the wire (striped-connection acquire, shm segment
// allocation, async-write window admission, prefetch span fetches).
const (
	ClientRPCMetaNS  = "gkfs_client_rpc_meta_ns"
	ClientRPCWriteNS = "gkfs_client_rpc_write_ns"
	ClientRPCReadNS  = "gkfs_client_rpc_read_ns"

	ClientRPCInflight = "gkfs_client_rpc_inflight"

	ClientPoolAcquireWaitNS = "gkfs_client_pool_acquire_wait_ns"
	ClientShmSegWaitNS      = "gkfs_client_shm_seg_wait_ns"
	ClientWriteStageWaitNS  = "gkfs_client_write_stage_wait_ns"
	ClientPrefetchFetchNS   = "gkfs_client_prefetch_fetch_ns"

	ClientHedgedReadsTotal   = "gkfs_client_hedged_reads_total"
	ClientFailoverReadsTotal = "gkfs_client_failover_reads_total"
	ClientReplicaWritesTotal = "gkfs_client_replica_writes_total"
	ClientTracesTotal        = "gkfs_client_traces_total"
)

// DaemonStatNames are the /metrics names of the daemon's cumulative
// operation counters, in proto.DaemonStats wire order — the zip key
// for proto.(DaemonStats).Values. Keep the two orders identical.
var DaemonStatNames = []string{
	"gkfs_daemon_creates_total",
	"gkfs_daemon_stat_ops_total",
	"gkfs_daemon_removes_total",
	"gkfs_daemon_size_updates_total",
	"gkfs_daemon_write_ops_total",
	"gkfs_daemon_read_ops_total",
	"gkfs_daemon_write_bytes_total",
	"gkfs_daemon_read_bytes_total",
	"gkfs_daemon_read_spans_total",
	"gkfs_daemon_read_bytes_pushed_total",
	"gkfs_daemon_read_dirs_total",
	"gkfs_daemon_batch_rpcs_total",
	"gkfs_daemon_batched_ops_total",
	"gkfs_daemon_frames_in_total",
	"gkfs_daemon_frames_out_total",
	"gkfs_daemon_wire_bytes_in_total",
	"gkfs_daemon_wire_bytes_out_total",
	"gkfs_daemon_vectored_writes_total",
	"gkfs_daemon_shm_calls_total",
	"gkfs_daemon_replica_writes_total",
	"gkfs_daemon_snapshot_pins_total",
	"gkfs_daemon_snapshot_drops_total",
	"gkfs_daemon_snapshot_reads_total",
	"gkfs_daemon_snapshot_cow_copies_total",
	"gkfs_daemon_snapshot_cow_bytes_total",
}

// Catalog returns every exported metric name, sorted: the registry and
// metadata-store names above plus the DaemonStats-derived counters. This
// is what `gkfs-daemon -print-metrics` prints and what the doc gate
// checks.
func Catalog() []string {
	names := []string{
		DaemonQueueWaitNS,
		DaemonOpPingNS, DaemonOpCreateNS, DaemonOpStatNS,
		DaemonOpRemoveMetaNS, DaemonOpUpdateSizeNS,
		DaemonOpWriteChunksNS, DaemonOpReadChunksNS,
		DaemonOpRemoveChunksNS, DaemonOpTruncateChunksNS,
		DaemonOpReadDirNS, DaemonOpStatsNS, DaemonOpBatchMetaNS,
		DaemonOpSnapshotNS, DaemonOpSnapshotListNS, DaemonOpSnapshotDropNS,

		KVMergeFoldsTotal, KVMergeResolvesTotal, KVFlushesTotal, KVCompactionsTotal,

		ChunkOpenHitsTotal, ChunkOpenMissesTotal, ChunkOpenEvictionsTotal, ChunkOpenHandles,

		ClientRPCMetaNS, ClientRPCWriteNS, ClientRPCReadNS,
		ClientRPCInflight,
		ClientPoolAcquireWaitNS, ClientShmSegWaitNS,
		ClientWriteStageWaitNS, ClientPrefetchFetchNS,
		ClientHedgedReadsTotal, ClientFailoverReadsTotal,
		ClientReplicaWritesTotal, ClientTracesTotal,
	}
	names = append(names, DaemonStatNames...)
	sort.Strings(names)
	return names
}
