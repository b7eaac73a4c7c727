// The metric name catalog: the names recorded into a Registry — the
// histograms and the client's metrics — are declared here; a counter a
// component keeps in a struct of its own is declared on its field
// (fields.go). Catalog joins the two. scripts/check-docs.sh runs
// `gkfs-daemon -print-metrics` (which prints it) and requires each name
// to appear in docs/OBSERVABILITY.md, so a metric cannot ship
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

// Client-side registry metrics. The rpc histograms time the full call
// round trip by family (write = OpWriteChunks, read = OpReadChunks,
// everything else meta); the wait histograms time the client-side
// queues in front of the wire (striped-connection acquire, shm segment
// allocation, async-write window admission, prefetch span fetches). The
// client's counters are the tagged fields of client.ClientStats.
const (
	ClientRPCMetaNS  = "gkfs_client_rpc_meta_ns"
	ClientRPCWriteNS = "gkfs_client_rpc_write_ns"
	ClientRPCReadNS  = "gkfs_client_rpc_read_ns"

	ClientRPCInflight = "gkfs_client_rpc_inflight"

	ClientPoolAcquireWaitNS = "gkfs_client_pool_acquire_wait_ns"
	ClientShmSegWaitNS      = "gkfs_client_shm_seg_wait_ns"
	ClientWriteStageWaitNS  = "gkfs_client_write_stage_wait_ns"
	ClientPrefetchFetchNS   = "gkfs_client_prefetch_fetch_ns"

	ClientTracesTotal = "gkfs_client_traces_total"
)

// Catalog returns every exported metric name, sorted: the registry names
// declared above plus the names the given stats structs declare on their
// fields (FieldNames). `gkfs-daemon -print-metrics` prints it for the
// daemon's structs and the client's and the doc gate checks each line.
func Catalog(tagged ...any) []string {
	names := []string{
		DaemonQueueWaitNS,
		DaemonOpPingNS, DaemonOpCreateNS, DaemonOpStatNS,
		DaemonOpRemoveMetaNS, DaemonOpUpdateSizeNS,
		DaemonOpWriteChunksNS, DaemonOpReadChunksNS,
		DaemonOpRemoveChunksNS, DaemonOpTruncateChunksNS,
		DaemonOpReadDirNS, DaemonOpStatsNS, DaemonOpBatchMetaNS,
		DaemonOpSnapshotNS, DaemonOpSnapshotListNS, DaemonOpSnapshotDropNS,

		ClientRPCMetaNS, ClientRPCWriteNS, ClientRPCReadNS,
		ClientRPCInflight,
		ClientPoolAcquireWaitNS, ClientShmSegWaitNS,
		ClientWriteStageWaitNS, ClientPrefetchFetchNS,
		ClientTracesTotal,
	}
	for _, v := range tagged {
		names = append(names, FieldNames(v)...)
	}
	sort.Strings(names)
	return names
}
