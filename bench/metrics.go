package main

// The metric catalogue: every metric the benchmark prints is declared
// here once. BENCHMARK.json, README.md and the smoke test are all
// checked against it (bench_test.go), so a metric cannot be printed
// without being documented or documented without being printed.

// How a metric is obtained:
//
//	R  measured by the closed-loop driver around client calls
//	T  derived from the spans of the traced pass
//	P  a probe calling the layer's public functions directly
//	C  delta of counters the program already exports (Daemon.Stats,
//	   Daemon.Telemetry) over the untraced pass

// metricDef describes one metric; the comment behind each entry says how
// it is obtained (see the legend below) and what it measures.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the file system would see, printed
// by every workload of an untraced run. None of them can be zero.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},   // R: verified client operations completed per second of the timed window (one loop iteration = one operation)
	{"op_p50_us", "us", "lower", 0.25},     // R: median time an application thread is blocked in one operation
	{"op_p95_us", "us", "lower", 0.25},     // R: 95th percentile of the same distribution
	{"cpu_us_per_op", "us", "lower", 0.25}, // R: process user+system CPU time over the window divided by operations (daemons share the compute node with the application)
	{"setup_s", "s", "lower", 0.25},        // R: deploy two daemons + dial + mount + prime the 30 000-file namespace + mount the workers, all RPC and kvstore work; median of the run's five set-ups
}

// perLayer are the single-layer metrics of a traced run (--trace 1).
// They carry no bound; README.md says which end-to-end metric each one
// should move, and on which workload.
var perLayer = []metricDef{
	{"client.mib_per_s", "MiB/s", "higher", 0},                  // R: payload bytes moved per second (0 on meta_churn)
	{"client.failed_share", "share", "lower", 0},                // R: failed, short or wrong-bytes operations over attempted
	{"client.fill_mib_per_s", "MiB/s", "higher", 0},             // R: rate at which the fill after set-up wrote the workload's fresh data files: write-behind 1 MiB writes, new chunk files, first-touch page cache (0 on meta_churn)
	{"client.op_self_us", "us", "lower", 0},                     // T: mean client-call time not covered by a transport call it issued
	{"client.rpcs_per_op", "count", "lower", 0},                 // T: transport calls per operation
	{"client.wire_bytes_per_payload_byte", "ratio", "lower", 0}, // T: request+bulk+reply bytes handed to the transport per payload byte (0 without payload)
	{"client.stage_wait_us", "us", "lower", 0},                  // T: mean time blocked inside an async Write: staging copy plus window admission (0 on sync clients)
	{"client.barrier_ms", "ms", "lower", 0},                     // T: mean Fsync+Close duration (0 where no barrier runs)
	{"client.cache_hit_share", "share", "higher", 0},            // T: reads that issued no transport call
	{"client.create_p50_us", "us", "lower", 0},                  // T: median Create(+Close) call
	{"client.stat_p50_us", "us", "lower", 0},                    // T: median Stat call
	{"client.remove_p50_us", "us", "lower", 0},                  // T: median Remove call
	{"client.read_p50_us", "us", "lower", 0},                    // T: median ReadAt call
	{"client.write_p50_us", "us", "lower", 0},                   // T: median Write/WriteAt call
	{"client.op_p99_us", "us", "lower", 0},                      // T: 99th percentile operation latency of the traced pass

	{"transport.call_meta_us", "us", "lower", 0},       // T: mean round trip of metadata RPCs
	{"transport.call_write_us", "us", "lower", 0},      // T: mean round trip of OpWriteChunks
	{"transport.call_read_us", "us", "lower", 0},       // T: mean round trip of OpReadChunks
	{"transport.self_us", "us", "lower", 0},            // T: mean call time minus the daemon's queue wait and handle time: framing, syscalls, wire, wake-ups
	{"transport.ping_rtt_us", "us", "lower", 0},        // P: empty call against a no-op handler on a bare rpc.Server over loopback TCP
	{"transport.bulk_in_gib_s", "GiB/s", "higher", 0},  // P: 512 KiB BulkIn calls against a no-op handler
	{"transport.bulk_out_gib_s", "GiB/s", "higher", 0}, // P: 512 KiB BulkOut calls against a no-op handler
	{"transport.frames_per_op", "count", "lower", 0},   // C: frames in+out on both daemons per operation
	{"transport.wire_bytes_per_op", "B", "lower", 0},   // C: socket bytes in+out on both daemons per operation

	{"rpc.queue_wait_us", "us", "lower", 0}, // C: mean wait for a handler-pool slot
	{"rpc.dispatch_ns", "ns", "lower", 0},   // P: Server.Dispatch of a no-op handler

	{"daemon.handle_meta_us", "us", "lower", 0},  // C: mean handler time of metadata ops
	{"daemon.handle_write_us", "us", "lower", 0}, // C: mean handler time of OpWriteChunks
	{"daemon.handle_read_us", "us", "lower", 0},  // C: mean handler time of OpReadChunks
	{"daemon.handler_self_us", "us", "lower", 0}, // T: mean handler time minus the vfs time spent under it

	{"kvstore.put_us", "us", "lower", 0},               // P: DB.PutIfAbsent of a 25-byte record
	{"kvstore.get_us", "us", "lower", 0},               // P: DB.Get of an existing key
	{"kvstore.delete_us", "us", "lower", 0},            // P: DB.Delete
	{"kvstore.merge_us", "us", "lower", 0},             // P: DB.Merge of a size operand
	{"kvstore.wal_bytes_per_op", "B", "lower", 0},      // T: bytes appended to meta/wal-* per operation
	{"kvstore.sst_files_created", "count", "lower", 0}, // T: SSTables created during the traced window
	{"kvstore.vfs_busy_share", "share", "lower", 0},    // T: share of daemon wall time with a vfs call under meta/ in progress

	{"meta.encode_ns", "ns", "lower", 0}, // P: VersionedMeta.Encode
	{"meta.decode_ns", "ns", "lower", 0}, // P: DecodeVersionedMeta

	{"chunkstore.write_512k_us", "us", "lower", 0},             // P: Store.WriteChunk of a whole chunk
	{"chunkstore.read_512k_us", "us", "lower", 0},              // P: Store.ReadChunk of a whole chunk
	{"chunkstore.write_8k_us", "us", "lower", 0},               // P: Store.WriteChunk of 8 KiB inside a chunk
	{"chunkstore.read_8k_us", "us", "lower", 0},                // P: Store.ReadChunk of 8 KiB inside a chunk
	{"chunkstore.vfs_calls_per_chunk_op", "count", "lower", 0}, // T: vfs calls under chunks/ per chunk file opened
	{"chunkstore.vfs_busy_share", "share", "lower", 0},         // T: share of daemon wall time with a vfs call under chunks/ in progress

	{"vfs.write_us", "us", "lower", 0},      // T: mean WriteAt/Append
	{"vfs.read_us", "us", "lower", 0},       // T: mean ReadAt
	{"vfs.sync_count", "count", "lower", 0}, // T: Sync calls during the traced window

	{"distributor.load_skew", "ratio", "lower", 0}, // C: max over mean of socket bytes per daemon
	{"telemetry.observe_ns", "ns", "lower", 0},     // P: Histogram.Observe

	{"ceiling.memcpy_gib_s", "GiB/s", "higher", 0},          // P: copy between two 64 MiB buffers
	{"ceiling.loopback_tcp_gib_s", "GiB/s", "higher", 0},    // P: one raw loopback TCP stream, 1 MiB writes
	{"ceiling.loopback_rtt_us", "us", "lower", 0},           // P: one-byte ping-pong over raw loopback TCP
	{"ceiling.pwrite_gib_s", "GiB/s", "higher", 0},          // P: 512 KiB pwrite into a file on the backing directory
	{"ceiling.pread_gib_s", "GiB/s", "higher", 0},           // P: 512 KiB pread of the same file
	{"ceiling.stream_write_fraction", "share", "higher", 0}, // R: client.mib_per_s over min(loopback, pwrite); read it on stream_write
	{"ceiling.stream_read_fraction", "share", "higher", 0},  // R: client.mib_per_s over min(loopback, pread); read it on stream_read

	{"process.peak_rss_mib", "MiB", "lower", 0},        // R: peak resident set of the process
	{"process.alloc_bytes_per_op", "B", "lower", 0},    // R: heap bytes allocated per operation over the untraced window
	{"process.allocs_per_op", "count", "lower", 0},     // R: heap objects allocated per operation over the untraced window
	{"process.gc_pause_ms", "ms", "lower", 0},          // R: total GC stop-the-world pause over the untraced window
	{"process.goroutines_leaked", "count", "lower", 0}, // R: goroutines alive after teardown beyond those alive at start

	{"trace.overhead_share", "share", "lower", 0},     // T: 1 - traced ops/s over untraced ops/s of the same run
	{"trace.unattributed_share", "share", "lower", 0}, // T: worker wall time outside any client-call span: input generation and verification
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and fills in the unit from defs.
type metricSet map[string]float64

// render turns the set into the JSON shape of the result line, in the
// catalogue's units. A metric missing from the set is a bug in the
// benchmark and is reported as such.
func (m metricSet) render(defs []metricDef) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}
