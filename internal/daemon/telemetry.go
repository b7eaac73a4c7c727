package daemon

import (
	"log/slog"
	"time"

	"repro/internal/chunkstore"
	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// opHistNames maps an RPC op to its latency-histogram metric name.
// Indexed by proto op value (1-based); index 0 is unused.
var opHistNames = [proto.OpSnapshotDrop + 1]string{
	proto.OpPing:           telemetry.DaemonOpPingNS,
	proto.OpCreate:         telemetry.DaemonOpCreateNS,
	proto.OpStat:           telemetry.DaemonOpStatNS,
	proto.OpRemoveMeta:     telemetry.DaemonOpRemoveMetaNS,
	proto.OpUpdateSize:     telemetry.DaemonOpUpdateSizeNS,
	proto.OpWriteChunks:    telemetry.DaemonOpWriteChunksNS,
	proto.OpReadChunks:     telemetry.DaemonOpReadChunksNS,
	proto.OpRemoveChunks:   telemetry.DaemonOpRemoveChunksNS,
	proto.OpTruncateChunks: telemetry.DaemonOpTruncateChunksNS,
	proto.OpReadDir:        telemetry.DaemonOpReadDirNS,
	proto.OpStats:          telemetry.DaemonOpStatsNS,
	proto.OpBatchMeta:      telemetry.DaemonOpBatchMetaNS,
	proto.OpSnapshot:       telemetry.DaemonOpSnapshotNS,
	proto.OpSnapshotList:   telemetry.DaemonOpSnapshotListNS,
	proto.OpSnapshotDrop:   telemetry.DaemonOpSnapshotDropNS,
}

// initTelemetry builds the daemon's always-on metrics registry and
// installs the dispatch observer. Histograms are pre-resolved into an
// op-indexed array so the per-RPC record path is two atomic adds and
// no map lookups.
func (d *Daemon) initTelemetry() {
	d.reg = telemetry.NewRegistry()
	d.queueHist = d.reg.Histogram(telemetry.DaemonQueueWaitNS)
	for op, name := range opHistNames {
		if name != "" {
			d.opHists[op] = d.reg.Histogram(name)
		}
	}
	d.reg.GaugeFunc(telemetry.ChunkOpenHandles, func() int64 { return int64(d.chunks.OpenStats().Open) })
	d.srv.SetObserver(d.observe)
}

// observe is the rpc.Server dispatch observer: it records the queue
// wait and per-op handle time, and emits the server half of a sampled
// trace as a structured log event carrying the client's trace ID.
func (d *Daemon) observe(op rpc.Op, tr rpc.Trace, queueWait, handle time.Duration, err error) {
	d.queueHist.Observe(int64(queueWait))
	if int(op) < len(d.opHists) {
		d.opHists[op].Observe(int64(handle))
	}
	if tr.ID == 0 {
		return
	}
	attrs := []any{
		slog.String("trace", traceHex(tr.ID)),
		slog.String("side", "daemon"),
		slog.Int("daemon", d.cfg.ID),
		slog.String("op", proto.OpName(op)),
		slog.Int64("queue_wait_ns", int64(queueWait)),
		slog.Int64("handle_ns", int64(handle)),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	slog.Info("gkfs.trace", attrs...)
}

// traceHex renders a trace ID the way both ends log it, so one grep
// finds the client and daemon halves of a span.
func traceHex(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// Telemetry returns the daemon's metrics registry (never nil), for the
// process hosting the daemon to expose over HTTP.
func (d *Daemon) Telemetry() *telemetry.Registry { return d.reg }

// KVStats snapshots the metadata store's engine counters. They are local
// to the process hosting the daemon (its /metrics endpoint); the stats
// RPC does not carry them.
func (d *Daemon) KVStats() kvstore.Stats { return d.db.Stats() }

// ChunkOpenStats snapshots the chunk store's open-chunk cache counters:
// process-local like KVStats, and for the same reason not on the wire.
func (d *Daemon) ChunkOpenStats() chunkstore.OpenStats { return d.chunks.OpenStats() }

// StatsExt snapshots the daemon's latency histograms in the wire shape
// the OpStats reply appends after the fixed counters. Only histograms
// with samples are included — an idle daemon's stats reply stays small.
func (d *Daemon) StatsExt() proto.StatsExt {
	var ext proto.StatsExt
	add := func(name string, h *telemetry.Histogram) {
		if s := h.Snapshot(); s.Count > 0 {
			ext.Ops = append(ext.Ops, proto.OpHist{Name: name, Hist: s})
		}
	}
	add(telemetry.DaemonQueueWaitNS, d.queueHist)
	for op, name := range opHistNames {
		if name != "" {
			add(name, d.opHists[op])
		}
	}
	return ext
}
