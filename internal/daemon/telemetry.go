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
var opHistNames = [proto.OpEnd]string{
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
// no map lookups. Every counter lives in the struct of the tier that
// keeps it — the daemon's own, the wire's and COW's (Stats), the
// metadata store's, the open-chunk cache's — and joins the registry's
// snapshot here, by the names its fields declare: that snapshot is what
// /metrics, /statz and the OpStats reply all serve.
func (d *Daemon) initTelemetry() {
	d.reg = telemetry.NewRegistry()
	d.queueHist = d.reg.Histogram(telemetry.DaemonQueueWaitNS)
	for op, name := range opHistNames {
		if name != "" {
			d.opHists[op] = d.reg.Histogram(name)
		}
	}
	d.reg.Collect(func(s *telemetry.Snapshot) {
		s.Fold(d.Stats())
		s.Fold(d.db.Stats())
		s.Fold(d.chunks.OpenStats())
	})
	d.srv.SetObserver(d.observe)
}

// Catalog returns every metric name this build exports, sorted: the
// registry names plus the fields of the structs initTelemetry folds in
// and of extra (gkfs-daemon passes the client's, so one catalog covers
// the repo).
func Catalog(extra ...any) []string {
	return telemetry.Catalog(append([]any{Stats{}, kvstore.Stats{}, chunkstore.OpenStats{}}, extra...)...)
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
