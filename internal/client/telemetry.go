package client

import (
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// DefaultTraceSample is the default sampling interval: one RPC in 1024
// carries a trace ID over the wire and is logged on both ends. Cheap
// enough to leave on, frequent enough to always have recent spans.
const DefaultTraceSample = 1024

// clientTelemetry is the client's metric set, resolved once at New so
// the per-RPC record path does no map lookups. All pointers are nil
// when telemetry is disabled — every record call is then a single
// branch (the metrics are nil-receiver-safe).
type clientTelemetry struct {
	reg *telemetry.Registry

	metaHist  *telemetry.Histogram // round-trip, metadata ops
	writeHist *telemetry.Histogram // round-trip, OpWriteChunks
	readHist  *telemetry.Histogram // round-trip, OpReadChunks
	stageWait *telemetry.Histogram // write-behind window admission wait
	prefetch  *telemetry.Histogram // read-ahead span fetch duration
	inflight  *telemetry.Gauge
	traces    *telemetry.Counter

	// Trace sampling: every sample-th RPC (counted by seq) is traced.
	// IDs are a splitmix64 walk from a per-client random seed, so
	// concurrent clients on one node emit distinct, greppable IDs.
	sample uint64
	seed   uint64
	seq    atomic.Uint64
}

// initTelemetry resolves the client metric set against reg, folds the
// ClientStats counters into its snapshots by their tags, and wires the
// transport-level histograms into the connection pools. sample <= 0
// selects DefaultTraceSample; reg == nil leaves everything disabled.
func (c *Client) initTelemetry(reg *telemetry.Registry, sample int) {
	if reg == nil {
		return
	}
	if sample <= 0 {
		sample = DefaultTraceSample
	}
	c.tel = clientTelemetry{
		reg:       reg,
		metaHist:  reg.Histogram(telemetry.ClientRPCMetaNS),
		writeHist: reg.Histogram(telemetry.ClientRPCWriteNS),
		readHist:  reg.Histogram(telemetry.ClientRPCReadNS),
		stageWait: reg.Histogram(telemetry.ClientWriteStageWaitNS),
		prefetch:  reg.Histogram(telemetry.ClientPrefetchFetchNS),
		inflight:  reg.Gauge(telemetry.ClientRPCInflight),
		traces:    reg.Counter(telemetry.ClientTracesTotal),
		sample:    uint64(sample),
		seed:      uint64(time.Now().UnixNano()),
	}
	reg.Collect(func(s *telemetry.Snapshot) { s.Fold(c.Stats()) })
	acquire := reg.Histogram(telemetry.ClientPoolAcquireWaitNS)
	segWait := reg.Histogram(telemetry.ClientShmSegWaitNS)
	for _, conn := range c.cfg.Conns {
		if p, ok := conn.(interface {
			SetAcquireHist(*telemetry.Histogram)
		}); ok {
			p.SetAcquireHist(acquire)
		}
		hookSegWait(conn, segWait)
		if p, ok := conn.(interface{ SetConnHook(func(rpc.Conn)) }); ok {
			p.SetConnHook(func(inner rpc.Conn) { hookSegWait(inner, segWait) })
		}
	}
}

// hookSegWait installs the segment-wait histogram on connections that
// have one (the shared-memory transport). Pools apply it to every
// lazily dialed connection through their conn hook.
func hookSegWait(conn rpc.Conn, h *telemetry.Histogram) {
	if s, ok := conn.(interface {
		SetSegWaitHist(*telemetry.Histogram)
	}); ok {
		s.SetSegWaitHist(h)
	}
}

// rpcHist maps an op to its client round-trip histogram family: bulk
// writes, bulk reads, everything else metadata.
func (t *clientTelemetry) rpcHist(op rpc.Op) *telemetry.Histogram {
	switch op {
	case proto.OpWriteChunks:
		return t.writeHist
	case proto.OpReadChunks:
		return t.readHist
	default:
		return t.metaHist
	}
}

// nextTrace decides whether this RPC is sampled, minting its wire ID
// if so. Unsampled calls cost one atomic add.
func (c *Client) nextTrace() rpc.Trace {
	if c.tel.reg == nil {
		return rpc.Trace{}
	}
	n := c.tel.seq.Add(1)
	if n%c.tel.sample != 0 {
		return rpc.Trace{}
	}
	id := splitmix64(c.tel.seed + n)
	if id == 0 {
		id = 1 // 0 means unsampled on the wire
	}
	return rpc.Trace{ID: id, Flags: rpc.TraceSampled}
}

// stageWait blocks on a write-behind window slot, timing the wait (the
// pipeline's backpressure signal) when telemetry is on.
func (c *Client) stageWait(pl *pipeline) {
	if c.tel.stageWait == nil {
		pl.slots <- struct{}{}
		return
	}
	t0 := time.Now()
	pl.slots <- struct{}{}
	c.tel.stageWait.ObserveSince(t0)
}

// emitTrace logs the client half of a sampled span. The daemon logs
// the matching half under the same hex trace ID.
func (c *Client) emitTrace(node int, op rpc.Op, tr rpc.Trace, elapsed time.Duration, err error) {
	c.tel.traces.Inc()
	attrs := []any{
		slog.String("trace", traceHex(tr.ID)),
		slog.String("side", "client"),
		slog.Int("node", node),
		slog.String("op", proto.OpName(op)),
		slog.Int64("rtt_ns", int64(elapsed)),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	slog.Info("gkfs.trace", attrs...)
}

// splitmix64 is the finalizer of the splitmix64 generator — a cheap
// bijective scramble turning the sequential sample counter into
// well-spread trace IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// traceHex renders a trace ID exactly like the daemon side does, so a
// single grep finds both halves of a span.
func traceHex(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}
