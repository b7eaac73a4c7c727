package client

// Replica chains, daemon health and failover policy — what the span-group
// executors (io.go: readGroup, writeGroup) consult. Every chunk has a
// replica chain of Config.Replicas = R daemons (distributor.ChunkReplicas:
// the primary plus R−1 ring successors); writes fan out to the chain's
// live members, and reads prefer the primary but hedge to the next
// replica when the first RPC outlives the daemon's tracked p95 latency —
// the classic tail-at-scale move — or fails outright. A per-mount
// condemnation list routes both demand reads and read-ahead around
// daemons that accumulated condemnStrikes consecutive transport errors;
// condemned daemons are re-probed in the background (reprobe) and rejoin
// when they answer again as the daemon they were. Metadata is NOT
// replicated — only chunk data survives a daemon loss; a file whose
// metadata owner dies keeps serving reads on descriptors that already
// resolved, but stats and opens on it fail until the daemon returns.
//
// An unreplicated mount (R ≤ 1) runs the same executors over chains of
// one. A chain of one offers nothing to hedge to, fan out to or route
// around, so its daemon is never struck or condemned (tracked) and the
// executors reduce to a single in-place RPC — the unreplicated protocol's
// frames and RPC counts, produced by the replicated code.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// ErrDegraded reports an I/O that found no live replica for a needed
// chunk: every daemon of the chunk's replica chain is condemned or
// failed the RPC at the transport level. It surfaces only then — losing
// up to R−1 replicas of a chunk degrades silently.
var ErrDegraded = errors.New("gekkofs: degraded: no live replica of a needed chunk")

const (
	// condemnStrikes is K: the number of consecutive transport errors
	// after which a daemon is condemned and skipped.
	condemnStrikes = 3
	// reprobeInterval rate-limits background ProbeDaemon re-probes of a
	// condemned daemon.
	reprobeInterval = 2 * time.Second
	// defaultHedgeDelay is the hedge trigger used before a daemon has
	// latencyMinSamples observations.
	defaultHedgeDelay = 20 * time.Millisecond
	// minHedgeDelay floors the hedge trigger so a sub-millisecond p95
	// (in-memory transports) cannot make every read fire two RPCs.
	minHedgeDelay = 2 * time.Millisecond
	// latencyWindow is the per-daemon ring of recent read latencies the
	// p95 estimate is computed over.
	latencyWindow = 64
	// latencyMinSamples gates the estimate: below it the default delay
	// applies.
	latencyMinSamples = 8
)

// daemonHealth is one daemon's client-side health record.
type daemonHealth struct {
	// strikes counts consecutive transport errors; any success resets it.
	strikes atomic.Int32
	// condemned marks the daemon dead for placement decisions.
	condemned atomic.Bool
	// lastProbe is the UnixNano of the last background re-probe launch.
	lastProbe atomic.Int64

	mu   sync.Mutex
	lat  []time.Duration // guarded by mu; ring of recent read latencies
	next int             // guarded by mu; ring write cursor
}

// observe records one successful read RPC's latency.
func (h *daemonHealth) observe(d time.Duration) {
	h.mu.Lock()
	if len(h.lat) < latencyWindow {
		h.lat = append(h.lat, d)
	} else {
		h.lat[h.next] = d
		h.next = (h.next + 1) % latencyWindow
	}
	h.mu.Unlock()
}

// p95 estimates the daemon's 95th-percentile read latency from the
// recent-latency ring, floored by minHedgeDelay; defaultHedgeDelay until
// enough samples accumulated.
func (h *daemonHealth) p95() time.Duration {
	h.mu.Lock()
	n := len(h.lat)
	if n < latencyMinSamples {
		h.mu.Unlock()
		return defaultHedgeDelay
	}
	tmp := make([]time.Duration, n)
	copy(tmp, h.lat)
	h.mu.Unlock()
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	p := tmp[n*95/100]
	if p < minHedgeDelay {
		p = minHedgeDelay
	}
	return p
}

// ClientStats are the client-side counters (the daemon-side view lives in
// proto.DaemonStats; these count decisions only the client can see):
// replication, and what the size view's acknowledged size saved. Each is
// declared once, by its metric tag: the client bumps its live copy with
// one atomic add, Stats copies it, and a telemetry registry exports it
// under that name (internal/telemetry/fields.go).
type ClientStats struct {
	// HedgedReads counts reads served (or attempted) away from the
	// primary: a secondary RPC launched because the first attempt
	// outlived the p95 trigger or failed (see FailoverReads for the
	// failure subset), or a group whose condemned primary was skipped
	// outright — so degraded service stays visible after condemnation
	// settles.
	HedgedReads uint64 `metric:"gkfs_client_hedged_reads_total"`
	// FailoverReads is the subset of HedgedReads launched because every
	// outstanding attempt had already failed, rather than merely slowed.
	FailoverReads uint64 `metric:"gkfs_client_failover_reads_total"`
	// ReplicaWrites counts acknowledged non-primary chunk-write copies
	// this client issued.
	ReplicaWrites uint64 `metric:"gkfs_client_replica_writes_total"`
	// CondemnedDaemons is the number of daemons currently condemned.
	CondemnedDaemons uint64 `metric:"gkfs_client_condemned_daemons,gauge"`
	// SizeUpdatesElided counts synchronous descriptor writes that ended at
	// or below the path's acknowledged size and therefore sent no
	// OpUpdateSize of their own (the next Fsync/Close sends one for all).
	SizeUpdatesElided uint64 `metric:"gkfs_client_size_updates_elided_total"`
	// SizeProbesElided counts descriptor reads (demand and read-ahead)
	// whose range lay below the acknowledged size and therefore asked the
	// metadata owner for no size view — neither the ReadWantSize flag nor
	// the zero-span probe RPC.
	SizeProbesElided uint64 `metric:"gkfs_client_size_probes_elided_total"`
}

// Stats snapshots the client-side counters.
func (c *Client) Stats() ClientStats {
	var st ClientStats
	telemetry.AddFields(&st, &c.live)
	for i := range c.health {
		if c.health[i].condemned.Load() {
			st.CondemnedDaemons++
		}
	}
	return st
}

// transportError reports whether err is a transport-level failure (dead
// or unreachable daemon, closed pool, timeout) as opposed to an answer
// the daemon itself produced. Only transport failures justify failover:
// a decoded errno or a remote handler error is deterministic — every
// replica would say the same — and must surface, not be retried around.
func transportError(err error) bool {
	if err == nil {
		return false
	}
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		return false
	}
	for _, deterministic := range []error{
		proto.ErrNotExist, proto.ErrExist, proto.ErrIsDir, proto.ErrNotDir,
		proto.ErrNotEmpty, proto.ErrInval, proto.ErrNotSupported,
		ErrDaemonMismatch,
	} {
		if errors.Is(err, deterministic) {
			return false
		}
	}
	return true
}

// strike records a transport error against node; condemnStrikes
// consecutive ones condemn it.
func (c *Client) strike(node int) {
	h := &c.health[node]
	if h.strikes.Add(1) >= condemnStrikes {
		h.condemned.Store(true)
	}
}

// condemn marks node dead immediately (mount-time verification failure).
func (c *Client) condemn(node int) {
	h := &c.health[node]
	h.strikes.Store(condemnStrikes)
	h.condemned.Store(true)
}

// observeSuccess resets node's strike count after any successful RPC.
func (c *Client) observeSuccess(node int) {
	c.health[node].strikes.Store(0)
}

// alive reports whether node should be used for placement. A condemned
// node additionally arms a rate-limited background re-probe, so a daemon
// that comes back rejoins the chain without any foreground stall.
func (c *Client) alive(node int) bool {
	h := &c.health[node]
	if !h.condemned.Load() {
		return true
	}
	now := time.Now().UnixNano()
	last := h.lastProbe.Load()
	if now-last >= int64(reprobeInterval) && h.lastProbe.CompareAndSwap(last, now) {
		// A refused rejoin leaves the daemon condemned; the next
		// interval asks again.
		go c.reprobe(node)
	}
	return false
}

// reprobe re-admits a condemned daemon to placement if it is back — under
// the mount's own conditions (VerifyProtocol): whatever answers at that
// address now must be the same daemon, of this generation, with the
// mount's chunk size. Anything else stays condemned (ErrDaemonMismatch).
func (c *Client) reprobe(node int) error {
	info, err := ProbeDaemon(c.cfg.Conns[node])
	if err != nil {
		return fmt.Errorf("rejoin: ping daemon %d: %w", node, err)
	}
	if err := checkDaemon("rejoin", node, info, c.cfg.ChunkSize, "the mount uses"); err != nil {
		return err
	}
	h := &c.health[node]
	h.strikes.Store(0)
	h.condemned.Store(false)
	return nil
}

// chunkChain returns the replica chain shared by every span of g for an
// I/O at epoch — the single place chains are derived. The spans of one
// target group were grouped by their primary, and ChunkReplicas derives
// the chain from the primary alone (the replica-distinctness invariant,
// docs/INVARIANTS.md), so any span's chain is the group's chain. A
// pinned epoch narrows it to its head: chunk pre-images live where the
// primary chunk lived.
func (c *Client) chunkChain(path string, g *targetGroup, epoch uint64) []int {
	chain := c.ReplicaChain(path, g.spans[0].ID)
	if epoch != LiveEpoch {
		chain = chain[:1]
	}
	return chain
}

// tracked reports whether the members of chain are subject to health
// tracking. A chain of one is never condemned: there is nowhere else to
// go, so its daemon keeps being asked and its errors keep surfacing.
func tracked(chain []int) bool { return len(chain) > 1 }

// liveChain filters a replica chain down to non-condemned daemons.
func (c *Client) liveChain(chain []int) []int {
	if !tracked(chain) {
		return chain
	}
	live := make([]int, 0, len(chain))
	for _, n := range chain {
		if c.alive(n) {
			live = append(live, n)
		}
	}
	return live
}

// attemptErrs accumulates the failed attempts of one span group.
type attemptErrs struct {
	hard error   // first deterministic answer; every replica would say the same
	soft []error // transport failures, each naming its daemon
}

// settle files one attempt's outcome: in node's health record when the
// chain is tracked, and — for a failure — in fails, naming the daemon.
func (c *Client) settle(fails *attemptErrs, chain []int, node int, err error) {
	switch {
	case err == nil:
		if tracked(chain) {
			c.observeSuccess(node)
		}
	case transportError(err):
		if tracked(chain) {
			c.strike(node)
		}
		fails.soft = append(fails.soft, fmt.Errorf("daemon %d: %w", node, err))
	case fails.hard == nil:
		fails.hard = fmt.Errorf("daemon %d: %w", node, err)
	}
}

// err folds the failures into the error of a group no attempt served
// (or one a daemon refused): op, path and daemon are always named, a
// deterministic answer surfaces as itself, and transport failures alone
// mean no live replica was left — ErrDegraded.
func (fails *attemptErrs) err(op, path string) error {
	if fails.hard != nil {
		return fmt.Errorf("%s %s: %w", op, path, fails.hard)
	}
	return fmt.Errorf("%s %s: %w: %w", op, path, ErrDegraded, errors.Join(fails.soft...))
}
