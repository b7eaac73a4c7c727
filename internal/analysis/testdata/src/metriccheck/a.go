// Package metriccheck is a gkfs-vet fixture exercising the metriccheck
// analyzer: direct writes to counter and snapshot fields owned by the
// telemetry tier are flagged, while reads, composite-literal
// construction, API calls, atomic adds on a live struct's tagged fields,
// and map inserts through a field stay legal.
package metriccheck

import (
	"sync/atomic"

	"repro/internal/chunkstore"
	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// assignSnapshotField rebinds counter state on a snapshot copy: the
// write never reaches a live counter.
func assignSnapshotField(st proto.DaemonStats) proto.DaemonStats {
	st.Creates = 0 // want `field DaemonStats\.Creates is telemetry counter state`
	return st
}

// compoundAssign aggregates by hand instead of the derived
// DaemonStats.Add / Snapshot.Merge: the next counter added to the struct
// is silently missing from this total.
func compoundAssign(a, b proto.DaemonStats) uint64 {
	a.WriteBytes += b.WriteBytes // want `field DaemonStats\.WriteBytes is telemetry counter state`
	return a.WriteBytes
}

// storeCopies writes the store tiers' tagged structs the same way: a
// typed view rebuilt from a snapshot is a copy, wherever it came from.
func storeCopies(kv kvstore.Stats, oc chunkstore.OpenStats) uint64 {
	kv.Flushes++ // want `field Stats\.Flushes is telemetry counter state`
	oc.Open = 0  // want `field OpenStats\.Open is telemetry counter state`
	oc.Hits += 2 // want `field OpenStats\.Hits is telemetry counter state`
	return kv.Flushes + oc.Open + oc.Hits
}

// clientCopy writes the copy Client.Stats hands out: the client's live
// counters never see it.
func clientCopy(cs client.ClientStats) uint64 {
	cs.HedgedReads++ // want `field ClientStats\.HedgedReads is telemetry counter state`
	return cs.HedgedReads
}

// liveHolder owns a live stats struct the way the daemon does.
type liveHolder struct{ live proto.DaemonStats }

// bump is the record path of a tagged field: one atomic add through the
// field's address. Not an assignment — legal wherever the struct lives.
func (h *liveHolder) bump(n uint64) {
	atomic.AddUint64(&h.live.Creates, 1)
	atomic.AddUint64(&h.live.WriteBytes, n)
}

// snapshotOf builds the reader's copy from a composite literal and the
// derived Add, never field by field.
func (h *liveHolder) snapshotOf(framesIn uint64) proto.DaemonStats {
	st := proto.DaemonStats{FramesIn: framesIn}
	telemetry.AddFields(&st, &h.live)
	return st
}

// incDec bumps a histogram snapshot's total without touching buckets.
func incDec(h telemetry.HistSnapshot) uint64 {
	h.Count++ // want `field HistSnapshot\.Count is telemetry counter state`
	return h.Count
}

// swapWireCounter replaces a live wire counter wholesale instead of
// adding to it.
func swapWireCounter(w *rpc.WireCounters) {
	w.FramesIn = atomic.Uint64{} // want `field WireCounters\.FramesIn is telemetry counter state`
	w.FramesOut.Add(1)           // the API: legal
}

// replaceHists swaps out a registry snapshot's histogram map.
func replaceHists(s telemetry.Snapshot) telemetry.Snapshot {
	s.Hists = nil // want `field Snapshot\.Hists is telemetry counter state`
	return s
}

// legalUses are the blessed shapes: the telemetry API mutates live
// counters, composite literals construct snapshots, map inserts fold
// extra values into a handed-out snapshot, and reads are always fine.
func legalUses(reg *telemetry.Registry, s telemetry.Snapshot, st proto.DaemonStats) uint64 {
	reg.Counter("fixture_total").Inc()
	reg.Counter("fixture_total").Add(3)
	reg.Gauge("fixture_gauge").Add(-1)
	reg.Histogram("fixture_ns").Observe(42)

	fresh := telemetry.HistSnapshot{Count: 1, Sum: 42}
	_ = fresh

	s.Counters["extra_total"] = st.Creates // map insert through the field, not a field write
	total := st.WriteBytes + st.ReadBytes  // reads
	return total
}

// localSameShapeType proves the guard is type-identity based, not
// name based: a local struct with counter-like fields is untouched.
type localSameShapeType struct {
	Creates uint64
	Count   uint64
}

func localWrites(l localSameShapeType) uint64 {
	l.Creates = 7
	l.Count++
	return l.Creates + l.Count
}
