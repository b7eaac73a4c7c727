// Package telemetry is the stdlib-only metrics core under the
// observability tier: sharded atomic counters, gauges, and log-linear
// latency histograms with a lock-free record path. Every type is
// nil-receiver safe — a component holds plain pointers and records
// unconditionally; when telemetry is disabled the pointers are nil and
// each record call is a single branch, no allocation, no atomics.
//
// A Registry names the metrics of one process (a daemon or a client).
// Snapshots are plain values: mergeable, JSON-encodable, and renderable
// as Prometheus text (see WriteMetrics), so the same document backs
// /metrics, /statz and `gkfs-shell stats -json`.
package telemetry

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// counterShards spreads a hot counter over this many cache lines so
// concurrent writers on different cores do not serialize on one line.
// Must be a power of two.
const counterShards = 8

type counterShard struct {
	v atomic.Uint64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a monotonically increasing, write-sharded counter. The
// record path is one atomic add on a shard picked from the caller's
// stack address — goroutines running on different stacks land on
// different cache lines with no per-goroutine state.
type Counter struct {
	shards [counterShards]counterShard
}

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	// A local's address is stable within one goroutine and spread
	// across goroutines; shifting off the 64-byte-alignment bits leaves
	// the stack-slot entropy that distinguishes stacks.
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 6) & (counterShards - 1)
	c.shards[i].v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. Concurrent adds may or may not be included;
// the result is exact once writers quiesce. Safe on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Gauge is an instantaneous signed value (in-flight RPCs, window
// occupancy). Unlike Counter it is not sharded: gauges move both ways
// and read often, so one atomic is the right trade.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative to decrease). Safe on nil.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Set stores an absolute value. Safe on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reads the gauge. Safe on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry names the metrics of one process. Get-or-create accessors
// are mutex-guarded (registration is rare); the returned metric
// pointers are then recorded to lock-free. A nil *Registry is the
// disabled state: every accessor returns nil, and the nil metrics
// swallow records for the cost of a branch.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Snapshot)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid, inert counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Collect registers fn to run at every Snapshot, folding into it values
// some component already tracks under its own synchronisation — counters
// a struct owns (Snapshot.Fold), a level read under the owner's lock —
// so the hot path pays nothing to publish them. fn runs outside the
// registry's lock. No-op on a nil registry.
func (r *Registry) Collect(fn func(*Snapshot)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry: plain maps keyed by
// metric name, directly JSON-encodable. Individual metrics are read
// atomically; the set as a whole is not a consistent cut (normal for a
// monitoring scrape).
type Snapshot struct {
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// Snapshot reads every registered metric once. Safe on a nil registry
// (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	collectors := r.collectors
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(&s)
	}
	return s
}

// Merge folds o into s: counters and gauges add, histograms merge —
// per-daemon snapshots fold into a cluster-wide one in any order. A zero
// Snapshot is a valid accumulator.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters, s.Gauges, s.Hists = map[string]uint64{}, map[string]int64{}, map[string]HistSnapshot{}
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	for name, h := range o.Hists {
		m := s.Hists[name]
		m.Merge(h)
		s.Hists[name] = m
	}
}
