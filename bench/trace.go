package main

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// Tracing lives entirely in this directory: spans are recorded by
// decorators around the calls into each layer, never inside the program.
//
//	client.op       a worker's call into internal/client (root span)
//	transport.call  rpc.Conn.Call on the worker's view of the shared
//	                connections; child of the op span whose interval
//	                contains its start, else of the worker's pipeline
//	vfs.*           vfs.FS / vfs.File calls under a daemon, split by
//	                name: meta/ is the kvstore, chunks/ the chunkstore
//
// Queue wait and handler time are not spans: the daemon already exports
// them (Daemon.Telemetry) and the analysis takes their deltas.

type spanKind uint8

const (
	kCreate spanKind = iota // client.op kinds
	kOpen
	kStat
	kRemove
	kRead
	kWrite
	kBarrier
	kCallMeta // transport.call by op family
	kCallWrite
	kCallRead
	kVfsOpen // vfs.* kinds
	kVfsRead
	kVfsWrite
	kVfsSync
	kVfsOther
	numKinds
)

var kindNames = [numKinds]string{
	"client.create", "client.open", "client.stat", "client.remove", "client.read", "client.write", "client.barrier",
	"transport.call_meta", "transport.call_write", "transport.call_read",
	"vfs.open", "vfs.read", "vfs.write", "vfs.sync", "vfs.other",
}

func (k spanKind) isOp() bool { return k < kCallMeta }

// vfs span classes, from the file name.
const (
	clsOther  uint8 = iota
	clsMeta         // meta/ except the two below
	clsWAL          // meta/wal-*
	clsSST          // meta/sst-*
	clsChunks       // chunks/ and snap/
)

func classOf(name string) uint8 {
	switch {
	case strings.HasPrefix(name, "meta/wal-"):
		return clsWAL
	case strings.HasPrefix(name, "meta/sst-"):
		return clsSST
	case strings.HasPrefix(name, "meta/"):
		return clsMeta
	case strings.HasPrefix(name, "chunks/"), strings.HasPrefix(name, "snap/"):
		return clsChunks
	}
	return clsOther
}

func isMetaClass(c uint8) bool { return c == clsMeta || c == clsWAL || c == clsSST }

// span is one recorded interval, in nanoseconds since the tracer's
// epoch. class is the daemon index on a call span and the file class on
// a vfs span; bytes is what the call moved.
type span struct {
	start, end int64
	bytes      int64
	kind       spanKind
	class      uint8
}

func (s span) dur() int64 { return s.end - s.start }

// tracer owns the recorders of one traced pass and the switch that
// limits recording to the timed window.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newRecorder() *recorder { return &recorder{t: t} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// recorder is one append-only span buffer: one per worker (its client
// calls and the transport calls made on its behalf, which the write-
// behind and read-ahead goroutines issue concurrently) and one per
// daemon (vfs calls from concurrent handlers).
type recorder struct {
	t     *tracer
	mu    sync.Mutex
	spans []span
}

// begin returns the span's start, or -1 while recording is off.
func (r *recorder) begin() int64 {
	if !r.t.on.Load() {
		return -1
	}
	return r.t.now()
}

func (r *recorder) end(start int64, kind spanKind, class uint8, bytes int64) {
	if start < 0 {
		return
	}
	s := span{start: start, end: r.t.now(), bytes: bytes, kind: kind, class: class}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tracedConn records a transport.call span around every call a worker's
// client makes on one shared connection.
type tracedConn struct {
	inner  rpc.Conn
	rec    *recorder
	daemon uint8
}

func callKind(op rpc.Op) spanKind {
	switch op {
	case proto.OpWriteChunks:
		return kCallWrite
	case proto.OpReadChunks:
		return kCallRead
	}
	return kCallMeta
}

func (c *tracedConn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	t0 := c.rec.begin()
	resp, err := c.inner.Call(op, payload, bulk, dir)
	c.rec.end(t0, callKind(op), c.daemon, int64(len(payload)+len(bulk)+len(resp)))
	return resp, err
}

// Close is a no-op: the cluster owns the shared connection.
func (c *tracedConn) Close() error { return nil }

// tracedFS records a vfs.* span around every call a daemon's storage
// engines make.
type tracedFS struct {
	inner vfs.FS
	rec   *recorder
}

func (f *tracedFS) open(name string, open func(string) (vfs.File, error)) (vfs.File, error) {
	cls := classOf(name)
	t0 := f.rec.begin()
	file, err := open(name)
	f.rec.end(t0, kVfsOpen, cls, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: file, rec: f.rec, class: cls}, nil
}

func (f *tracedFS) Create(name string) (vfs.File, error) { return f.open(name, f.inner.Create) }
func (f *tracedFS) Open(name string) (vfs.File, error)   { return f.open(name, f.inner.Open) }
func (f *tracedFS) OpenOrCreate(name string) (vfs.File, error) {
	return f.open(name, f.inner.OpenOrCreate)
}

func (f *tracedFS) Remove(name string) error {
	t0 := f.rec.begin()
	err := f.inner.Remove(name)
	f.rec.end(t0, kVfsOther, classOf(name), 0)
	return err
}

func (f *tracedFS) Rename(oldname, newname string) error {
	t0 := f.rec.begin()
	err := f.inner.Rename(oldname, newname)
	f.rec.end(t0, kVfsOther, classOf(newname), 0)
	return err
}

func (f *tracedFS) List(dir string) ([]string, error) {
	t0 := f.rec.begin()
	names, err := f.inner.List(dir)
	f.rec.end(t0, kVfsOther, classOf(dir+"/"), 0)
	return names, err
}

func (f *tracedFS) MkdirAll(dir string) error {
	t0 := f.rec.begin()
	err := f.inner.MkdirAll(dir)
	f.rec.end(t0, kVfsOther, classOf(dir+"/"), 0)
	return err
}

func (f *tracedFS) Exists(name string) bool {
	t0 := f.rec.begin()
	ok := f.inner.Exists(name)
	f.rec.end(t0, kVfsOther, classOf(name), 0)
	return ok
}

type tracedFile struct {
	inner vfs.File
	rec   *recorder
	class uint8
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := f.rec.begin()
	n, err := f.inner.ReadAt(p, off)
	f.rec.end(t0, kVfsRead, f.class, int64(n))
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := f.rec.begin()
	n, err := f.inner.WriteAt(p, off)
	f.rec.end(t0, kVfsWrite, f.class, int64(n))
	return n, err
}

func (f *tracedFile) Append(p []byte) (int64, error) {
	t0 := f.rec.begin()
	off, err := f.inner.Append(p)
	f.rec.end(t0, kVfsWrite, f.class, int64(len(p)))
	return off, err
}

func (f *tracedFile) Size() (int64, error) {
	t0 := f.rec.begin()
	n, err := f.inner.Size()
	f.rec.end(t0, kVfsOther, f.class, 0)
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := f.rec.begin()
	err := f.inner.Sync()
	f.rec.end(t0, kVfsSync, f.class, 0)
	return err
}

func (f *tracedFile) Close() error {
	t0 := f.rec.begin()
	err := f.inner.Close()
	f.rec.end(t0, kVfsOther, f.class, 0)
	return err
}

// covered returns how much of [lo, hi) the spans cover, counting
// overlapping spans once. spans must be sorted by start.
func covered(spans []span, lo, hi int64) int64 {
	var total int64
	at := lo
	for _, s := range spans {
		a, b := max(s.start, at), min(s.end, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

func byStart(spans []span) {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
}

// mean of the durations, in the unit that divides nanoseconds by div.
func meanDur(spans []span, div float64) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += s.dur()
	}
	return float64(sum) / float64(len(spans)) / div
}

func medianDurUS(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	d := make([]int64, len(spans))
	for i, s := range spans {
		d[i] = s.dur()
	}
	slices.Sort(d)
	return percentile(d, 0.50) / 1e3
}

// traceStats is what the span analysis hands to the metric assembly.
type traceStats struct {
	byKind [numKinds][]span

	opTime, opSelf  int64 // summed over client.op spans
	callTime        int64
	callBytes       int64
	reads, readHits int

	vfsTime               int64 // summed over both daemons
	metaTime, chunksTime  int64 // the same per class
	metaBusy, chunksBusy  int64 // union of vfs spans per class, summed over daemons
	chunkCalls, chunkOpen int
	walBytes              int64
	sstCreated, syncs     int
}

// analyze splits the recorded spans by kind, assigns every transport
// call to the op span whose interval contains its start, and computes
// self times: a span's duration minus the part its children cover.
func analyze(workers, daemons []*recorder) *traceStats {
	st := &traceStats{}
	for _, rec := range workers {
		var ops, calls []span
		for _, s := range rec.spans {
			st.byKind[s.kind] = append(st.byKind[s.kind], s)
			if s.kind.isOp() {
				ops = append(ops, s)
			} else {
				calls = append(calls, s)
				st.callTime += s.dur()
				st.callBytes += s.bytes
			}
		}
		// A worker's client calls are sequential, so ops is sorted and
		// its intervals are disjoint; calls come from several goroutines.
		byStart(ops)
		byStart(calls)
		ci := 0
		for _, op := range ops {
			for ci < len(calls) && calls[ci].start < op.start {
				ci++ // started between two ops: a child of the pipeline
			}
			first := ci
			for ci < len(calls) && calls[ci].start < op.end {
				ci++
			}
			st.opTime += op.dur()
			st.opSelf += op.dur() - covered(calls[first:ci], op.start, op.end)
			if op.kind == kRead {
				st.reads++
				if ci == first {
					st.readHits++
				}
			}
		}
	}
	for _, rec := range daemons {
		var metaSpans, chunkSpans []span
		for _, s := range rec.spans {
			st.byKind[s.kind] = append(st.byKind[s.kind], s)
			st.vfsTime += s.dur()
			switch {
			case isMetaClass(s.class):
				metaSpans = append(metaSpans, s)
				st.metaTime += s.dur()
			case s.class == clsChunks:
				chunkSpans = append(chunkSpans, s)
				st.chunksTime += s.dur()
				st.chunkCalls++
				if s.kind == kVfsOpen {
					st.chunkOpen++
				}
			}
			if s.class == clsWAL && s.kind == kVfsWrite {
				st.walBytes += s.bytes
			}
			if s.class == clsSST && s.kind == kVfsOpen {
				st.sstCreated++
			}
			if s.kind == kVfsSync {
				st.syncs++
			}
		}
		byStart(metaSpans)
		byStart(chunkSpans)
		const forever = int64(1) << 62
		st.metaBusy += covered(metaSpans, 0, forever)
		st.chunksBusy += covered(chunkSpans, 0, forever)
	}
	return st
}

// layerShare is one row of the layer-share table.
type layerShare struct {
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
	Of    string  `json:"of"`
}

// writeTrace writes the pass's layer table and its raw spans under dir.
// The span file is little-endian records of
// [u8 recorder][u8 kind][u8 class][i64 start][i64 end][i64 bytes], with
// recorders numbered workers first, then daemons; kinds index kindNames.
func writeTrace(dir, workload string, recs []*recorder, table []layerShare) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string       `json:"workload"`
		Kinds    []string     `json:"span_kinds"`
		Layers   []layerShare `json:"layers"`
	}{workload, kindNames[:], table}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".layers.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.bin"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var rec [27]byte
	for i, r := range recs {
		for _, s := range r.spans {
			rec[0], rec[1], rec[2] = uint8(i), uint8(s.kind), s.class
			binary.LittleEndian.PutUint64(rec[3:], uint64(s.start))
			binary.LittleEndian.PutUint64(rec[11:], uint64(s.end))
			binary.LittleEndian.PutUint64(rec[19:], uint64(s.bytes))
			w.Write(rec[:]) // the error is sticky and surfaces at Flush
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
