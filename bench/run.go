package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/telemetry"
)

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration // timed phase
	warmup time.Duration // untimed phase before it
	probe  time.Duration // how long each layer or ceiling probe measures
	scale  int64         // file sizes and name counts are divided by this
	mem    bool          // daemons on vfs.NewMem instead of vfs.NewOS
	dir    string        // run root: every file the benchmark creates is under it
	out    string        // where a traced run writes its spans and layer table
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Correct   bool
	Metrics   metricSet
	Failures  []string
	Layers    []layerShare // traced runs only
}

const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// deployment is a cluster that has been set up and, after fill, holds
// the workload's files and its workers.
type deployment struct {
	cl      *cluster
	tr      *tracer
	admin   *client.Client   // primes, fills and runs the whole-state checks
	clients []*client.Client // one per worker
	recs    []*recorder      // one per worker when traced
	workers []worker
	setup   float64       // seconds setUp took: setup_s
	filled  int64         // bytes fill wrote
	fill    time.Duration // what writing them took
}

// setUp deploys, dials, mounts and primes the namespace: everything
// setup_s times. All of it is RPC and kvstore work. Writing the data
// files is fill's, outside setup_s, because a first write to fresh
// page-cache pages costs this guest 0.2 or 3 ms per MiB at random
// (README, "One run") and no metric that contains it repeats.
func setUp(e *env, wl *workloadDef, traced bool) (dp *deployment, err error) {
	t0 := time.Now()
	dp = &deployment{}
	if traced {
		dp.tr = newTracer()
	}
	if dp.cl, err = deploy(e.cfg.dir, e.cfg.mem, dp.tr); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, dp.cl.Close())
			dp = nil
		}
	}()
	// Priming, filling and the whole-state checks go through their own
	// write-behind client; nothing it does is timed as an operation.
	if dp.admin, err = dp.cl.mount(client.Config{AsyncWrites: true}, nil); err != nil {
		return dp, err
	}
	if err = primeNamespace(e, dp.admin); err != nil {
		return dp, err
	}
	for id := 0; id < numWorkers; id++ {
		var rec *recorder
		if traced {
			rec = dp.tr.newRecorder()
		}
		c, err := dp.cl.mount(wl.client, rec)
		if err != nil {
			return dp, err
		}
		dp.clients, dp.recs = append(dp.clients, c), append(dp.recs, rec)
	}
	dp.setup = time.Since(t0).Seconds()
	return dp, nil
}

// start sets the workload up repeats times, tearing every deployment but
// the last down again, and records the median time as the last one's
// setup; then it writes the workload's data files into that one and
// builds the workers over them.
func start(ctx context.Context, e *env, wl *workloadDef, traced bool, repeats int) (dp *deployment, err error) {
	var times []float64
	for len(times) < repeats {
		if dp != nil {
			if err := dp.tearDown(); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dp, err = setUp(e, wl, traced); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		times = append(times, dp.setup)
	}
	dp.setup = quartiles(times)[1]
	defer func() {
		if err != nil {
			err = errors.Join(fmt.Errorf("%s: fill: %w", wl.name, err), dp.tearDown())
			dp = nil
		}
	}()
	if wl.fill != nil {
		t0 := time.Now()
		if dp.filled, err = wl.fill(e, dp.admin); err != nil {
			return dp, err
		}
		dp.fill = time.Since(t0)
	}
	for id, c := range dp.clients {
		// Worker id draws from its own stream of the seed.
		rng := rand.New(rand.NewSource(e.cfg.seed*numWorkers + int64(id)))
		w, err := wl.newWorker(base{id: id, e: e, c: c, rec: dp.recs[id], rng: rng})
		if err != nil {
			return dp, err
		}
		dp.workers = append(dp.workers, w)
	}
	return dp, nil
}

// tearDown releases the workers and closes the cluster.
func (dp *deployment) tearDown() error {
	var errs []error
	for _, w := range dp.workers {
		errs = append(errs, w.finish())
	}
	dp.workers = nil
	return errors.Join(append(errs, dp.cl.Close())...)
}

// counters is a reading of everything the process and the daemons count
// on their own; two readings bracket the timed window.
type counters struct {
	cpu      time.Duration
	mallocs  uint64
	alloc    uint64
	gcPause  uint64
	frames   uint64
	wire     [numDaemons]uint64
	queue    histSum
	handle   [3]histSum // meta, write, read
	handleNS uint64
	handled  uint64
}

type histSum struct{ count, sum uint64 }

func (h histSum) meanUS() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count) / 1e3
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters(daemons []*daemon.Daemon, withMem bool) counters {
	var c counters
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms) // stops the world: only the traced run's untraced pass pays it
		c.mallocs, c.alloc, c.gcPause = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	}
	for i, d := range daemons {
		st := d.Stats()
		c.frames += st.FramesIn + st.FramesOut
		c.wire[i] = st.WireBytesIn + st.WireBytesOut
		for name, h := range d.Telemetry().Snapshot().Hists {
			hs := histSum{h.Count, h.Sum}
			if name == telemetry.DaemonQueueWaitNS {
				c.queue.count += hs.count
				c.queue.sum += hs.sum
				continue
			}
			fam := 0
			switch name {
			case telemetry.DaemonOpWriteChunksNS:
				fam = 1
			case telemetry.DaemonOpReadChunksNS:
				fam = 2
			}
			c.handle[fam].count += hs.count
			c.handle[fam].sum += hs.sum
			c.handleNS += hs.sum
			c.handled += hs.count
		}
	}
	c.cpu = cpuTime()
	return c
}

func (a counters) since(b counters) counters {
	d := counters{
		cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs, alloc: a.alloc - b.alloc, gcPause: a.gcPause - b.gcPause,
		frames: a.frames - b.frames, queue: histSum{a.queue.count - b.queue.count, a.queue.sum - b.queue.sum},
		handleNS: a.handleNS - b.handleNS, handled: a.handled - b.handled,
	}
	for i := range d.wire {
		d.wire[i] = a.wire[i] - b.wire[i]
	}
	for i := range d.handle {
		d.handle[i] = histSum{a.handle[i].count - b.handle[i].count, a.handle[i].sum - b.handle[i].sum}
	}
	return d
}

// pass is the outcome of one warm-up plus timed window.
type pass struct {
	elapsed   time.Duration
	lat       []int64 // latency of every operation inside the window, ns, ascending
	payload   int64
	attempted int
	failed    int
	delta     counters
	trace     *traceStats
}

func (p *pass) opsPerS() float64 { return float64(len(p.lat)) / p.elapsed.Seconds() }

// percentile returns quantile q of sorted, by nearest rank.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// measure drives the deployment's workers closed-loop: each starts its
// next operation when the previous one returned. Operations that start
// and end inside the window count; the workers run through the warm-up
// into the window without a pause, so the window opens on a busy system.
func measure(ctx context.Context, e *env, wl *workloadDef, dp *deployment, withMem bool) (*pass, error) {
	var phase atomic.Int32
	type tally struct {
		lat       []int64
		payload   int64
		attempted int
		failed    int
	}
	tallies := make([]tally, len(dp.workers))
	var wg sync.WaitGroup
	for i, w := range dp.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[i]
			t.lat = make([]int64, 0, 1<<16)
			who := fmt.Sprintf("%s worker %d", wl.name, i)
			for {
				began := phase.Load()
				if began == phaseStop {
					return
				}
				t0 := time.Now()
				n, err := w.step()
				dt := time.Since(t0)
				if err != nil {
					e.fail(who, err)
				}
				if began != phaseMeasure || phase.Load() != phaseMeasure {
					continue
				}
				t.attempted++
				if err != nil {
					t.failed++
					continue
				}
				t.lat = append(t.lat, int64(dt))
				t.payload += n
			}
		}()
	}
	sleep := func(d time.Duration) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
			return nil
		}
	}
	p := &pass{}
	err := sleep(e.cfg.warmup)
	if err == nil {
		before := readCounters(dp.cl.daemons, withMem)
		if dp.tr != nil {
			dp.tr.on.Store(true)
		}
		t0 := time.Now()
		phase.Store(phaseMeasure)
		err = sleep(e.cfg.window)
		phase.Store(phaseStop)
		p.elapsed = time.Since(t0)
		if dp.tr != nil {
			dp.tr.on.Store(false)
		}
		p.delta = readCounters(dp.cl.daemons, withMem).since(before)
	}
	phase.Store(phaseStop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, t := range tallies {
		p.lat = append(p.lat, t.lat...)
		p.payload += t.payload
		p.attempted += t.attempted
		p.failed += t.failed
	}
	slices.Sort(p.lat)
	// What the window's end interrupted is finished and verified, then
	// the state all workers left behind is checked as a whole.
	for i, w := range dp.workers {
		if err := w.finish(); err != nil {
			e.fail(fmt.Sprintf("%s worker %d finish", wl.name, i), err)
		}
	}
	dp.workers = nil
	if wl.check != nil {
		if err := wl.check(e, dp.admin); err != nil {
			e.fail(wl.name+" final check", err)
		}
	}
	if dp.tr != nil {
		p.trace = analyze(dp.recs, dp.cl.vfsRecs)
	}
	if len(p.lat) == 0 {
		return nil, fmt.Errorf("%s: no operation completed inside the window", wl.name)
	}
	return p, nil
}

func (r *result) close(e *env, p *pass) {
	r.Attempted, r.Failed = p.attempted, p.failed
	r.Correct = e.fails.count() == 0
	r.Failures = e.fails.first
}

// timedSetUps is how many set-ups an untraced run takes the median of.
// One alone spread 5 to 12 % over ten runs (quartile distance over
// median); a set-up is half a second, so four more cost little.
const timedSetUps = 5

// runUntraced is the --trace 0 run: the workload set up under the clock,
// filled, measured and torn down.
func runUntraced(ctx context.Context, cfg *config, wl *workloadDef) (*result, error) {
	e := newEnv(cfg)
	dp, err := start(ctx, e, wl, false, timedSetUps)
	if err != nil {
		return nil, err
	}
	p, err := measure(ctx, e, wl, dp, false)
	if err = errors.Join(err, dp.tearDown()); err != nil {
		return nil, err
	}
	r := &result{Workload: wl.name, Metrics: metricSet{
		"ops_per_s":     p.opsPerS(),
		"op_p50_us":     percentile(p.lat, 0.50) / 1e3,
		"op_p95_us":     percentile(p.lat, 0.95) / 1e3,
		"cpu_us_per_op": float64(p.delta.cpu.Microseconds()) / float64(len(p.lat)),
		"setup_s":       dp.setup,
	}}
	r.close(e, p)
	return r, nil
}

// runTraced is the --trace 1 run: an untraced pass for the counter
// deltas and the baseline rate, a traced pass of the same length on a
// second, decorated deployment for the spans, then the probes.
func runTraced(ctx context.Context, cfg *config, wl *workloadDef) (*result, error) {
	goroutines := runtime.NumGoroutine()
	e := newEnv(cfg)
	m := metricSet{}

	dp, err := start(ctx, e, wl, false, 1)
	if err != nil {
		return nil, err
	}
	plain, err := measure(ctx, e, wl, dp, true)
	if err = errors.Join(err, dp.tearDown()); err != nil {
		return nil, err
	}
	ops := float64(len(plain.lat))
	d := plain.delta
	mib := float64(plain.payload) / (1 << 20) / plain.elapsed.Seconds()
	m["client.mib_per_s"] = mib
	m["client.failed_share"] = float64(plain.failed) / float64(plain.attempted)
	m["client.fill_mib_per_s"] = 0 // meta_churn fills nothing
	if dp.filled > 0 {
		m["client.fill_mib_per_s"] = float64(dp.filled) / (1 << 20) / dp.fill.Seconds()
	}
	m["transport.frames_per_op"] = float64(d.frames) / ops
	m["transport.wire_bytes_per_op"] = float64(d.wire[0]+d.wire[1]) / ops
	m["rpc.queue_wait_us"] = d.queue.meanUS()
	m["daemon.handle_meta_us"] = d.handle[0].meanUS()
	m["daemon.handle_write_us"] = d.handle[1].meanUS()
	m["daemon.handle_read_us"] = d.handle[2].meanUS()
	m["distributor.load_skew"] = 0 // no socket bytes at all: every read was a cache hit
	if total := d.wire[0] + d.wire[1]; total > 0 {
		m["distributor.load_skew"] = numDaemons * float64(max(d.wire[0], d.wire[1])) / float64(total)
	}
	m["process.alloc_bytes_per_op"] = float64(d.alloc) / ops
	m["process.allocs_per_op"] = float64(d.mallocs) / ops
	m["process.gc_pause_ms"] = float64(d.gcPause) / 1e6

	if dp, err = start(ctx, e, wl, true, 1); err != nil {
		return nil, err
	}
	traced, err := measure(ctx, e, wl, dp, false)
	recs := slices.Concat(dp.recs, dp.cl.vfsRecs)
	if err = errors.Join(err, dp.tearDown()); err != nil {
		return nil, err
	}
	layers := traceMetrics(m, traced, plain)
	if err := writeTrace(cfg.out, wl.name, recs, layers); err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", wl.name, err)
	}

	if err := runProbes(ctx, cfg, m); err != nil {
		return nil, err
	}
	m["ceiling.stream_write_fraction"] = mib / 1024 / min(m["ceiling.loopback_tcp_gib_s"], m["ceiling.pwrite_gib_s"])
	m["ceiling.stream_read_fraction"] = mib / 1024 / min(m["ceiling.loopback_tcp_gib_s"], m["ceiling.pread_gib_s"])

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["process.peak_rss_mib"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["process.goroutines_leaked"] = float64(leakedGoroutines(goroutines))

	r := &result{Workload: wl.name, Metrics: m, Layers: layers}
	r.close(e, traced)
	r.Attempted += plain.attempted
	r.Failed += plain.failed
	return r, nil
}

// leakedGoroutines waits for the connection goroutines that exit on
// their own once their socket is closed, then reports how many more
// goroutines run than did at the start.
func leakedGoroutines(atStart int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > atStart && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-atStart, 0)
}

// traceMetrics derives the T metrics from the traced pass and builds
// the layer-share table: how the workers' wall time splits between the
// harness, the client and waiting on the transport, and how the time of
// the transport calls splits between the layers below.
func traceMetrics(m metricSet, traced, plain *pass) []layerShare {
	st, d := traced.trace, traced.delta
	ops := float64(len(traced.lat))
	perOp := func(v float64) float64 { return v / ops }
	var clientCalls, calls float64
	for k := kCreate; k < kVfsOpen; k++ {
		if k.isOp() {
			clientCalls += float64(len(st.byKind[k]))
		} else {
			calls += float64(len(st.byKind[k]))
		}
	}

	m["client.op_self_us"] = float64(st.opSelf) / max(clientCalls, 1) / 1e3
	m["client.rpcs_per_op"] = perOp(calls)
	m["client.wire_bytes_per_payload_byte"] = 0
	if traced.payload > 0 {
		m["client.wire_bytes_per_payload_byte"] = float64(st.callBytes) / float64(traced.payload)
	}
	m["client.stage_wait_us"] = 0
	if len(st.byKind[kBarrier]) > 0 { // only write-behind workloads run barriers
		m["client.stage_wait_us"] = meanDur(st.byKind[kWrite], 1e3)
	}
	m["client.barrier_ms"] = meanDur(st.byKind[kBarrier], 1e6)
	m["client.cache_hit_share"] = 0
	if st.reads > 0 {
		m["client.cache_hit_share"] = float64(st.readHits) / float64(st.reads)
	}
	m["client.create_p50_us"] = medianDurUS(st.byKind[kCreate])
	m["client.stat_p50_us"] = medianDurUS(st.byKind[kStat])
	m["client.remove_p50_us"] = medianDurUS(st.byKind[kRemove])
	m["client.read_p50_us"] = medianDurUS(st.byKind[kRead])
	m["client.write_p50_us"] = medianDurUS(st.byKind[kWrite])
	m["client.op_p99_us"] = percentile(traced.lat, 0.99) / 1e3

	m["transport.call_meta_us"] = meanDur(st.byKind[kCallMeta], 1e3)
	m["transport.call_write_us"] = meanDur(st.byKind[kCallWrite], 1e3)
	m["transport.call_read_us"] = meanDur(st.byKind[kCallRead], 1e3)
	below := float64(d.queue.sum + d.handleNS)
	m["transport.self_us"] = (float64(st.callTime) - below) / max(calls, 1) / 1e3
	m["daemon.handler_self_us"] = (float64(d.handleNS) - float64(st.vfsTime)) / max(float64(d.handled), 1) / 1e3

	m["kvstore.wal_bytes_per_op"] = perOp(float64(st.walBytes))
	m["kvstore.sst_files_created"] = float64(st.sstCreated)
	daemonWall := float64(numDaemons) * float64(traced.elapsed)
	m["kvstore.vfs_busy_share"] = float64(st.metaBusy) / daemonWall
	m["chunkstore.vfs_busy_share"] = float64(st.chunksBusy) / daemonWall
	m["chunkstore.vfs_calls_per_chunk_op"] = 0
	if st.chunkOpen > 0 {
		m["chunkstore.vfs_calls_per_chunk_op"] = float64(st.chunkCalls) / float64(st.chunkOpen)
	}
	m["vfs.write_us"] = meanDur(st.byKind[kVfsWrite], 1e3)
	m["vfs.read_us"] = meanDur(st.byKind[kVfsRead], 1e3)
	m["vfs.sync_count"] = float64(st.syncs)

	m["trace.overhead_share"] = 1 - traced.opsPerS()/plain.opsPerS()
	workerWall := float64(numWorkers) * float64(traced.elapsed)
	m["trace.unattributed_share"] = 1 - float64(st.opTime)/workerWall

	share := func(layer string, v, of float64, what string) layerShare {
		return layerShare{layer, v / max(of, 1), what}
	}
	callTime := float64(st.callTime)
	return []layerShare{
		share("harness (generate + verify)", workerWall-float64(st.opTime), workerWall, "worker wall time"),
		share("client (self)", float64(st.opSelf), workerWall, "worker wall time"),
		share("blocked on transport.call", float64(st.opTime-st.opSelf), workerWall, "worker wall time"),
		share("transport (self)", callTime-below, callTime, "transport.call time"),
		share("rpc (queue wait)", float64(d.queue.sum), callTime, "transport.call time"),
		share("daemon (handler self)", float64(d.handleNS)-float64(st.vfsTime), callTime, "transport.call time"),
		share("kvstore (vfs under meta/)", float64(st.metaTime), callTime, "transport.call time"),
		share("chunkstore (vfs under chunks/)", float64(st.chunksTime), callTime, "transport.call time"),
	}
}
