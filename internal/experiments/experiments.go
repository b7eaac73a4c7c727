// Package experiments regenerates every figure and quantified in-text
// result of the paper's evaluation (§IV), one function per experiment,
// each returning a printable table. DESIGN.md's experiment index maps
// IDs (Fig2a…, T1…T4, A1, A2) to these functions; cmd/gkfs-sim exposes
// them on the command line and the repository-root benchmarks wrap them.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/gekkofs"
	"repro/internal/lustre"
	"repro/internal/sim"
	"repro/internal/simcluster"
)

// Table is one experiment's result, formatted for humans and for
// EXPERIMENTS.md.
type Table struct {
	// Title names the experiment ("Fig. 2a — create throughput").
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes carries the paper-versus-measured commentary.
	Notes []string
}

// Fprint renders the table as GitHub-flavored markdown.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n%s\n", n)
	}
	fmt.Fprintln(w)
}

// NodeSet returns the figure's node axis: powers of two from 1 to 512
// (quick mode stops at 64 for fast iteration).
func NodeSet(quick bool) []int {
	full := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	if quick {
		return full[:7]
	}
	return full
}

// windows returns warmup and measurement windows sized for the node
// count: bigger systems complete more events per simulated second, so
// shorter windows suffice.
func mdWindows(nodes int) (warmup, window time.Duration) {
	if nodes >= 256 {
		return 3 * time.Millisecond, 9 * time.Millisecond
	}
	return 5 * time.Millisecond, 20 * time.Millisecond
}

func ioWindows(nodes int) (warmup, window time.Duration) {
	if nodes >= 256 {
		return 30 * time.Millisecond, 60 * time.Millisecond
	}
	return 40 * time.Millisecond, 80 * time.Millisecond
}

func fm(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// Fig2 regenerates one panel of Figure 2: create (a), stat (b) or remove
// (c) throughput for GekkoFS and the Lustre baseline in both directory
// configurations, across the node axis.
func Fig2(op simcluster.MDOp, nodes []int) Table {
	panel := map[simcluster.MDOp]string{
		simcluster.MDOpCreate: "2a", simcluster.MDOpStat: "2b", simcluster.MDOpRemove: "2c",
	}[op]
	t := Table{
		Title: fmt.Sprintf("Fig. %s — %s throughput (ops/s), 16 procs/node, single dir", panel, op),
		Columns: []string{"nodes", "GekkoFS", "Lustre single dir", "Lustre unique dir",
			"GekkoFS / Lustre single"},
	}
	p := simcluster.DefaultParams()
	lp := lustre.DefaultParams()
	lop := lustre.MDOp(op)
	for _, n := range nodes {
		warm, win := mdWindows(n)
		g := simcluster.RunMetadata(p, n, op, warm, win, 1)
		ls := lustre.RunMetadata(lp, n, lop, true, 20*time.Millisecond, 80*time.Millisecond, 1)
		lu := lustre.RunMetadata(lp, n, lop, false, 20*time.Millisecond, 80*time.Millisecond, 1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fm(g.OpsPerSec), fm(ls.OpsPerSec), fm(lu.OpsPerSec),
			fmt.Sprintf("%.0fx", g.OpsPerSec/ls.OpsPerSec),
		})
	}
	t.Notes = append(t.Notes,
		"Paper @512 nodes: ~46M creates/s (~1405x Lustre), ~44M stats/s (~359x), ~22M removes/s (~453x); GekkoFS close to linear, Lustre flat.")
	return t
}

// TransferSizes is Fig. 3's transfer-size axis.
var TransferSizes = []int64{8 << 10, 64 << 10, 1 << 20, 64 << 20}

func tsName(ts int64) string {
	switch {
	case ts >= 1<<20:
		return fmt.Sprintf("%dm", ts>>20)
	default:
		return fmt.Sprintf("%dk", ts>>10)
	}
}

// Fig3 regenerates one panel of Figure 3: sequential write (a) or read
// (b) throughput per transfer size, against the aggregated-SSD peak
// reference.
func Fig3(write bool, nodes []int) Table {
	panel, verb := "3a", "write"
	if !write {
		panel, verb = "3b", "read"
	}
	cols := []string{"nodes"}
	for _, ts := range TransferSizes {
		cols = append(cols, tsName(ts)+" MiB/s")
	}
	cols = append(cols, "SSD peak MiB/s", "64m efficiency")
	t := Table{
		Title:   fmt.Sprintf("Fig. %s — sequential %s throughput, file-per-process, 16 procs/node", panel, verb),
		Columns: cols,
	}
	p := simcluster.DefaultParams()
	for _, n := range nodes {
		warm, win := ioWindows(n)
		row := []string{fmt.Sprint(n)}
		var last float64
		for _, ts := range TransferSizes {
			r := simcluster.RunIO(p, simcluster.IOConfig{
				Nodes: n, Write: write, TransferSize: ts,
				Warmup: warm, Window: win, Seed: 3,
			})
			row = append(row, fmt.Sprintf("%.0f", r.MiBPerSec))
			last = r.MiBPerSec
		}
		peak := simcluster.AggregateSSDPeak(p, n, write)
		row = append(row, fmt.Sprintf("%.0f", peak), fmt.Sprintf("%.0f%%", 100*last/peak))
		t.Rows = append(t.Rows, row)
	}
	if write {
		t.Notes = append(t.Notes, "Paper @512 nodes: ~141 GiB/s (~144,384 MiB/s), ~80% of the aggregated SSD write peak at 64 MiB transfers.")
	} else {
		t.Notes = append(t.Notes, "Paper @512 nodes: ~204 GiB/s (~208,896 MiB/s), ~70% of the aggregated SSD read peak at 64 MiB transfers.")
	}
	return t
}

// TextRandVsSeq regenerates T1 (§IV-B): random versus sequential
// throughput per transfer size at the given node count.
func TextRandVsSeq(nodes int) Table {
	t := Table{
		Title:   fmt.Sprintf("T1 — random vs sequential throughput, %d nodes", nodes),
		Columns: []string{"op", "transfer", "sequential MiB/s", "random MiB/s", "delta"},
	}
	p := simcluster.DefaultParams()
	warm, win := ioWindows(nodes)
	for _, write := range []bool{true, false} {
		verb := "write"
		if !write {
			verb = "read"
		}
		for _, ts := range []int64{8 << 10, 64 << 10, 512 << 10, 1 << 20} {
			seq := simcluster.RunIO(p, simcluster.IOConfig{
				Nodes: nodes, Write: write, TransferSize: ts, Warmup: warm, Window: win, Seed: 4,
			})
			rnd := simcluster.RunIO(p, simcluster.IOConfig{
				Nodes: nodes, Write: write, TransferSize: ts, Random: true, Warmup: warm, Window: win, Seed: 4,
			})
			t.Rows = append(t.Rows, []string{
				verb, tsName(ts), fmt.Sprintf("%.0f", seq.MiBPerSec), fmt.Sprintf("%.0f", rnd.MiBPerSec),
				fmt.Sprintf("%+.0f%%", 100*(rnd.MiBPerSec/seq.MiBPerSec-1)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"Paper @512 nodes, 8 KiB: random write ≈ −33%, random read ≈ −60%; no difference at or above the 512 KiB chunk size.")
	return t
}

// TextSharedFile regenerates T2 (§IV-B): the shared-file size-update
// bottleneck and the client size cache that removes it.
func TextSharedFile(nodes int) Table {
	t := Table{
		Title:   fmt.Sprintf("T2 — shared-file writes (64 KiB transfers), %d nodes", nodes),
		Columns: []string{"configuration", "ops/s", "MiB/s", "vs file-per-process"},
	}
	p := simcluster.DefaultParams()
	warm, win := ioWindows(nodes)
	run := func(shared bool, cacheOps int) simcluster.Result {
		return simcluster.RunIO(p, simcluster.IOConfig{
			Nodes: nodes, Write: true, TransferSize: 64 << 10,
			Shared: shared, SizeCacheOps: cacheOps,
			Warmup: warm, Window: win, Seed: 5,
		})
	}
	fpp := run(false, 0)
	noCache := run(true, 0)
	cache := run(true, 32)
	row := func(name string, r simcluster.Result) []string {
		return []string{name, fm(r.OpsPerSec), fmt.Sprintf("%.0f", r.MiBPerSec),
			fmt.Sprintf("%.0f%%", 100*r.MiBPerSec/fpp.MiBPerSec)}
	}
	t.Rows = append(t.Rows,
		row("file-per-process", fpp),
		row("shared, no cache", noCache),
		row("shared, size cache (32 ops)", cache))
	t.Notes = append(t.Notes,
		"Paper: without caching no more than ~150K write ops/s (size updates contend on one daemon); with the client size cache shared-file throughput matches file-per-process.")
	return t
}

// TextLatency regenerates T3: mean operation latency per transfer size.
func TextLatency(nodes int) Table {
	t := Table{
		Title:   fmt.Sprintf("T3 — mean write latency by transfer size, %d nodes", nodes),
		Columns: []string{"transfer", "mean latency", "within paper bound (700µs @ 8 KiB)"},
	}
	p := simcluster.DefaultParams()
	warm, win := ioWindows(nodes)
	for _, ts := range []int64{8 << 10, 64 << 10} {
		r := simcluster.RunIO(p, simcluster.IOConfig{
			Nodes: nodes, Write: true, TransferSize: ts, Warmup: warm, Window: win, Seed: 6,
		})
		bound := "-"
		if ts == 8<<10 {
			if r.MeanLatency <= 700*time.Microsecond {
				bound = "yes"
			} else {
				bound = "NO"
			}
		}
		t.Rows = append(t.Rows, []string{tsName(ts), r.MeanLatency.Round(time.Microsecond).String(), bound})
	}
	t.Notes = append(t.Notes, "Paper: average latency bounded by at most 700 µs for 8 KiB operations at 512 nodes.")
	return t
}

// TextStartup regenerates T4: deployment time. The modeled launch is a
// tree-structured job start plus per-daemon initialization (storage scan
// and KV recovery dominate on real nodes); the real column measures this
// repository's in-process bring-up where feasible.
func TextStartup(nodes []int, measureReal bool) Table {
	t := Table{
		Title:   "T4 — deployment time",
		Columns: []string{"nodes", "modeled startup", "measured in-process bring-up"},
	}
	for _, n := range nodes {
		modeled := SimStartup(n, 9)
		real := "-"
		if measureReal && n <= 64 {
			c, err := gekkofs.New(gekkofs.WithNodes(n))
			if err == nil {
				real = c.DeployTime().Round(time.Millisecond).String()
				c.Close()
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), modeled.Round(10 * time.Millisecond).String(), real})
	}
	t.Notes = append(t.Notes, "Paper: GekkoFS deploys in under 20 s on 512 nodes; daemons restart in <20 s between experiment iterations.")
	return t
}

// SimStartup models bring-up: a binary launch tree (parallel job start),
// per-daemon initialization drawn from 1.5–4.5 s (storage scan, KV
// recovery, RPC registration), and a registration barrier.
func SimStartup(nodes int, seed uint64) time.Duration {
	rng := sim.NewRNG(seed)
	depth := 0
	for n := 1; n < nodes; n *= 2 {
		depth++
	}
	launch := time.Duration(depth) * 120 * time.Millisecond
	var maxInit time.Duration
	for i := 0; i < nodes; i++ {
		init := 1500*time.Millisecond + time.Duration(rng.Float64()*3000)*time.Millisecond
		if init > maxInit {
			maxInit = init
		}
	}
	barrier := time.Duration(depth) * 40 * time.Millisecond
	return launch + maxInit + barrier
}

// AblationChunkSize regenerates A1 — the paper's "investigate various
// chunk sizes" future work: sequential write bandwidth and 8 KiB latency
// across chunk sizes.
func AblationChunkSize(nodes int) Table {
	t := Table{
		Title:   fmt.Sprintf("A1 — chunk-size ablation, %d nodes", nodes),
		Columns: []string{"chunk size", "64m write MiB/s", "1m write MiB/s", "8k write MiB/s", "8k mean latency"},
	}
	warm, win := ioWindows(nodes)
	for _, chunk := range []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20} {
		p := simcluster.DefaultParams()
		p.ChunkSize = chunk
		p.SSD.RandomFadeBytes = chunk // accesses ≥ chunk are whole-file
		var row []string
		row = append(row, tsName(chunk))
		var lat8k time.Duration
		for _, ts := range []int64{64 << 20, 1 << 20, 8 << 10} {
			r := simcluster.RunIO(p, simcluster.IOConfig{
				Nodes: nodes, Write: true, TransferSize: ts, Warmup: warm, Window: win, Seed: 7,
			})
			row = append(row, fmt.Sprintf("%.0f", r.MiBPerSec))
			if ts == 8<<10 {
				lat8k = r.MeanLatency
			}
		}
		row = append(row, lat8k.Round(time.Microsecond).String())
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Larger chunks amortize per-chunk-file overheads for streaming I/O; smaller chunks spread single-file access over more daemons. The paper ships 512 KiB and defers this sweep to future work.")
	return t
}

// AblationDistributor regenerates A2 — "explore different data
// distribution patterns": the paper's hashing versus a BurstFS-style
// write-local placement, under a balanced load (every node writes) and
// a skewed one (half the nodes write, e.g. a coupled workflow's
// producer stage).
func AblationDistributor(nodes int) Table {
	t := Table{
		Title:   fmt.Sprintf("A2 — data distribution ablation (1 MiB writes), %d nodes", nodes),
		Columns: []string{"placement", "all nodes writing MiB/s", "half the nodes writing MiB/s"},
	}
	p := simcluster.DefaultParams()
	warm, win := ioWindows(nodes)
	run := func(local bool, frac float64) simcluster.Result {
		return simcluster.RunIO(p, simcluster.IOConfig{
			Nodes: nodes, Write: true, TransferSize: 1 << 20, LocalWrites: local,
			ProducerFrac: frac, Warmup: warm, Window: win, Seed: 8,
		})
	}
	for _, local := range []bool{false, true} {
		name := "hash (GekkoFS)"
		if local {
			name = "write-local (BurstFS-style)"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.0f", run(local, 1).MiBPerSec),
			fmt.Sprintf("%.0f", run(local, 0.5).MiBPerSec),
		})
	}
	t.Notes = append(t.Notes,
		"Under uniform load both placements saturate every SSD. With a skewed producer set, hashing still spreads chunks over all nodes' SSDs while write-local is confined to the producers' — the balance argument behind GekkoFS's wide striping (paper §III-B).")
	return t
}
