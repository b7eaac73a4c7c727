// Package staging is the data-movement layer between a GekkoFS
// deployment and the permanent parallel file system. GekkoFS is a
// temporary file system living for one job (paper §I, §III): inputs must
// be staged in from the PFS at startup and results flushed back out at
// teardown. This package implements that lifecycle as a parallel
// transfer engine over the client library.
//
// A transfer is a list of byte ranges moved by one worker pool over the
// client's descriptor-free data path:
//
//   - Stage-in walks a host directory tree, creates the namespace
//     through the vectored metadata plane (CreateMany batches, one RPC
//     per daemon), writes every range with WritePath, and publishes each
//     file's size once its last range has landed, through batched
//     GrowMany updates — data always lands before the size.
//   - Stage-out drains the cluster tree via paginated ReadDir, recreates
//     it on the host file system, and reads every range with ReadPath:
//     the file as it is now. A checkpoint that must not change while it
//     drains is written to a directory of its own, which the job leaves
//     alone until the drain is done.
//   - Neither direction opens a descriptor or touches the client's chunk
//     cache, so a transfer never answers from bytes an earlier one read.
//   - Both directions are sparse-aware: runs of zeros are never
//     transferred — they become holes on whichever side receives them.
//
// Per-file failures never abort a transfer; they are collected into the
// Report (errors.Join semantics) while siblings keep moving.
package staging

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// Defaults and tuning constants.
const (
	// DefaultWorkers is the transfer pool size when Options.Workers is 0.
	DefaultWorkers = 8
	// bufBytes is a copy region, in both directions: one WritePath or
	// ReadPath fan-out. Median MiB/s staging in / out through 4
	// gkfs-daemon processes on loopback TCP (512 KiB chunks, 8 workers,
	// 2 vCPU), 1 / 2 / 4 MiB windows: one 64 MiB file 1250 / 1430,
	// 1150 / 1570, 980 / 1670; 8 × 3 MiB files 830 / 1570, 840 / 1540,
	// 720 / 1580. Bigger windows cost stage-in more than they give
	// stage-out; 2 MiB is within the spread of 1 MiB at twice the memory.
	bufBytes = 1 << 20
	// pipeDepth is how many windows of one range pump keeps in flight.
	// Root BenchmarkStageIn / BenchmarkStageOut through 4 in-process
	// daemons on loopback TCP (64 KiB chunks, 4 workers, 2 vCPU), median
	// MB/s of 5 runs for large (one 16 MiB file) / midfiles (twelve of
	// 1–4 MiB): depth 2 in 1100 / 1250, out 855 / 755; depth 3 in
	// 1200 / 1265, out 855 / 706; depth 4 in 1110 / 1160, out 845 / 625.
	// Depth 2 drains midfiles faster (depth 3's runs spread 571–785) and
	// stages large in slower; depth 4 loses both midfiles; 3 is kept.
	pipeDepth = 3
	// rangeBytes is the striping granularity: a file larger than this is
	// transferred as that many concurrent ranges, so one giant checkpoint
	// engages as many workers as a directory of files would.
	rangeBytes = 4 << 20
	// zeroProbe is the zero-run detection granularity: aligned runs of
	// zeros at least this long are transferred as holes.
	zeroProbe = 4 << 10
	// growBatchSize bounds how many finished stage-in files one worker
	// accumulates before publishing their sizes through GrowMany.
	growBatchSize = 256
)

// Options tune a transfer. The zero value is a sensible default.
type Options struct {
	// Workers bounds concurrent range transfers (default DefaultWorkers).
	Workers int
}

// Report is the structured outcome of one transfer. Partial failure is
// the normal failure mode: Failed counts files (or subtrees) that did
// not move, Errs says why, and everything else moved regardless.
type Report struct {
	// Dirs counts directories created on the receiving side.
	Dirs int
	// Files counts files fully transferred; Bytes their logical size sum
	// (holes count at full extent — the wire moves far less for them).
	Files int
	Bytes int64
	// Failed counts files and directories that did not transfer.
	Failed int
	// Unsupported counts entries staging deliberately cannot move —
	// symlinks, devices (GekkoFS has neither, paper §III-A). They are
	// listed in Notes, not in Errs: a tree whose data all moved is a
	// clean transfer even when markers like symlinks stayed behind.
	Unsupported int
	// Duration is the wall-clock transfer time.
	Duration time.Duration
	// Errs holds one error per failure, each naming the operation and
	// path.
	Errs []error
	// Notes records non-fatal observations (one per unsupported entry).
	Notes []string
}

// Err joins the per-file failures; nil means a fully clean transfer.
func (r *Report) Err() error { return errors.Join(r.Errs...) }

// Summary renders the report as one stable, grep-friendly line.
func (r *Report) Summary() string {
	return fmt.Sprintf("moved=%d files (%d bytes), dirs=%d, failed=%d, unsupported=%d, took=%v",
		r.Files, r.Bytes, r.Dirs, r.Failed, r.Unsupported, r.Duration.Round(time.Millisecond))
}

// errUnsupportedType reports a walk entry staging cannot move (GekkoFS
// has no symlinks or special files — paper §III-A).
var errUnsupportedType = errors.New("staging: unsupported file type (not a regular file or directory)")

// engine carries one transfer's shared state.
type engine struct {
	c    *client.Client
	opts Options
	// op names the direction ("stage-in", "stage-out") in range failures.
	op string

	mu  sync.Mutex
	rep Report // guarded by mu
}

func newEngine(c *client.Client, opts Options, op string) *engine {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	return &engine{c: c, opts: opts, op: op}
}

func (e *engine) fail(op, path string, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Failed++
	e.rep.Errs = append(e.rep.Errs, fmt.Errorf("%s %s: %w", op, path, err))
}

// unsupported records an entry staging cannot move without failing the
// transfer.
func (e *engine) unsupported(path string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Unsupported++
	e.rep.Notes = append(e.rep.Notes, fmt.Sprintf("stage-in %s: %v", path, errUnsupportedType))
}

// done records one fully transferred file.
func (e *engine) done(size int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Files++
	e.rep.Bytes += size
}

// report stamps the elapsed time and hands out the engine's report.
// Every StageIn/StageOut exit funnels through here, so the guarded
// fields are touched under mu even in the single-threaded phases.
func (e *engine) report(begin time.Time) *Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Duration = time.Since(begin)
	return &e.rep
}

// dirDone counts one created directory.
func (e *engine) dirDone() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Dirs++
}

// --- zero-run detection ---

var zeroBlock [zeroProbe]byte

// isZero reports whether b is all zeros (vectorized via bytes.Equal
// against a static zero block; non-zero data exits on the first word).
func isZero(b []byte) bool {
	for len(b) >= zeroProbe {
		if !bytes.Equal(b[:zeroProbe], zeroBlock[:]) {
			return false
		}
		b = b[zeroProbe:]
	}
	return bytes.Equal(b, zeroBlock[:len(b)])
}

// forNonzero calls fn for each maximal run of zeroProbe-granular blocks
// of p containing any nonzero byte. Aligned zero runs are simply never
// visited: unwritten GekkoFS regions and host-file holes both read as
// zeros, so skipping them is lossless and is what turns sparse files
// back into sparse files on the other side.
func forNonzero(p []byte, fn func(lo, hi int64) error) error {
	runStart := -1
	for b := 0; b < len(p); b += zeroProbe {
		end := min(b+zeroProbe, len(p))
		if isZero(p[b:end]) {
			if runStart >= 0 {
				if err := fn(int64(runStart), int64(b)); err != nil {
					return err
				}
				runStart = -1
			}
		} else if runStart < 0 {
			runStart = b
		}
	}
	if runStart >= 0 {
		return fn(int64(runStart), int64(len(p)))
	}
	return nil
}

// --- path plumbing ---

// fsJoin joins a cluster root and a slash-relative path.
func fsJoin(root, rel string) string {
	if rel == "" || rel == "." {
		return root
	}
	if root == meta.Root {
		return "/" + rel
	}
	return root + "/" + rel
}

// --- ranges ---

// xfile is one file of a transfer, shared by its ranges: the file counts
// as moved only when every range landed, and the first failing range
// reports for all of them.
type xfile struct {
	fsPath, hostPath string
	// size is what the walk saw: the host file's size staging in, the
	// listed cluster size staging out. It shapes the ranges and clamps
	// their reads; the last range still reads to EOF.
	size int64
	// existed marks a stage-in file whose cluster record pre-existed
	// (restaging over an older version).
	existed bool

	// prep empties the receiving side once, before any range's data
	// lands: zero runs are never written, so an older version's bytes
	// would show through them. prepErr is its outcome, read by every
	// range after prep.Do returns.
	prep    sync.Once
	prepErr error

	remaining atomic.Int32
	failed    atomic.Bool
	maxEnd    atomic.Int64 // highest offset a range observed bytes up to
}

// stageWork is one worker-pool item: the byte range [off, end) of file.
// A file's last range is open-ended (end = math.MaxInt64): it reads to
// EOF, so a file that grew since the walk moves whole.
type stageWork struct {
	file     *xfile
	off, end int64
}

// split appends f's ranges to queue: one per rangeBytes of its walk-time
// size.
func split(queue []stageWork, f *xfile) []stageWork {
	n := max(1, (f.size+rangeBytes-1)/rangeBytes)
	f.remaining.Store(int32(n))
	for i := range n - 1 {
		queue = append(queue, stageWork{file: f, off: i * rangeBytes, end: (i + 1) * rangeBytes})
	}
	return append(queue, stageWork{file: f, off: (n - 1) * rangeBytes, end: math.MaxInt64})
}

// run pumps queue through the worker pool: each of the Workers
// goroutines runs worker over its share of the queue.
func (e *engine) run(queue []stageWork, worker func(work <-chan stageWork)) {
	work := make(chan stageWork)
	var wg sync.WaitGroup
	for range e.opts.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(work)
		}()
	}
	for _, w := range queue {
		work <- w
	}
	close(work)
	wg.Wait()
}

// move runs one range's copy — unless a sibling range already failed,
// which would make it a waste of the wire — and retires the range. The
// copy returns the offset it reached. move reports the file's extent and
// true to the caller retiring the last range of a file whose ranges all
// succeeded: that caller finishes the file.
func (e *engine) move(w stageWork, body func() (int64, error)) (int64, bool) {
	f := w.file
	if !f.failed.Load() {
		reached, err := body()
		if err != nil {
			e.failFile(f, err)
		} else if reached > w.off {
			// Only a range that observed bytes (data or in-size holes)
			// extends the file: one past the EOF of a file that shrank
			// since the walk must not pad it out to its own start.
			for cur := f.maxEnd.Load(); reached > cur && !f.maxEnd.CompareAndSwap(cur, reached); {
				cur = f.maxEnd.Load()
			}
		}
	}
	if f.remaining.Add(-1) != 0 || f.failed.Load() {
		return 0, false
	}
	return f.maxEnd.Load(), true
}

// failFile records f's failure once.
func (e *engine) failFile(f *xfile, err error) {
	if f.failed.CompareAndSwap(false, true) {
		e.fail(e.op, f.fsPath, err)
	}
}

// pump copies the range w from read to write, skipping zero runs, and
// returns the offset it reached: w's end, or where read reported EOF. It
// is a read window feeding a write window (client.Window): up to
// pipeDepth regions are held, each read ahead, taken in stream order,
// then written, and a region returns to the pool when its write lands.
// Reads run ahead and writes trail behind, so the cluster side of a
// transfer — either direction's — never waits on the host side, even for
// a file that is one range. Taking reads in stream order is what finds
// EOF: the first short read ends the range, and nothing past it is
// written. Every read and write pump starts has finished when it returns.
//
// Each read is clamped to the walk-time size plus one byte: a file at
// that size answers one right-sized read whose EOF arrives with the data,
// instead of a region-wide fan-out (ruinous for small files), while the
// extra byte keeps a file that grew since the walk reading. Past that
// byte, reads go one region at a time, so a file that did not grow costs
// no read beyond its EOF.
func pump(w stageWork, read func(p []byte, off int64) (int, error), write func(p []byte, off int64) error) (int64, error) {
	rd, wr := client.NewWindow(pipeDepth), client.NewWindow(pipeDepth)
	var (
		queue   []*client.Slot // reads started and not yet taken, in stream order
		next    = w.off        // where the next read starts
		reached = w.off        // end of the bytes taken
		ended   bool           // a read reported EOF
		err     error          // first read or write failure
		size    = w.file.size
	)
	for {
		if err == nil {
			err = wr.TakeErr()
		}
		// Read ahead while a region is free. A full window stops the
		// read-ahead while a read waits to be taken — taking never waits
		// on a write — and is waited for otherwise.
		for err == nil && !ended && next < w.end && (next <= size || len(queue) == 0) && (len(queue) == 0 || !rd.Full()) {
			want := min(int64(bufBytes), w.end-next)
			if size >= next {
				want = min(want, size-next+1)
			}
			off := next
			buf := rpc.GetBuf(int(want))
			queue = append(queue, rd.Start(off, off+want, buf, func() (int, error) { return read(buf, off) }))
			next += want
		}
		if len(queue) == 0 {
			break
		}
		s := queue[0]
		queue = queue[1:]
		data, rerr := rd.Wait(s)
		if err != nil || ended {
			rd.Drop(s.Off, s.End) // read ahead of a failure or of EOF
			continue
		}
		reached = s.Off + int64(len(data))
		wr.Start(s.Off, s.End, nil, func() (int, error) {
			werr := forNonzero(data, func(lo, hi int64) error {
				return write(data[lo:hi], s.Off+lo)
			})
			rd.Drop(s.Off, s.End) // written: the region is free again
			return 0, werr
		})
		wr.Drop(s.Off, s.End)
		switch {
		case errors.Is(rerr, io.EOF) || rerr == nil && s.Off+int64(len(data)) < s.End:
			// Both readers end a short read with io.EOF; a bare short
			// read still ends the stream rather than leave a gap under
			// the reads ahead of it.
			ended = true
		case rerr != nil:
			err = rerr
		}
	}
	wr.Drain()
	if err == nil {
		err = wr.TakeErr()
	}
	return reached, err
}

// --- stage-in ---

// StageIn copies the directory tree under hostDir into the cluster at
// fsDir (created if missing). The returned Report is never nil; the
// error covers structural failures only (bad arguments, unreadable
// source root) — per-file failures land in the Report.
func StageIn(c *client.Client, hostDir, fsDir string, opts Options) (*Report, error) {
	begin := time.Now()
	e := newEngine(c, opts, "stage-in")
	fsRoot, err := meta.Clean(fsDir)
	if err != nil {
		return e.report(begin), fmt.Errorf("staging: destination %q: %w", fsDir, err)
	}
	if info, err := os.Stat(hostDir); err != nil {
		return e.report(begin), fmt.Errorf("staging: source: %w", err)
	} else if !info.IsDir() {
		return e.report(begin), fmt.Errorf("staging: source %s is not a directory", hostDir)
	}

	// Walk the host tree. The walk returns nil for every per-entry
	// problem (recorded in the report), so WalkDir itself cannot fail
	// past the root.
	var dirs []string
	var files []*xfile
	_ = filepath.WalkDir(hostDir, func(p string, d iofs.DirEntry, werr error) error {
		if werr != nil {
			e.fail("walk", p, werr)
			if d != nil && d.IsDir() {
				return iofs.SkipDir
			}
			return nil
		}
		rel, rerr := filepath.Rel(hostDir, p)
		if rerr != nil {
			e.fail("walk", p, rerr)
			return nil
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			return nil
		}
		switch {
		case d.IsDir():
			dirs = append(dirs, rel)
		case d.Type().IsRegular():
			fi, err := d.Info()
			if err != nil {
				e.fail("walk", p, err)
				return nil
			}
			files = append(files, &xfile{fsPath: fsJoin(fsRoot, rel), hostPath: p, size: fi.Size()})
		default:
			e.unsupported(p)
		}
		return nil
	})

	// Namespace: the destination root, then the tree's directories in
	// walk order (parents first), then every file record in sharded
	// CreateMany batches — one RPC per daemon instead of one per file.
	if err := c.MkdirAll(fsRoot); err != nil {
		return e.report(begin), fmt.Errorf("staging: create %s: %w", fsRoot, err)
	}
	for _, rel := range dirs {
		p := fsJoin(fsRoot, rel)
		if err := c.Mkdir(p); err != nil && !errors.Is(err, proto.ErrExist) {
			e.fail("mkdir", p, err)
			continue
		}
		e.dirDone()
	}
	paths := make([]string, len(files))
	for i, f := range files {
		paths[i] = f.fsPath
	}
	var queue []stageWork
	for i, err := range c.CreateMany(paths) {
		switch {
		case err == nil:
		case errors.Is(err, proto.ErrExist):
			// The record pre-existed (restaging over a previous job's
			// tree, or a directory squatting on the name — the truncate
			// will say which).
			files[i].existed = true
		default:
			e.fail("create", paths[i], err)
			continue
		}
		queue = split(queue, files[i])
	}

	e.run(queue, func(work <-chan stageWork) {
		var gb growBatch
		for w := range work {
			e.copyIn(&gb, w)
		}
		e.flushGrow(&gb)
	})
	return e.report(begin), nil
}

// copyIn moves one range of a host file into the cluster as bare chunk
// writes (WritePath: no descriptor, no stat, no size update). Ranges of
// one file write disjoint bytes, so they need no coordination beyond the
// one truncate of a pre-existing record. The range finishing the file
// hands its size to the worker's GrowMany batch: the size is published
// only after every byte landed, and never for a file that failed.
func (e *engine) copyIn(gb *growBatch, w stageWork) {
	f := w.file
	size, last := e.move(w, func() (int64, error) {
		f.prep.Do(func() {
			if f.existed {
				f.prepErr = e.c.Truncate(f.fsPath, 0)
			}
		})
		if f.prepErr != nil || f.size == 0 {
			// A file the walk saw empty is moved by its record alone:
			// marker and lock files come by the thousand, and opening
			// each would cost more than the rest of its transfer.
			return w.off, f.prepErr
		}
		src, err := os.Open(f.hostPath)
		if err != nil {
			return w.off, err
		}
		defer src.Close()
		return pump(w, src.ReadAt, func(p []byte, off int64) error {
			return e.c.WritePath(f.fsPath, p, off)
		})
	})
	switch {
	case !last:
	case size == 0:
		e.done(0) // created (or truncated) empty: nothing to publish
	default:
		gb.paths = append(gb.paths, f.fsPath)
		gb.sizes = append(gb.sizes, size)
		if len(gb.paths) >= growBatchSize {
			e.flushGrow(gb)
		}
	}
}

// growBatch holds one worker's finished stage-in files whose sizes are
// not yet published, flushed through the vector plane in one batched RPC
// per daemon.
type growBatch struct {
	paths []string
	sizes []int64
}

func (e *engine) flushGrow(gb *growBatch) {
	if len(gb.paths) == 0 {
		return
	}
	for i, err := range e.c.GrowMany(gb.paths, gb.sizes) {
		if err != nil {
			e.fail("stage-in size", gb.paths[i], err)
			continue
		}
		e.done(gb.sizes[i])
	}
	gb.paths, gb.sizes = gb.paths[:0], gb.sizes[:0]
}

// --- stage-out ---

// StageOut copies the cluster tree under fsDir into hostDir (created if
// missing). The returned Report is never nil; the error covers
// structural failures only.
func StageOut(c *client.Client, fsDir, hostDir string, opts Options) (*Report, error) {
	begin := time.Now()
	e := newEngine(c, opts, "stage-out")
	fsRoot, err := meta.Clean(fsDir)
	if err != nil {
		return e.report(begin), fmt.Errorf("staging: source %q: %w", fsDir, err)
	}
	if info, err := c.Stat(fsRoot); err != nil {
		return e.report(begin), fmt.Errorf("staging: source %s: %w", fsRoot, err)
	} else if !info.IsDir() {
		return e.report(begin), fmt.Errorf("staging: source %s: %w", fsRoot, proto.ErrNotDir)
	}
	if err := os.MkdirAll(hostDir, 0o777); err != nil {
		return e.report(begin), fmt.Errorf("staging: destination: %w", err)
	}

	// Walk the cluster tree (paginated ReadDir under the hood), creating
	// host directories as encountered and queueing every file's ranges.
	var queue []stageWork
	var walk func(rel string)
	walk = func(rel string) {
		fsPath := fsJoin(fsRoot, rel)
		ents, err := c.ReadDir(fsPath)
		if err != nil {
			e.fail("stage-out readdir", fsPath, err)
			return
		}
		for _, en := range ents {
			childRel := en.Name
			if rel != "" {
				childRel = rel + "/" + en.Name
			}
			hostPath := filepath.Join(hostDir, filepath.FromSlash(childRel))
			if en.IsDir {
				if err := os.MkdirAll(hostPath, 0o777); err != nil {
					e.fail("stage-out mkdir", hostPath, err)
					continue
				}
				e.dirDone()
				walk(childRel)
				continue
			}
			queue = split(queue, &xfile{fsPath: fsJoin(fsRoot, childRel), hostPath: hostPath, size: en.Size})
		}
	}
	walk("")

	e.run(queue, func(work <-chan stageWork) {
		for w := range work {
			e.copyOut(w)
		}
	})
	return e.report(begin), nil
}

// copyOut moves one range of a cluster file onto the host. Every read is
// a descriptor-free ReadPath: the file as it is now, never a cached
// block. The range finishing the file settles the host copy's length at the extent the
// ranges observed: past a trailing hole, or short of a file that shrank.
func (e *engine) copyOut(w stageWork) {
	f := w.file
	size, last := e.move(w, func() (int64, error) {
		dst, err := os.OpenFile(f.hostPath, os.O_WRONLY|os.O_CREATE, 0o666)
		if err != nil {
			return w.off, err
		}
		f.prep.Do(func() { f.prepErr = dst.Truncate(0) })
		reached, err := w.off, f.prepErr
		if err == nil {
			reached, err = pump(w, func(p []byte, off int64) (int, error) {
				return e.c.ReadPath(f.fsPath, p, off)
			}, func(p []byte, off int64) error {
				_, err := dst.WriteAt(p, off)
				return err
			})
		}
		return reached, errors.Join(err, dst.Close())
	})
	if !last {
		return
	}
	if err := os.Truncate(f.hostPath, size); err != nil {
		e.failFile(f, err)
		return
	}
	e.done(size)
}
