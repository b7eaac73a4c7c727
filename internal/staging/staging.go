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
//     alone until the drain is done. Stage-out can run incrementally
//     against a staging manifest: files provably unmodified since
//     stage-in move zero bytes.
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
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
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
	// pipeDepth is how many windows of one range pump keeps in flight:
	// one being read, one being hashed, one being written. One 32 MiB
	// file staged with a manifest through 4 in-process daemons on
	// loopback TCP (64 KiB chunks, 2 vCPU), MB/s in / out: serial copy
	// 490–550 / 375–410, depth 2 700–860 / 350–450, depth 3 740–880 /
	// 575–700, depth 4 750–920 / 580–680.
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
	// Manifest, when non-empty, names a host-side manifest file: stage-in
	// records every transferred file (size, SHA-256, cluster mtime) and
	// stage-out rewrites it to match what landed on the host. Content
	// hashing needs a sequential stream, so with a manifest every file
	// moves as a single range.
	Manifest string
	// Incremental makes stage-out skip files that are provably unmodified
	// since the manifest was written: cluster size and mtime still match
	// the entry, and the host copy verifies against the recorded hash.
	// Requires Manifest.
	Incremental bool
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
	// Skipped counts files an incremental stage-out proved unmodified;
	// SkippedBytes their logical sizes. Skipped files move zero bytes.
	Skipped      int
	SkippedBytes int64
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
	return fmt.Sprintf("moved=%d files (%d bytes), dirs=%d, skipped=%d (%d bytes), failed=%d, unsupported=%d, took=%v",
		r.Files, r.Bytes, r.Dirs, r.Skipped, r.SkippedBytes, r.Failed, r.Unsupported,
		r.Duration.Round(time.Millisecond))
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

	// mf is the manifest in play, nil when there is none. The pointer is
	// fixed before any worker starts; the manifest's contents are only
	// touched under mu.
	mf *Manifest

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

// done records one fully transferred file and, when a manifest is being
// built, its entry.
func (e *engine) done(rel string, size int64, h hash.Hash, mtimeNS int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Files++
	e.rep.Bytes += size
	if e.mf != nil {
		ent := Entry{Rel: rel, Size: size, MTimeNS: mtimeNS}
		if h != nil {
			ent.Hash = hex.EncodeToString(h.Sum(nil))
		}
		e.mf.Put(ent)
	}
}

func (e *engine) skip(size int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Skipped++
	e.rep.SkippedBytes += size
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

// dirDone counts one created directory and records it in the manifest
// when one is in play.
func (e *engine) dirDone(rel string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Dirs++
	if e.mf != nil {
		e.mf.Put(Entry{Rel: rel, Dir: true, MTimeNS: time.Now().UnixNano()})
	}
}

// writeManifest persists the manifest when one is in play.
func (e *engine) writeManifest() error {
	if e.mf == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mf.WriteFile(e.opts.Manifest)
}

// lookupEntry reads a manifest entry under the engine lock (workers
// update the manifest concurrently).
func (e *engine) lookupEntry(rel string) (Entry, bool) {
	if e.mf == nil {
		return Entry{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mf.Get(rel)
}

// newHash returns a SHA-256 only when a manifest wants one — hashing is
// pure overhead otherwise.
func (e *engine) newHash() hash.Hash {
	if e.mf == nil {
		return nil
	}
	return sha256.New()
}

// manifestable reports whether rel can be recorded in the line-oriented
// manifest. When a manifest is active, unrepresentable names (line
// breaks, unclean forms) fail their file up front — transferring it and
// then corrupting or forging manifest lines would be worse.
func (e *engine) manifestable(rel string) error {
	if e.mf == nil {
		return nil
	}
	return checkRel(rel)
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
	rel, fsPath, hostPath string
	// size is what the walk saw: the host file's size staging in, the
	// listed (or, incrementally, stat'ed) cluster size staging out. It
	// shapes the ranges and clamps their reads; the last range still
	// reads to EOF.
	size int64
	// mtimeNS is the stat'ed cluster mtime (hasStat: incremental
	// stage-out, whose skip check needs both).
	mtimeNS int64
	hasStat bool
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
// size. With a manifest every file stays one range — its hash needs one
// sequential stream.
func (e *engine) split(queue []stageWork, f *xfile) []stageWork {
	n := int64(1)
	if e.mf == nil {
		n = max(1, (f.size+rangeBytes-1)/rangeBytes)
	}
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

// failFile records f's failure once and forgets its manifest entry, so a
// later incremental pass cannot wrongly skip it.
func (e *engine) failFile(f *xfile, err error) {
	if !f.failed.CompareAndSwap(false, true) {
		return
	}
	e.fail(e.op, f.fsPath, err)
	if e.mf != nil {
		e.mu.Lock()
		e.mf.Delete(f.rel)
		e.mu.Unlock()
	}
}

// pump copies the range w from read to write, skipping zero runs and
// feeding h when non-nil, and returns the offset it reached: w's end, or
// where read reported EOF. It is a read window feeding a write window
// (client.Window) through the in-order hash: up to pipeDepth regions are
// held, each read ahead, hashed in stream order, then written, and a
// region returns to the pool when its write lands. Reads run ahead of the
// hash and writes trail behind it, so the cluster side of a transfer —
// either direction's — never waits on the host side or on the hash, even
// for a file that is one range. Every read and write pump starts has
// finished when it returns.
//
// Each read is clamped to the walk-time size plus one byte: a file at
// that size answers one right-sized read whose EOF arrives with the data,
// instead of a region-wide fan-out (ruinous for small files), while the
// extra byte keeps a file that grew since the walk reading. Past that
// byte, reads go one region at a time, so a file that did not grow costs
// no read beyond its EOF.
func pump(w stageWork, h hash.Hash,
	read func(p []byte, off int64) (int, error), write func(p []byte, off int64) error) (int64, error) {
	rd, wr := client.NewWindow(pipeDepth), client.NewWindow(pipeDepth)
	var (
		queue   []*client.Slot // reads started and not yet hashed, in stream order
		next    = w.off        // where the next read starts
		reached = w.off        // end of the hashed bytes
		ended   bool           // a read reported EOF
		err     error          // first read or write failure
		size    = w.file.size
	)
	for {
		if err == nil {
			err = wr.TakeErr()
		}
		// Read ahead while a region is free. A full window stops the
		// read-ahead while a read waits to be hashed — the hash never
		// waits on a write — and is waited for otherwise.
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
		if h != nil {
			h.Write(data)
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
// source root, manifest write) — per-file failures land in the Report.
func StageIn(c *client.Client, hostDir, fsDir string, opts Options) (*Report, error) {
	begin := time.Now()
	e := newEngine(c, opts, "stage-in")
	if e.opts.Manifest != "" {
		e.mf = NewManifest()
	}
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
			if err := e.manifestable(rel); err != nil {
				e.fail("stage-in", p, err)
				return iofs.SkipDir
			}
			dirs = append(dirs, rel)
		case d.Type().IsRegular():
			if err := e.manifestable(rel); err != nil {
				e.fail("stage-in", p, err)
				return nil
			}
			fi, err := d.Info()
			if err != nil {
				e.fail("walk", p, err)
				return nil
			}
			files = append(files, &xfile{rel: rel, fsPath: fsJoin(fsRoot, rel), hostPath: p, size: fi.Size()})
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
		e.dirDone(rel)
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
		queue = e.split(queue, files[i])
	}

	e.run(queue, func(work <-chan stageWork) {
		var gb growBatch
		for w := range work {
			e.copyIn(&gb, w)
		}
		e.flushGrow(&gb)
	})
	if err := e.writeManifest(); err != nil {
		return e.report(begin), fmt.Errorf("staging: manifest: %w", err)
	}
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
	h := e.newHash()
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
		return pump(w, h, src.ReadAt, func(p []byte, off int64) error {
			return e.c.WritePath(f.fsPath, p, off)
		})
	})
	switch {
	case !last:
	case size == 0 && e.mf == nil:
		e.done(f.rel, 0, nil, 0) // created (or truncated) empty: nothing to publish
	default:
		gb.files = append(gb.files, f)
		gb.sizes = append(gb.sizes, size)
		gb.hashes = append(gb.hashes, h)
		if len(gb.files) >= growBatchSize {
			e.flushGrow(gb)
		}
	}
}

// growBatch holds one worker's finished stage-in files whose sizes are
// not yet published, flushed through the vector plane in one batched RPC
// per daemon.
type growBatch struct {
	files  []*xfile
	sizes  []int64
	hashes []hash.Hash
}

func (e *engine) flushGrow(gb *growBatch) {
	if len(gb.files) == 0 {
		return
	}
	paths := make([]string, len(gb.files))
	for i, f := range gb.files {
		paths[i] = f.fsPath
	}
	errs := e.c.GrowMany(paths, gb.sizes)
	// Manifest entries carry each file's cluster mtime, not this client's
	// wall clock — a wall-clock stamp is strictly later than the write
	// stamps and would let a clock-lagging writer's later modification
	// hide under it (unsound incremental skips). One batched StatMany per
	// flush reads them all back.
	var infos []client.FileInfo
	var serrs []error
	if e.mf != nil {
		infos, serrs = e.c.StatMany(paths)
	}
	for i, f := range gb.files {
		if errs[i] != nil {
			e.fail("stage-in size", paths[i], errs[i])
			continue
		}
		mtime := int64(0)
		if e.mf != nil {
			if serrs[i] != nil {
				e.fail("stage-in stat", paths[i], serrs[i])
				continue
			}
			mtime = infos[i].ModTime().UnixNano()
		}
		e.done(f.rel, gb.sizes[i], gb.hashes[i], mtime)
	}
	gb.files, gb.sizes, gb.hashes = gb.files[:0], gb.sizes[:0], gb.hashes[:0]
}

// --- stage-out ---

// StageOut copies the cluster tree under fsDir into hostDir (created if
// missing). With Options.Incremental (requires Manifest) files provably
// unmodified since stage-in are skipped without moving a byte. The
// returned Report is never nil; the error covers structural failures
// only.
func StageOut(c *client.Client, fsDir, hostDir string, opts Options) (*Report, error) {
	begin := time.Now()
	e := newEngine(c, opts, "stage-out")
	fsRoot, err := meta.Clean(fsDir)
	if err != nil {
		return e.report(begin), fmt.Errorf("staging: source %q: %w", fsDir, err)
	}
	switch {
	case e.opts.Incremental && e.opts.Manifest == "":
		return e.report(begin), errors.New("staging: incremental stage-out requires a manifest")
	case e.opts.Incremental:
		mf, err := LoadManifest(e.opts.Manifest)
		if err != nil {
			return e.report(begin), fmt.Errorf("staging: manifest: %w", err)
		}
		e.mf = mf
	case e.opts.Manifest != "":
		e.mf = NewManifest()
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
	// In incremental mode each directory's files are stat'ed in one
	// batched RPC per daemon — the skip check needs authoritative sizes
	// and mtimes.
	var queue []stageWork
	var walk func(rel string)
	walk = func(rel string) {
		fsPath := fsJoin(fsRoot, rel)
		ents, err := c.ReadDir(fsPath)
		if err != nil {
			e.fail("stage-out readdir", fsPath, err)
			return
		}
		var files []*xfile
		for _, en := range ents {
			childRel := en.Name
			if rel != "" {
				childRel = rel + "/" + en.Name
			}
			if err := e.manifestable(childRel); err != nil {
				e.fail("stage-out", fsJoin(fsRoot, childRel), err)
				continue
			}
			hostPath := filepath.Join(hostDir, filepath.FromSlash(childRel))
			if en.IsDir {
				if err := os.MkdirAll(hostPath, 0o777); err != nil {
					e.fail("stage-out mkdir", hostPath, err)
					continue
				}
				e.dirDone(childRel)
				walk(childRel)
				continue
			}
			files = append(files, &xfile{rel: childRel, fsPath: fsJoin(fsRoot, childRel), hostPath: hostPath, size: en.Size})
		}
		if e.opts.Incremental && len(files) > 0 {
			paths := make([]string, len(files))
			for i, f := range files {
				paths[i] = f.fsPath
			}
			infos, errs := c.StatMany(paths)
			kept := files[:0]
			for i, f := range files {
				if errors.Is(errs[i], proto.ErrNotExist) {
					// Listed but gone by stat time: removed concurrently.
					// Eventual consistency makes this expected; skip it.
					continue
				}
				if errs[i] != nil {
					// Anything else (an unreachable metadata daemon fails
					// its whole shard) must be loud: silently skipping
					// here would report a clean transfer while result
					// data quietly misses the stage-out.
					e.fail("stage-out stat", paths[i], errs[i])
					continue
				}
				f.size, f.mtimeNS, f.hasStat = infos[i].Size(), infos[i].ModTime().UnixNano(), true
				kept = append(kept, f)
			}
			files = kept
		}
		for _, f := range files {
			queue = e.split(queue, f)
		}
	}
	walk("")

	e.run(queue, func(work <-chan stageWork) {
		for w := range work {
			e.copyOut(w)
		}
	})
	if err := e.writeManifest(); err != nil {
		return e.report(begin), fmt.Errorf("staging: manifest: %w", err)
	}
	return e.report(begin), nil
}

// unmodifiedSince reports whether the cluster file f is provably the
// same content the manifest entry recorded: identical size and cluster
// mtime (the entry stores the cluster's own stamp, so any later write —
// whose stamp the size-merger only ever raises — breaks equality), and a
// host copy that verifies against the recorded hash. Any doubt returns
// false and the file transfers. Caveat shared with every mtime-based
// synchronizer: detection trusts writers' clocks.
func unmodifiedSince(f *xfile, ent Entry) bool {
	if ent.Dir || !f.hasStat || ent.Hash == "" {
		return false
	}
	if f.size != ent.Size || f.mtimeNS != ent.MTimeNS {
		return false
	}
	fi, err := os.Stat(f.hostPath)
	if err != nil || !fi.Mode().IsRegular() || fi.Size() != ent.Size {
		return false
	}
	hf, err := os.Open(f.hostPath)
	if err != nil {
		return false
	}
	defer hf.Close()
	h := sha256.New()
	if _, err := io.Copy(h, hf); err != nil {
		return false
	}
	return hex.EncodeToString(h.Sum(nil)) == ent.Hash
}

// copyOut moves one range of a cluster file onto the host. Every read is
// a descriptor-free ReadPath: the file as it is now, never a cached
// block. The range
// finishing the file settles the host copy's length at the extent the
// ranges observed: past a trailing hole, or short of a file that shrank.
func (e *engine) copyOut(w stageWork) {
	f := w.file
	if e.opts.Incremental { // a manifest: f is this one range
		if ent, ok := e.lookupEntry(f.rel); ok && unmodifiedSince(f, ent) {
			e.skip(ent.Size)
			return
		}
	}
	h := e.newHash()
	size, last := e.move(w, func() (int64, error) {
		dst, err := os.OpenFile(f.hostPath, os.O_WRONLY|os.O_CREATE, 0o666)
		if err != nil {
			return w.off, err
		}
		f.prep.Do(func() { f.prepErr = dst.Truncate(0) })
		reached, err := w.off, f.prepErr
		if err == nil {
			reached, err = pump(w, h, func(p []byte, off int64) (int, error) {
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
	// Manifest entries carry the cluster's own mtime (see flushGrow's
	// rationale): the incremental walk already stat'ed it; a fresh
	// manifest pays one stat here.
	mtime := f.mtimeNS
	if e.mf != nil && !f.hasStat {
		info, err := e.c.Stat(f.fsPath)
		if err != nil {
			e.failFile(f, err)
			return
		}
		mtime = info.ModTime().UnixNano()
	}
	e.done(f.rel, size, h, mtime)
}
