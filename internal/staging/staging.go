// Package staging is the data-movement layer between a GekkoFS
// deployment and the permanent parallel file system. GekkoFS is a
// temporary file system living for one job (paper §I, §III): inputs must
// be staged in from the PFS at startup and results flushed back out at
// teardown. This package implements that lifecycle as a parallel
// transfer engine over the client library:
//
//   - Stage-in walks a host directory tree, creates the namespace
//     through the vectored metadata plane (CreateMany batches, one RPC
//     per daemon), and pumps file data through a bounded worker pool —
//     small files take a descriptor-free fast path (WritePath + batched
//     GrowMany size updates), large files stream through descriptors and
//     benefit from the write-behind pipeline when the client has one.
//   - Stage-out drains the cluster tree via paginated ReadDir, recreates
//     it on the host file system, and can run incrementally against a
//     staging manifest: files provably unmodified since stage-in move
//     zero bytes. File data streams through read-ahead descriptors
//     (client.OpenReadAhead), so the sequential copy loops ride the
//     prefetch window instead of a synchronous fan-out per buffer.
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
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/meta"
	"repro/internal/proto"
)

// Defaults and tuning constants.
const (
	// DefaultWorkers is the transfer pool size when Options.Workers is 0.
	DefaultWorkers = 8
	// DefaultBufBytes is the stage-in per-worker streaming buffer when
	// Options.BufBytes is 0. One-MiB blocks feed the write-behind window
	// as single RPCs (smooth pipelining) and stay cache-resident through
	// the scan-and-scatter; bigger blocks measurably lose throughput.
	DefaultBufBytes = 1 << 20
	// DefaultReadBufBytes is the stage-out equivalent. Reads have no
	// write-behind window — each buffer is one synchronous parallel
	// fan-out — so larger blocks mean fewer round trips.
	DefaultReadBufBytes = 4 << 20
	// DefaultSegmentBytes is the large-file striping granularity when
	// Options.SegmentBytes is 0.
	DefaultSegmentBytes = 8 << 20
	// zeroProbe is the zero-run detection granularity: aligned runs of
	// zeros at least this long are transferred as holes.
	zeroProbe = 4 << 10
	// growBatchSize bounds how many small-file size updates one worker
	// accumulates before flushing them through GrowMany.
	growBatchSize = 256
)

// Options tune a transfer. The zero value is a sensible default.
type Options struct {
	// Workers bounds concurrent file transfers (default DefaultWorkers).
	Workers int
	// BufBytes is the per-worker streaming buffer size (defaults:
	// DefaultBufBytes staging in, DefaultReadBufBytes staging out).
	// Files up to this size take stage-in's descriptor-free small-file
	// path.
	BufBytes int
	// SegmentBytes is the striping granularity for huge files (default
	// DefaultSegmentBytes): a file larger than this is transferred as
	// concurrent segments, each pumped by its own worker over its own
	// descriptor, so one giant checkpoint saturates the cluster the way
	// many files do. Content hashing needs a sequential stream, so
	// manifest-recording transfers keep one worker per file.
	SegmentBytes int64
	// Manifest, when non-empty, names a host-side manifest file: stage-in
	// records every transferred file (size, SHA-256, cluster mtime) and
	// stage-out rewrites it to match what landed on the host.
	Manifest string
	// Incremental makes stage-out skip files that are provably unmodified
	// since the manifest was written: cluster size and mtime still match
	// the entry, and the host copy verifies against the recorded hash.
	// Requires Manifest.
	Incremental bool
	// Snapshot, when non-empty, names a committed snapshot tag: stage-out
	// reads the namespace and every byte as pinned at that tag's epoch,
	// so concurrent writers never tear the staged tree. Incompatible with
	// Incremental (a snapshot's frozen mtimes defeat the skip check) and
	// ignored by stage-in.
	Snapshot string
}

func (o Options) withDefaults(defaultBuf int) Options {
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
	}
	if o.BufBytes <= 0 {
		o.BufBytes = defaultBuf
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
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

// engine carries one transfer's shared state; rep and mf are guarded by
// mu (workers report concurrently).
type engine struct {
	c    *client.Client
	opts Options

	// epoch is what stage-out reads the namespace and every byte at: a
	// committed snapshot tag's pinned epoch, or client.LiveEpoch.
	// Immutable after StageOut resolves the tag.
	epoch uint64

	mu  sync.Mutex
	rep Report    // guarded by mu
	mf  *Manifest // guarded by mu; nil when no manifest is in play
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

// dirDone counts one created directory.
func (e *engine) dirDone() {
	e.mu.Lock()
	e.rep.Dirs++
	e.mu.Unlock()
}

// setManifest installs the manifest during single-threaded setup.
func (e *engine) setManifest(mf *Manifest) {
	e.mu.Lock()
	e.mf = mf
	e.mu.Unlock()
}

// hasManifest reports whether a manifest is in play.
func (e *engine) hasManifest() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mf != nil
}

// putEntry records a manifest entry; a no-op without a manifest.
func (e *engine) putEntry(ent Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mf != nil {
		e.mf.Put(ent)
	}
}

// writeManifest persists the manifest when one is in play.
func (e *engine) writeManifest() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mf == nil {
		return nil
	}
	return e.mf.WriteFile(e.opts.Manifest)
}

// dropEntry forgets a manifest entry whose file failed to transfer, so a
// later incremental pass cannot wrongly skip it.
func (e *engine) dropEntry(rel string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mf != nil {
		e.mf.Delete(rel)
	}
}

// lookupEntry reads a manifest entry under the engine lock (workers
// update the manifest concurrently).
func (e *engine) lookupEntry(rel string) (Entry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mf == nil {
		return Entry{}, false
	}
	return e.mf.Get(rel)
}

// newHash returns a SHA-256 only when a manifest wants one — hashing is
// pure overhead otherwise.
func (e *engine) newHash() hash.Hash {
	if !e.hasManifest() {
		return nil
	}
	return sha256.New()
}

// recordDone reports a transferred file, stat'ing it first when a
// manifest entry must be recorded: the entry carries the cluster's own
// mtime, not this client's wall clock — a wall-clock stamp is strictly
// later than the write stamps and would let a clock-lagging writer's
// later modification hide under it (unsound incremental skips). The
// small-file batch path records from a batched StatMany instead of
// calling this.
func (e *engine) recordDone(rel, fsPath string, size int64, h hash.Hash) {
	if !e.hasManifest() {
		e.done(rel, size, nil, 0)
		return
	}
	info, err := e.c.Stat(fsPath)
	if err != nil {
		e.fail("stage-in stat", fsPath, err)
		return
	}
	e.done(rel, size, h, info.ModTime().UnixNano())
}

// manifestable reports whether rel can be recorded in the line-oriented
// manifest. When a manifest is active, unrepresentable names (line
// breaks, unclean forms) fail their file up front — transferring it and
// then corrupting or forging manifest lines would be worse.
func (e *engine) manifestable(rel string) error {
	if !e.hasManifest() {
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

// --- segmented large-file transfer ---

// segFile coordinates the segments of one striped large-file transfer:
// the file counts as moved only when every segment landed, and the first
// failing segment reports for all of them.
type segFile struct {
	rel, fsPath, hostPath string
	size                  int64
	remaining             atomic.Int32
	failed                atomic.Bool
	maxEnd                atomic.Int64 // stage-out: highest byte read back
}

// segFail records a segment failure exactly once per file.
func (e *engine) segFail(sf *segFile, op string, err error) {
	if sf.failed.CompareAndSwap(false, true) {
		e.fail(op, sf.fsPath, err)
	}
}

// raiseMax lifts sf.maxEnd to at least end.
func (sf *segFile) raiseMax(end int64) {
	for {
		cur := sf.maxEnd.Load()
		if end <= cur || sf.maxEnd.CompareAndSwap(cur, end) {
			return
		}
	}
}

// segments appends one work item per SegmentBytes-sized slice of sf.
func appendSegments(queue []stageWork, sf *segFile, segBytes int64) []stageWork {
	nseg := (sf.size + segBytes - 1) / segBytes
	sf.remaining.Store(int32(nseg))
	for s := int64(0); s < nseg; s++ {
		queue = append(queue, stageWork{
			sf:  sf,
			off: s * segBytes,
			end: min((s+1)*segBytes, sf.size),
		})
	}
	return queue
}

// stageWork is one worker-pool item: a whole file, or one segment of a
// striped large file (sf != nil).
type stageWork struct {
	file     inFile // stage-in whole-file
	out      outJob // stage-out whole-file
	sf       *segFile
	off, end int64
}

// --- stage-in ---

// inFile is one regular file found by the host-tree walk.
type inFile struct {
	rel  string
	size int64
	// trunc marks a file whose cluster record pre-existed: it must go
	// through a descriptor with O_TRUNC instead of the small-file path,
	// which assumes a fresh zero-size record.
	trunc bool
}

// StageIn copies the directory tree under hostDir into the cluster at
// fsDir (created if missing). The returned Report is never nil; the
// error covers structural failures only (bad arguments, unreadable
// source root, manifest write) — per-file failures land in the Report.
func StageIn(c *client.Client, hostDir, fsDir string, opts Options) (*Report, error) {
	begin := time.Now()
	e := &engine{c: c, opts: opts.withDefaults(DefaultBufBytes)}
	if e.opts.Manifest != "" {
		e.setManifest(NewManifest())
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
	var files []inFile
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
			files = append(files, inFile{rel: rel, size: fi.Size()})
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
		e.putEntry(Entry{Rel: rel, Dir: true, MTimeNS: time.Now().UnixNano()})
	}
	paths := make([]string, len(files))
	for i := range files {
		paths[i] = fsJoin(fsRoot, files[i].rel)
	}
	cerrs := c.CreateMany(paths)
	pump := files[:0]
	for i := range files {
		switch {
		case cerrs[i] == nil:
			pump = append(pump, files[i])
		case errors.Is(cerrs[i], proto.ErrExist):
			// The record pre-existed (restaging over a previous job's
			// tree, or a directory squatting on the name — the open will
			// say which). Old data must not shine through.
			files[i].trunc = true
			pump = append(pump, files[i])
		default:
			e.fail("create", paths[i], cerrs[i])
		}
	}

	// Queue the pump work: small and medium files as whole-file items,
	// huge files as striped segments (unless a manifest needs their
	// sequential hash) so one giant checkpoint engages as many workers
	// as a directory of files would.
	var queue []stageWork
	withManifest := e.hasManifest()
	for _, f := range pump {
		fsPath := fsJoin(fsRoot, f.rel)
		if !withManifest && f.size > e.opts.SegmentBytes {
			if f.trunc {
				// One truncate up front; segments must not O_TRUNC each
				// other's freshly written data.
				if err := c.Truncate(fsPath, 0); err != nil {
					e.fail("stage-in truncate", fsPath, err)
					continue
				}
			}
			sf := &segFile{
				rel: f.rel, fsPath: fsPath,
				hostPath: filepath.Join(hostDir, filepath.FromSlash(f.rel)),
				size:     f.size,
			}
			queue = appendSegments(queue, sf, e.opts.SegmentBytes)
			continue
		}
		queue = append(queue, stageWork{file: f})
	}

	// Pump file data through the worker pool. Each worker owns one
	// streaming buffer and one small-file size batch.
	jobs := make(chan stageWork)
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, e.opts.BufBytes)
			gb := &growBatch{}
			for work := range jobs {
				if work.sf != nil {
					e.copyInSegment(buf, work)
					continue
				}
				job := work.file
				hostPath := filepath.Join(hostDir, filepath.FromSlash(job.rel))
				fsPath := fsJoin(fsRoot, job.rel)
				switch {
				case !job.trunc && job.size == 0:
					// Empty file: the CreateMany record is the whole
					// transfer — don't even open the host file. (Marker
					// and lock files by the thousand are common.)
					e.recordDone(job.rel, fsPath, 0, e.newHash())
				case !job.trunc && job.size <= int64(e.opts.BufBytes):
					e.copyInSmall(buf, gb, hostPath, fsPath, job.rel)
				default:
					e.copyInFD(buf, hostPath, fsPath, job.rel, job.trunc)
				}
			}
			e.flushGrow(gb)
		}()
	}
	for _, work := range queue {
		jobs <- work
	}
	close(jobs)
	wg.Wait()

	if err := e.writeManifest(); err != nil {
		return e.report(begin), fmt.Errorf("staging: manifest: %w", err)
	}
	return e.report(begin), nil
}

// growBatch accumulates small-file size updates for one worker, flushed
// through the vector plane in one batched RPC per daemon.
type growBatch struct {
	fsPaths []string
	rels    []string
	sizes   []int64
	hashes  []hash.Hash
}

func (e *engine) addGrow(gb *growBatch, fsPath, rel string, size int64, h hash.Hash) {
	gb.fsPaths = append(gb.fsPaths, fsPath)
	gb.rels = append(gb.rels, rel)
	gb.sizes = append(gb.sizes, size)
	gb.hashes = append(gb.hashes, h)
	if len(gb.fsPaths) >= growBatchSize {
		e.flushGrow(gb)
	}
}

func (e *engine) flushGrow(gb *growBatch) {
	if len(gb.fsPaths) == 0 {
		return
	}
	errs := e.c.GrowMany(gb.fsPaths, gb.sizes)
	// Manifest entries need each file's cluster mtime (see recordDone);
	// one batched StatMany per flush reads them all back.
	var infos []client.FileInfo
	var serrs []error
	withManifest := e.hasManifest()
	if withManifest {
		infos, serrs = e.c.StatMany(gb.fsPaths)
	}
	for i := range gb.fsPaths {
		if errs[i] != nil {
			e.fail("stage-in size", gb.fsPaths[i], errs[i])
			continue
		}
		mtime := int64(0)
		if withManifest {
			if serrs[i] != nil {
				e.fail("stage-in stat", gb.fsPaths[i], serrs[i])
				continue
			}
			mtime = infos[i].ModTime().UnixNano()
		}
		e.done(gb.rels[i], gb.sizes[i], gb.hashes[i], mtime)
	}
	gb.fsPaths, gb.rels, gb.sizes, gb.hashes = gb.fsPaths[:0], gb.rels[:0], gb.sizes[:0], gb.hashes[:0]
}

// copyInSmall is the small-file fast path: the record was just created
// by CreateMany, the whole file fits the worker buffer, so the data
// moves as bare chunk writes (WritePath, no descriptor, no stat) and the
// size joins the worker's batched GrowMany flush. RPCs per small file:
// one chunk write (zero for hole-only or empty files) plus amortized
// shares of one create batch and one size batch.
func (e *engine) copyInSmall(buf []byte, gb *growBatch, hostPath, fsPath, rel string) {
	src, err := os.Open(hostPath)
	if err != nil {
		e.fail("stage-in open", hostPath, err)
		return
	}
	defer src.Close()
	// Read to EOF rather than trusting the walk-time size: the file is
	// what it is now. A file grown past the buffer since the walk is
	// truncated to the buffer — staging a tree while it mutates is
	// undefined, but stays bounded.
	n, err := io.ReadFull(src, buf)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		e.fail("stage-in read", hostPath, err)
		return
	}
	data := buf[:n]
	h := e.newHash()
	if h != nil {
		h.Write(data)
	}
	werr := forNonzero(data, func(lo, hi int64) error {
		return e.c.WritePath(fsPath, data[lo:hi], lo)
	})
	if werr != nil {
		e.fail("stage-in write", fsPath, werr)
		return
	}
	if n == 0 {
		// Empty file: the CreateMany record is already complete.
		e.recordDone(rel, fsPath, 0, h)
		return
	}
	e.addGrow(gb, fsPath, rel, int64(n), h)
}

// copyInFD streams one file through a descriptor: large files (the
// write-behind pipeline overlaps their chunk RPCs when the client has
// one) and re-staged files needing O_TRUNC. Trailing zero runs are
// never written; GrowSize gives the file its full extent instead.
func (e *engine) copyInFD(buf []byte, hostPath, fsPath, rel string, trunc bool) {
	src, err := os.Open(hostPath)
	if err != nil {
		e.fail("stage-in open", hostPath, err)
		return
	}
	defer src.Close()
	flags := client.O_WRONLY
	if trunc {
		flags |= client.O_TRUNC
	}
	fd, err := e.c.Open(fsPath, flags)
	if err != nil {
		e.fail("stage-in open", fsPath, err)
		return
	}
	h := e.newHash()
	var off, lastData int64
	for {
		n, rerr := io.ReadFull(src, buf)
		if n > 0 {
			data := buf[:n]
			if h != nil {
				h.Write(data)
			}
			werr := forNonzero(data, func(lo, hi int64) error {
				if _, err := e.c.WriteAt(fd, data[lo:hi], off+lo); err != nil {
					return err
				}
				lastData = off + hi
				return nil
			})
			if werr != nil {
				e.fail("stage-in write", fsPath, werr)
				e.c.Close(fd)
				return
			}
			off += int64(n)
		}
		if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			break
		}
		if rerr != nil {
			e.fail("stage-in read", hostPath, rerr)
			e.c.Close(fd)
			return
		}
	}
	if lastData < off {
		if err := e.c.GrowSize(fd, off); err != nil {
			e.fail("stage-in size", fsPath, err)
			e.c.Close(fd)
			return
		}
	}
	// Close is the barrier: under async writes it drains the in-flight
	// window and flushes the size, so a clean return means the file is
	// stored and visible cluster-wide.
	if err := e.c.Close(fd); err != nil {
		e.fail("stage-in close", fsPath, err)
		return
	}
	e.recordDone(rel, fsPath, off, h)
}

// copyInSegment moves one byte range of a striped large file into the
// cluster. Every segment has its own descriptor — its own write-behind
// window when the client pipelines — so the segments of one file overlap
// exactly like independent files do. Non-overlapping ranges make the
// concurrent writes conflict-free.
func (e *engine) copyInSegment(buf []byte, w stageWork) {
	sf := w.sf
	finish := func(err error) {
		if err != nil {
			e.segFail(sf, "stage-in", err)
		}
		if sf.remaining.Add(-1) == 0 && !sf.failed.Load() {
			e.done(sf.rel, sf.size, nil, 0) // segments never record manifests
		}
	}
	if sf.failed.Load() {
		finish(nil) // a sibling already failed; don't waste the wire
		return
	}
	src, err := os.Open(sf.hostPath)
	if err != nil {
		finish(err)
		return
	}
	defer src.Close()
	fd, err := e.c.Open(sf.fsPath, client.O_WRONLY)
	if err != nil {
		finish(err)
		return
	}
	off, lastData := w.off, w.off
	for off < w.end {
		n, rerr := src.ReadAt(buf[:min(int64(len(buf)), w.end-off)], off)
		if n > 0 {
			data := buf[:n]
			werr := forNonzero(data, func(lo, hi int64) error {
				if _, err := e.c.WriteAt(fd, data[lo:hi], off+lo); err != nil {
					return err
				}
				lastData = off + hi
				return nil
			})
			if werr != nil {
				e.c.Close(fd)
				finish(werr)
				return
			}
			off += int64(n)
		}
		if errors.Is(rerr, io.EOF) {
			break // source shrank since the walk; take what exists
		}
		if rerr != nil {
			e.c.Close(fd)
			finish(rerr)
			return
		}
	}
	if lastData < off {
		if err := e.c.GrowSize(fd, off); err != nil {
			e.c.Close(fd)
			finish(err)
			return
		}
	}
	finish(e.c.Close(fd))
}

// copyOutSegment drains one byte range of a striped large file to the
// host. The host file was created (and emptied) by the coordinator; the
// last segment to finish settles its final length.
func (e *engine) copyOutSegment(buf []byte, w stageWork) {
	sf := w.sf
	finish := func(err error) {
		if err != nil {
			e.segFail(sf, "stage-out", err)
		}
		if sf.remaining.Add(-1) != 0 || sf.failed.Load() {
			return
		}
		end := sf.maxEnd.Load()
		if err := os.Truncate(sf.hostPath, end); err != nil {
			e.fail("stage-out truncate", sf.hostPath, err)
			return
		}
		e.done(sf.rel, end, nil, 0) // segments never record manifests
	}
	if sf.failed.Load() {
		finish(nil)
		return
	}
	// Segments are sequential streams: read-ahead keeps a window of
	// chunk fetches in flight ahead of the copy loop instead of paying a
	// full synchronous fan-out per buffer.
	fd, err := e.c.OpenReadAhead(sf.fsPath, client.O_RDONLY)
	if err != nil {
		finish(err)
		return
	}
	defer e.c.Close(fd)
	dst, err := os.OpenFile(sf.hostPath, os.O_WRONLY, 0)
	if err != nil {
		finish(err)
		return
	}
	off := w.off
	for off < w.end {
		n, rerr := e.c.ReadAt(fd, buf[:min(int64(len(buf)), w.end-off)], off)
		if n > 0 {
			data := buf[:n]
			werr := forNonzero(data, func(lo, hi int64) error {
				_, err := dst.WriteAt(data[lo:hi], off+lo)
				return err
			})
			if werr != nil {
				dst.Close()
				finish(werr)
				return
			}
			off += int64(n)
		}
		if errors.Is(rerr, io.EOF) {
			break // the file ends inside this segment
		}
		if rerr != nil {
			dst.Close()
			finish(rerr)
			return
		}
	}
	// Only a segment that actually observed bytes (data or in-size
	// holes) extends the final length: a segment past the EOF of a
	// concurrently shrunk file must not zero-pad the host copy out to
	// its own start offset.
	if off > w.off {
		sf.raiseMax(off)
	}
	finish(dst.Close())
}

// --- stage-out ---

// outJob is one cluster file queued for stage-out. size/mtime are
// authoritative (StatMany) only in incremental mode, where the skip
// check needs them; the copy itself trusts neither and reads to EOF.
type outJob struct {
	rel     string
	size    int64
	mtimeNS int64
	hasStat bool
}

// StageOut copies the cluster tree under fsDir into hostDir (created if
// missing). With Options.Incremental (requires Manifest) files provably
// unmodified since stage-in are skipped without moving a byte. The
// returned Report is never nil; the error covers structural failures
// only.
func StageOut(c *client.Client, fsDir, hostDir string, opts Options) (*Report, error) {
	begin := time.Now()
	e := &engine{c: c, opts: opts.withDefaults(DefaultReadBufBytes), epoch: client.LiveEpoch}
	fsRoot, err := meta.Clean(fsDir)
	if err != nil {
		return e.report(begin), fmt.Errorf("staging: source %q: %w", fsDir, err)
	}
	switch {
	case e.opts.Incremental && e.opts.Manifest == "":
		return e.report(begin), errors.New("staging: incremental stage-out requires a manifest")
	case e.opts.Incremental && e.opts.Snapshot != "":
		return e.report(begin), errors.New("staging: incremental stage-out cannot read from a snapshot")
	case e.opts.Incremental:
		mf, err := LoadManifest(e.opts.Manifest)
		if err != nil {
			return e.report(begin), fmt.Errorf("staging: manifest: %w", err)
		}
		e.setManifest(mf)
	case e.opts.Manifest != "":
		e.setManifest(NewManifest())
	}
	if e.opts.Snapshot != "" {
		// Resolve the tag to its pinned epoch once, up front: a tag that
		// is unknown or only partially committed fails the whole transfer
		// structurally rather than staging a torn tree.
		epoch, err := c.SnapshotEpoch(e.opts.Snapshot)
		if err != nil {
			return e.report(begin), fmt.Errorf("staging: snapshot %q: %w", e.opts.Snapshot, err)
		}
		e.epoch = epoch
	}
	if info, err := c.StatAt(fsRoot, e.epoch); err != nil {
		return e.report(begin), fmt.Errorf("staging: source %s: %w", fsRoot, err)
	} else if !info.IsDir() {
		return e.report(begin), fmt.Errorf("staging: source %s: %w", fsRoot, proto.ErrNotDir)
	}
	if err := os.MkdirAll(hostDir, 0o777); err != nil {
		return e.report(begin), fmt.Errorf("staging: destination: %w", err)
	}

	// Walk the cluster tree (paginated ReadDir under the hood), creating
	// host directories as encountered and queueing files. In incremental
	// mode each directory's files are stat'ed in one batched RPC per
	// daemon — the skip check needs authoritative sizes and mtimes.
	var jobs []outJob
	var walk func(rel string)
	walk = func(rel string) {
		fsPath := fsJoin(fsRoot, rel)
		ents, err := c.ReadDirAt(fsPath, e.epoch)
		if err != nil {
			e.fail("stage-out readdir", fsPath, err)
			return
		}
		var filePaths []string
		var fileJobs []outJob
		for _, en := range ents {
			childRel := en.Name
			if rel != "" {
				childRel = rel + "/" + en.Name
			}
			if err := e.manifestable(childRel); err != nil {
				e.fail("stage-out", fsJoin(fsRoot, childRel), err)
				continue
			}
			if en.IsDir {
				hostPath := filepath.Join(hostDir, filepath.FromSlash(childRel))
				if err := os.MkdirAll(hostPath, 0o777); err != nil {
					e.fail("stage-out mkdir", hostPath, err)
					continue
				}
				e.mu.Lock()
				e.rep.Dirs++
				if e.mf != nil && !e.opts.Incremental {
					e.mf.Put(Entry{Rel: childRel, Dir: true, MTimeNS: time.Now().UnixNano()})
				}
				e.mu.Unlock()
				walk(childRel)
				continue
			}
			filePaths = append(filePaths, fsJoin(fsRoot, childRel))
			fileJobs = append(fileJobs, outJob{rel: childRel, size: en.Size})
		}
		if e.opts.Incremental && len(filePaths) > 0 {
			infos, errs := c.StatMany(filePaths)
			for i := range fileJobs {
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
					e.fail("stage-out stat", filePaths[i], errs[i])
					continue
				}
				fileJobs[i].size = infos[i].Size()
				fileJobs[i].mtimeNS = infos[i].ModTime().UnixNano()
				fileJobs[i].hasStat = true
				jobs = append(jobs, fileJobs[i])
			}
			return
		}
		jobs = append(jobs, fileJobs...)
	}
	walk("")

	// Huge files stripe into segments (no manifest in play — hashing
	// would need one sequential stream); the host file is created empty
	// here so segments only ever write their own ranges. Snapshot
	// stage-out keeps one worker per file: its reads are descriptor-free
	// epoch-pinned spans, not the read-ahead descriptors segments pump.
	var queue []stageWork
	withManifest := e.hasManifest()
	for _, job := range jobs {
		if !withManifest && e.epoch == client.LiveEpoch && job.size > e.opts.SegmentBytes {
			hostPath := filepath.Join(hostDir, filepath.FromSlash(job.rel))
			f, err := os.OpenFile(hostPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
			if err != nil {
				e.fail("stage-out create", hostPath, err)
				continue
			}
			if err := f.Close(); err != nil {
				e.fail("stage-out create", hostPath, err)
				continue
			}
			sf := &segFile{
				rel: job.rel, fsPath: fsJoin(fsRoot, job.rel),
				hostPath: hostPath, size: job.size,
			}
			queue = appendSegments(queue, sf, e.opts.SegmentBytes)
			continue
		}
		queue = append(queue, stageWork{out: job})
	}

	work := make(chan stageWork)
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, e.opts.BufBytes)
			for item := range work {
				if item.sf != nil {
					e.copyOutSegment(buf, item)
				} else {
					e.copyOut(buf, fsRoot, hostDir, item.out)
				}
			}
		}()
	}
	for _, item := range queue {
		work <- item
	}
	close(work)
	wg.Wait()

	if err := e.writeManifest(); err != nil {
		return e.report(begin), fmt.Errorf("staging: manifest: %w", err)
	}
	return e.report(begin), nil
}

// unmodifiedSince reports whether the cluster file described by job is
// provably the same content the manifest entry recorded: identical size
// and cluster mtime (the entry stores the cluster's own stamp, so any
// later write — whose stamp the size-merger only ever raises — breaks
// equality), and a host copy that verifies against the recorded hash.
// Any doubt returns false and the file transfers. Caveat shared with
// every mtime-based synchronizer: detection trusts writers' clocks.
func unmodifiedSince(job outJob, ent Entry, hostPath string) bool {
	if ent.Dir || !job.hasStat || ent.Hash == "" {
		return false
	}
	if job.size != ent.Size || job.mtimeNS != ent.MTimeNS {
		return false
	}
	fi, err := os.Stat(hostPath)
	if err != nil || !fi.Mode().IsRegular() || fi.Size() != ent.Size {
		return false
	}
	f, err := os.Open(hostPath)
	if err != nil {
		return false
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return false
	}
	return hex.EncodeToString(h.Sum(nil)) == ent.Hash
}

// copyOut moves one cluster file onto the host, preserving sparseness:
// zero runs are skipped and the final Truncate extends the file past a
// trailing hole. The read loop is size-oblivious — it trusts the EOF
// the stat-free read path reports, not the listing.
func (e *engine) copyOut(buf []byte, fsRoot, hostDir string, job outJob) {
	fsPath := fsJoin(fsRoot, job.rel)
	hostPath := filepath.Join(hostDir, filepath.FromSlash(job.rel))
	if e.opts.Incremental {
		ent, ok := e.lookupEntry(job.rel)
		if ok && unmodifiedSince(job, ent, hostPath) {
			e.skip(ent.Size)
			return
		}
	}
	// Stage-out streams each file sequentially; read-ahead pipelines the
	// chunk fetches so the copy loop is not round-trip bound. A pinned
	// epoch reads descriptor-free spans instead — the pre-image view has
	// no descriptor to read ahead through.
	readAt := func(p []byte, off int64) (int, error) {
		return e.c.ReadSnapshot(fsPath, e.epoch, p, off)
	}
	if e.epoch == client.LiveEpoch {
		fd, err := e.c.OpenReadAhead(fsPath, client.O_RDONLY)
		if err != nil {
			e.fail("stage-out open", fsPath, err)
			e.dropEntry(job.rel)
			return
		}
		defer e.c.Close(fd)
		readAt = func(p []byte, off int64) (int, error) {
			return e.c.ReadAt(fd, p, off)
		}
	}
	dst, err := os.OpenFile(hostPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		e.fail("stage-out create", hostPath, err)
		e.dropEntry(job.rel)
		return
	}
	h := e.newHash()
	var off int64
	for {
		// Clamp the read window to the listed size plus one byte: a file
		// at its listed size then answers one right-sized RPC whose EOF
		// arrives with the data, instead of a full buffer-wide span
		// fan-out (ruinous for small files). The +1 keeps the loop honest
		// when the file grew past the listing — no EOF, keep reading.
		want := int64(len(buf))
		if job.size >= off {
			if rem := job.size - off + 1; rem < want {
				want = rem
			}
		}
		n, rerr := readAt(buf[:want], off)
		if n > 0 {
			data := buf[:n]
			if h != nil {
				h.Write(data)
			}
			werr := forNonzero(data, func(lo, hi int64) error {
				_, err := dst.WriteAt(data[lo:hi], off+lo)
				return err
			})
			if werr != nil {
				e.fail("stage-out write", hostPath, werr)
				dst.Close()
				e.dropEntry(job.rel)
				return
			}
			off += int64(n)
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			e.fail("stage-out read", fsPath, rerr)
			dst.Close()
			e.dropEntry(job.rel)
			return
		}
	}
	// Extend past a trailing hole (WriteAt never reached EOF) and settle
	// the exact length in one stroke.
	if err := dst.Truncate(off); err != nil {
		e.fail("stage-out truncate", hostPath, err)
		dst.Close()
		e.dropEntry(job.rel)
		return
	}
	if err := dst.Close(); err != nil {
		e.fail("stage-out close", hostPath, err)
		e.dropEntry(job.rel)
		return
	}
	// Manifest entries carry the cluster's own mtime (see recordDone's
	// rationale): the incremental walk already stat'ed it; a fresh
	// manifest pays one stat here.
	mtime := int64(0)
	if e.hasManifest() {
		if job.hasStat {
			mtime = job.mtimeNS
		} else if info, err := e.c.StatAt(fsPath, e.epoch); err == nil {
			mtime = info.ModTime().UnixNano()
		} else {
			e.fail("stage-out stat", fsPath, err)
			e.dropEntry(job.rel)
			return
		}
	}
	e.done(job.rel, off, h, mtime)
}
