// Package chunkstore is the daemons' I/O persistence layer (paper
// §III-B): file data arrives pre-chunked from clients, and every chunk is
// stored as one file on the node-local file system, named by its owning
// path and chunk ID. The layout matches the released GekkoFS: a directory
// per GekkoFS file (escaped path) holding numbered chunk files.
package chunkstore

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/meta"
	"repro/internal/vfs"
)

// Store persists chunks on one node.
type Store struct {
	fs vfs.FS
	// pathLocks serialize remove/truncate against writes of the same
	// path. Plain chunk writes to different chunks proceed concurrently.
	pathLocks [64]sync.RWMutex

	// cowMu guards the snapshot copy-on-write state below (cow.go): the
	// pre-image index, the last-write-epoch map, and the first-touch pin
	// decision itself.
	cowMu sync.Mutex
	// pre indexes pre-image files: chunkKey → sorted ascending supersede
	// epochs. Rebuilt from the snap/ directory on open.
	pre map[string][]uint64
	// last tracks the newest write epoch seen per chunk this process
	// lifetime. Absence means unknown history (pin conservatively).
	last map[string]uint64

	cowCopies, cowBytes atomic.Uint64

	// open keeps recently used live chunk files open (opencache.go).
	open *openCache
	// maps is whether fs's files map (vfs.CanMap); ViewChunk of a store
	// whose files do not answers at once, before any lock or handle, and
	// every write is a pwrite.
	maps bool
	// mapWriteMax is the largest in-place write copied into a chunk
	// file's mapping instead of pwritten: mapWriteMax (tests change it).
	mapWriteMax int
}

// New returns a store backed by fs, rooted at "chunks/" with snapshot
// pre-images under "snap/", for chunks of meta.DefaultChunkSize bytes.
func New(fs vfs.FS) *Store { return NewWithChunkSize(fs, meta.DefaultChunkSize) }

// NewWithChunkSize is New for chunks of chunkSize bytes: the length of
// every chunk file's mapping.
func NewWithChunkSize(fs vfs.FS, chunkSize int64) *Store {
	s := &Store{
		fs: fs, pre: make(map[string][]uint64), last: make(map[string]uint64),
		open: newOpenCache(fs, chunkSize), maps: vfs.CanMap(fs), mapWriteMax: mapWriteMax,
	}
	// A listing failure leaves the index empty; reads then resolve to
	// live chunks, the same behavior as a snapshot-free store.
	_ = s.loadPreImages()
	return s
}

// escapePath turns a GekkoFS path into a single directory name:
// '#' → "#23", '/' → "#2f". The mapping is injective, so distinct paths
// never share a chunk directory.
func escapePath(path string) string {
	var b strings.Builder
	b.Grow(len(path) + 8)
	for i := 0; i < len(path); i++ {
		switch path[i] {
		case '#':
			b.WriteString("#23")
		case '/':
			b.WriteString("#2f")
		default:
			b.WriteByte(path[i])
		}
	}
	return b.String()
}

func chunkDir(path string) string { return "chunks/" + escapePath(path) }

func chunkFile(path string, id meta.ChunkID) string {
	return chunkDir(path) + "/" + strconv.FormatUint(uint64(id), 10)
}

func (s *Store) lockFor(path string) *sync.RWMutex {
	h := uint32(2166136261)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint32(path[i])) * 16777619
	}
	return &s.pathLocks[h%64]
}

// Close releases every chunk file the store keeps open. The store stays
// usable — a handler still running when its daemon closes finishes its
// I/O — but keeps nothing open from then on.
func (s *Store) Close() error {
	s.open.closeAll()
	return nil
}

// OpenStats snapshots the open-chunk cache's counters.
func (s *Store) OpenStats() OpenStats { return s.open.stats() }

// mapWriteMax is the largest in-place chunk write that is copied into
// the chunk file's mapping instead of pwritten. A pwrite of a few pages
// pays ext4's per-call work (a journal handle, the mtime update) on top
// of its copy; a copy into dirty pages of the mapping is the copy alone.
// But once writeback has cleaned a page the kernel write-protects it in
// every mapping, so the first store into each clean 4 KiB page faults
// and pays that per-call work per page. BenchmarkChunkRewrite on ext4
// (2 vCPU guest, median of three 1024-op runs, µs per rewrite, mapped
// vs pwrite):
//
//	          pages dirty     after a sync
//	  8 KiB   0.57 vs 1.98    6.8 vs 2.0
//	 16 KiB   0.89 vs 2.32   14.7 vs 2.3
//	 64 KiB   3.2  vs 5.6    66.7 vs 6.4
//	512 KiB  25.5  vs 31.1  519   vs 36.6
//
// After a sync every size is slower mapped, and the more pages the worse,
// so a checkpoint overwritten under writeback pressure stays on pwrite.
// 8 KiB, the paper's small-I/O size, is the one cap measured end to end:
// in bench's small_random_rw (8 KiB rewrites of a 256 MiB file, per-copy
// minor faults counted with getrusage) 7 % of mapped copies fault in a
// 10 s run, 3 % over 60 s with one writeback pass, 33 % and 72 % with
// every chunk file fdatasynced each 5 s and 1 s; ops/s moves +32, +25,
// +8 and −12 % against pwrite. Larger caps, and tmpfs, whose pages
// writeback never cleans, were not measured end to end.
const mapWriteMax = 8 << 10

// WriteChunk writes data into chunk id of path at the chunk-local offset,
// creating the chunk file as needed. A write of at most mapWriteMax bytes
// inside the chunk as its handle knows it is a copy into the file's
// mapping; any other write, and every write on a store whose files do not
// map, is a pwrite.
func (s *Store) WriteChunk(path string, id meta.ChunkID, offset int64, data []byte) error {
	l := s.lockFor(path)
	l.RLock()
	defer l.RUnlock()
	h, err := s.open.acquire(chunkRef{path, id}, true)
	if err != nil {
		return fmt.Errorf("chunkstore: write %s#%d: %w", path, id, err)
	}
	err = s.writeAt(h, offset, data)
	s.open.release(h)
	if err != nil {
		return fmt.Errorf("chunkstore: write %s#%d: %w", path, id, err)
	}
	return nil
}

// writeAt writes data at offset of h's file. An in-place write — below
// the size the handle knows, which the store itself never lets overstate
// the file — of at most mapWriteMax bytes copies into the mapping; a
// copy that faults (a page the disk cannot back, or one wholly past the
// end of a file shrunk behind the store) is redone whole by pwrite,
// which re-extends the file or returns the real error. A file shrunk
// behind the store to a size inside a page is the one case not caught:
// a copy into that page past the new end does not fault, lands past the
// end of the file and is lost, like the bytes the shrink cut off.
// The caller holds the path's read lock from acquiring h to releasing
// it, so no truncate, remove or copy-on-write has dropped h: a handle
// dropped by one of those, which a view may still hold, is never
// written.
func (s *Store) writeAt(h *openChunk, offset int64, data []byte) error {
	end := offset + int64(len(data))
	if s.maps && len(data) <= s.mapWriteMax && end <= h.size.Load() {
		if m := s.open.mapped(h); int64(len(m)) >= end {
			if copyGuarded(m[offset:end], data) {
				s.open.writeMappedBytes.Add(uint64(len(data)))
				return nil
			}
			s.open.mapFaults.Add(1)
		}
	}
	n, err := h.f.WriteAt(data, offset)
	h.grow(offset + int64(n))
	s.open.writePwriteBytes.Add(uint64(n))
	return err
}

// copyGuarded copies src into dst, a window of a chunk file's mapping,
// and reports whether the copy completed: a fault on a page of dst comes
// back as false instead of killing the process. Only a memory fault is
// recovered; any other panic goes on.
func copyGuarded(dst, src []byte) (ok bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface {
				runtime.Error
				Addr() uintptr
			}); !fault {
				panic(r)
			}
			ok = false
		}
	}()
	copy(dst, src)
	return true
}

// ReadChunk reads up to len(dst) bytes from chunk id of path at the
// chunk-local offset. It returns the byte count actually present; a
// missing chunk or an offset at or past the chunk file's end reads as
// zero bytes (the client zero-fills sparse regions using the file size).
// Only a genuinely absent chunk is a hole — any other open failure
// (permissions, I/O error) propagates instead of silently reading zeros.
func (s *Store) ReadChunk(path string, id meta.ChunkID, offset int64, dst []byte) (int, error) {
	l := s.lockFor(path)
	l.RLock()
	defer l.RUnlock()
	return s.readLive(path, id, offset, dst)
}

// readLive reads from the live chunk file through the open-chunk cache.
// Caller holds path's read lock.
func (s *Store) readLive(path string, id meta.ChunkID, offset int64, dst []byte) (int, error) {
	h, err := s.open.acquire(chunkRef{path, id}, false)
	if errors.Is(err, vfs.ErrNotExist) {
		return 0, nil // never written: hole
	}
	var n int
	if err == nil {
		n, err = readFileAt(h.f, offset, dst)
		s.open.release(h)
	}
	if err != nil {
		return 0, fmt.Errorf("chunkstore: read %s#%d: %w", path, id, err)
	}
	s.open.copiedBytes.Add(uint64(n))
	return n, nil
}

// readFileAt reads up to len(dst) bytes of a chunk or pre-image file at
// offset, clamped to the file's end: the read's own short count says
// where that is, so the size is never asked for.
func readFileAt(f vfs.File, offset int64, dst []byte) (int, error) {
	n, err := f.ReadAt(dst, offset)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// View is a read reply's hold on bytes of one live chunk: B is a window
// of the chunk file's mapping — the page cache itself, which a carrier
// sends from with no copy of the store's own; nothing writes B. It holds the
// chunk's open handle, never the path lock: a truncate, remove or
// copy-on-write of the path goes ahead while a view is out, and the view
// keeps showing the inode it was taken from. An overwrite of that inode
// shows through, as it would to a read racing it. Release it exactly
// once, when nothing reads B any more.
type View struct {
	B []byte
	h *openChunk
	c *openCache
}

// Release ends the view; the zero View releases nothing.
func (v View) Release() {
	if v.h != nil {
		v.c.release(v.h)
	}
}

// ViewChunk is ReadChunk without the copy: it returns a view of up to n
// bytes of chunk id of path at the chunk-local offset, clamped to the
// chunk's end as the handle knows it (never by asking the kernel). A
// missing chunk, or an offset at or past its end, views as zero bytes.
// ok is false when the chunk file cannot be mapped, and the caller reads
// it with ReadChunk instead: a store on a file system whose files never
// map (an in-memory or a wrapping one, a platform without mmap) says so
// before it takes any lock or handle, so its reads cost one acquire as
// before; a failed mmap says so after. The mapping covers the first
// chunk-size bytes of the file; it is made at the handle's first view or
// mapped write and kept while it is open.
//
// Only live content has views: a pinned-epoch read copies under the path
// lock (ReadChunkAt), because the first overwrite after a pin changes the
// live inode in place once it has copied the pre-image.
func (s *Store) ViewChunk(path string, id meta.ChunkID, offset, n int64) (v View, ok bool, err error) {
	if !s.maps {
		return View{}, false, nil
	}
	l := s.lockFor(path)
	l.RLock()
	defer l.RUnlock()
	h, err := s.open.acquire(chunkRef{path, id}, false)
	if errors.Is(err, vfs.ErrNotExist) {
		return View{}, true, nil // never written: hole
	}
	if err != nil {
		return View{}, false, fmt.Errorf("chunkstore: read %s#%d: %w", path, id, err)
	}
	m := s.open.mapped(h)
	if m == nil {
		s.open.release(h)
		return View{}, false, nil
	}
	end := min(offset+n, h.size.Load(), int64(len(m)))
	if end <= offset {
		s.open.release(h)
		return View{}, true, nil
	}
	s.open.mappedBytes.Add(uint64(end - offset))
	return View{B: m[offset:end:end], h: h, c: s.open}, true, nil
}

// RemoveChunks deletes every chunk of path. Removing a path without
// chunks succeeds.
func (s *Store) RemoveChunks(path string) error {
	l := s.lockFor(path)
	l.Lock()
	defer l.Unlock()
	s.open.dropPath(path)
	dir := chunkDir(path)
	names, err := s.fs.List(dir)
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := s.fs.Remove(dir + "/" + n); err != nil {
			return fmt.Errorf("chunkstore: remove %s: %w", path, err)
		}
	}
	return nil
}

// TruncateChunks discards data beyond newSize: chunks fully past the new
// end are removed and the final partial chunk, if present, is trimmed by
// rewriting its prefix.
func (s *Store) TruncateChunks(path string, chunkSize, newSize int64) error {
	l := s.lockFor(path)
	l.Lock()
	defer l.Unlock()
	s.open.dropPath(path)
	dir := chunkDir(path)
	names, err := s.fs.List(dir)
	if err != nil {
		return err
	}
	keep := meta.ChunksForSize(newSize, chunkSize) // chunks [0, keep) survive
	for _, n := range names {
		id, err := strconv.ParseUint(n, 10, 64)
		if err != nil {
			continue // foreign file; leave it
		}
		if int64(id) >= keep {
			if err := s.fs.Remove(dir + "/" + n); err != nil {
				return err
			}
		}
	}
	if keep == 0 || newSize%chunkSize == 0 {
		return nil
	}
	// Trim the final chunk to its surviving prefix: written to a sibling
	// file and renamed over the chunk, so a failure at any step leaves the
	// chunk whole, and the inode a read reply's view may still map never
	// shrinks under it.
	lastID := meta.ChunkID(keep - 1)
	want := newSize - int64(lastID)*chunkSize
	name := chunkFile(path, lastID)
	f, err := s.fs.Open(name)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil // final chunk never written: nothing to trim
	}
	if err != nil {
		return fmt.Errorf("chunkstore: truncate %s#%d: %w", path, lastID, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	if size <= want {
		f.Close()
		return nil
	}
	buf := make([]byte, want)
	_, err = f.ReadAt(buf, 0)
	f.Close()
	if err != nil {
		return err
	}
	if err := s.replaceFile(name, buf); err != nil {
		return fmt.Errorf("chunkstore: truncate %s#%d: %w", path, lastID, err)
	}
	return nil
}

// replaceFile atomically replaces name with a file holding data: it is
// written to the sibling name+".trim" (a foreign name to chunk and
// pre-image listings, which skip it) and renamed over name. On failure
// name is untouched and the sibling removed.
func (s *Store) replaceFile(name string, data []byte) error {
	tmp := name + ".trim"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, name)
	}
	if err != nil {
		s.fs.Remove(tmp)
	}
	return err
}

// ChunkIDs lists the chunk IDs stored for path, sorted ascending.
func (s *Store) ChunkIDs(path string) ([]meta.ChunkID, error) {
	l := s.lockFor(path)
	l.RLock()
	defer l.RUnlock()
	names, err := s.fs.List(chunkDir(path))
	if err != nil {
		return nil, err
	}
	ids := make([]meta.ChunkID, 0, len(names))
	for _, n := range names {
		id, err := strconv.ParseUint(n, 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, meta.ChunkID(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}
