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
}

// New returns a store backed by fs, rooted at "chunks/" with snapshot
// pre-images under "snap/".
func New(fs vfs.FS) *Store {
	s := &Store{fs: fs, pre: make(map[string][]uint64), last: make(map[string]uint64), open: newOpenCache(fs)}
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

// WriteChunk writes data into chunk id of path at the chunk-local offset,
// creating the chunk file as needed.
func (s *Store) WriteChunk(path string, id meta.ChunkID, offset int64, data []byte) error {
	l := s.lockFor(path)
	l.RLock()
	defer l.RUnlock()
	h, err := s.open.acquire(chunkRef{path, id}, true)
	if err != nil {
		return fmt.Errorf("chunkstore: write %s#%d: %w", path, id, err)
	}
	_, err = h.f.WriteAt(data, offset)
	s.open.release(h)
	if err != nil {
		return fmt.Errorf("chunkstore: write %s#%d: %w", path, id, err)
	}
	return nil
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
	// Trim the final chunk to its surviving prefix.
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
	if _, err := f.ReadAt(buf, 0); err != nil {
		f.Close()
		return err
	}
	f.Close()
	nf, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	defer nf.Close()
	if _, err := nf.WriteAt(buf, 0); err != nil {
		return err
	}
	return nil
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
