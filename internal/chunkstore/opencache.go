package chunkstore

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/meta"
	"repro/internal/vfs"
)

// The open-chunk cache. A small synchronous chunk I/O used to be
// open + fstat + pread/pwrite + close around one data syscall; the store
// instead keeps the live chunk files it touched last open, so an I/O on a
// cached chunk is the data syscall alone.
//
// What keeps a cached handle honest is the path lock: every chunk I/O
// holds its path's read lock from acquire to release, and every operation
// that unlinks, renames or replaces a chunk file (RemoveChunks*,
// TruncateChunks*) holds the write lock and drops the path's handles
// before it lets go. No write therefore reaches a handle past the name it
// was opened under — in particular none can follow a chunk renamed into a
// pre-image (cow.go) and write into a pinned epoch; that holds for a write
// copied into the handle's mapping as for a pwrite. Lock order is
// cowMu → path lock → openCache.mu; the cache calls nothing that locks.
//
// A read reply's view (View) is the one hold that outlives its lock: it
// keeps its handle's refcount, never the path lock, so a client slow to
// take its reply stalls no truncate, remove or copy-on-write of the
// path's lock stripe. A dropped handle a view still holds reads the inode
// it was opened on — unlinked, renamed into a pre-image or replaced —
// until the view's release closes it. That is safe because no live chunk
// inode ever shrinks in place: a truncate writes the kept prefix to a
// sibling file and renames it over the chunk, so every byte below a
// handle's size stays mapped while the handle is open.

// maxOpenChunks bounds the chunk files one store keeps open. Measured on
// small_random_rw (8 KiB random I/O over a 256 MiB shared file: a hot set
// of 256 chunk files on each of 2 daemons), bound forced in a scratch
// build, medians of three interleaved rounds (docs/bench/BENCH_PR24.json):
// hit share 0.25 / 0.50 / 1.00 / 1.00 and cpu_us_per_op 43.1 / 42.6 /
// 36.6 / 34.2 at 64 / 128 / 256 / 512; 2048 is indistinguishable from
// 512. A bound below the hot set loses the gain in proportion (LRU under
// uniform random access hits bound/hot-set of the time); anything at or
// above it is equivalent, so the constant is twice the measured hot set.
// 512 is also half the traditional 1024-descriptor soft RLIMIT_NOFILE, so
// a daemon's cache leaves room for its sockets, WAL and tables even where
// the limit was never raised; a store that meets EMFILE anyway sheds a
// handle and retries (acquire).
const maxOpenChunks = 512

// chunkRef names one live chunk file without building its file name: a
// hit allocates nothing.
type chunkRef struct {
	path string
	id   meta.ChunkID
}

// openChunk is one open chunk file; ref and f are immutable.
type openChunk struct {
	ref chunkRef
	f   vfs.File
	// size is the file's length as the store knows it: fstat'd once,
	// under openCache.mu as the handle is published (so before any writer
	// has it, and after every write through an earlier handle), then
	// raised by every write through the handle after its bytes landed.
	// It never overstates the file, and the file never shrinks below it,
	// so a view clamped to it never reads past the end of the mapping's
	// backing file. A read never asks the kernel for the size.
	size atomic.Int64
	// mapping is the file's first chunk-size bytes, mapped read-write at
	// the handle's first view or mapped write (mapOnce); nil when the
	// file cannot be mapped. It is unmapped when the handle closes.
	mapOnce sync.Once
	mapping []byte
	refs    int           // guarded by openCache.mu; I/Os and views between acquire and release
	dead    bool          // guarded by openCache.mu; no longer indexed: the last release closes it
	elem    *list.Element // guarded by openCache.mu; position in the LRU list while indexed
}

// openCache is a bounded LRU of open chunk files. The bound is strict:
// when every handle is in use a miss waits for a release instead of
// opening one more (an I/O holds one handle and waits for nothing else
// while it does, so the wait always ends).
type openCache struct {
	fs     vfs.FS
	mapLen int64 // bytes of each chunk file mapped: the chunk size

	mu    sync.Mutex
	freed sync.Cond               // broadcast when a handle is released or a reservation returned
	bound int                     // guarded by mu (tests lower it)
	open  int                     // guarded by mu; indexed + dead-but-held handles + opens in progress
	index map[chunkRef]*openChunk // guarded by mu
	lru   list.List               // guarded by mu; front is most recently used
	shut  bool                    // guarded by mu; after Close nothing is kept

	hits, misses, evictions uint64 // guarded by mu

	// Reply bytes by how they left the store: as views of a mapping
	// (ViewChunk) or copied by a read into a caller's region (ReadChunk*).
	mappedBytes, copiedBytes atomic.Uint64
	// Written bytes by how they entered a chunk file: copied into its
	// mapping or pwritten; and mapped copies that faulted and were redone
	// by pwrite (Store.writeAt).
	writeMappedBytes, writePwriteBytes, mapFaults atomic.Uint64
}

func newOpenCache(fs vfs.FS, mapLen int64) *openCache {
	c := &openCache{fs: fs, mapLen: mapLen, bound: maxOpenChunks, index: make(map[chunkRef]*openChunk)}
	c.freed.L = &c.mu
	return c
}

// grow raises h's known size to end, once the bytes below end landed.
func (h *openChunk) grow(end int64) {
	for {
		cur := h.size.Load()
		if end <= cur || h.size.CompareAndSwap(cur, end) {
			return
		}
	}
}

// mapped returns h's mapping of the cache's mapLen bytes, mapping the
// file at the first call; nil when the file cannot be mapped. The caller
// holds a reference on h.
func (c *openCache) mapped(h *openChunk) []byte {
	h.mapOnce.Do(func() {
		if m, err := vfs.Map(h.f, int(c.mapLen)); err == nil {
			h.mapping = m
		}
	})
	return h.mapping
}

// close unmaps and closes h. Nothing holds it any more: its last
// reference was released, or it was never published.
func (h *openChunk) close() {
	if h.mapping != nil {
		vfs.Unmap(h.mapping)
	}
	h.f.Close()
}

// unindex takes h out of the index and the LRU list. The caller closes it
// when nothing holds it; otherwise the last release does. Caller holds mu.
func (c *openCache) unindex(h *openChunk) {
	delete(c.index, h.ref)
	c.lru.Remove(h.elem)
	h.dead = true
}

// evictIdle unindexes the least recently used handle no I/O holds and
// returns it for the caller to close outside the mutex; nil when every
// handle is in use. Caller holds mu.
func (c *openCache) evictIdle() *openChunk {
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		if h := e.Value.(*openChunk); h.refs == 0 {
			c.unindex(h)
			c.open--
			c.evictions++
			return h
		}
	}
	return nil
}

// tooManyFiles reports the process or the system running out of file
// descriptors.
func tooManyFiles(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE)
}

// openFile opens ref's chunk file, for a writer creating it if missing.
func (c *openCache) openFile(ref chunkRef, create bool) (vfs.File, error) {
	if create {
		return c.fs.OpenOrCreate(chunkFile(ref.path, ref.id))
	}
	return c.fs.Open(chunkFile(ref.path, ref.id))
}

// acquire returns the open handle of ref, opening the file on a miss (a
// chunk never written answers a reader with vfs.ErrNotExist). The caller
// holds ref.path's read lock and must release the handle before dropping
// it.
func (c *openCache) acquire(ref chunkRef, create bool) (*openChunk, error) {
	c.mu.Lock()
	var victim *openChunk
	for {
		if h := c.index[ref]; h != nil {
			h.refs++
			c.lru.MoveToFront(h.elem)
			c.hits++
			c.mu.Unlock()
			return h, nil
		}
		if c.open < c.bound {
			break
		}
		if victim = c.evictIdle(); victim != nil {
			break
		}
		c.freed.Wait()
	}
	c.misses++
	c.open++ // reserved across the open below
	c.mu.Unlock()
	if victim != nil {
		victim.close()
	}

	f, err := c.openFile(ref, create)
	if tooManyFiles(err) {
		// The descriptor table is full, whoever filled it: give one of
		// ours back and try once more before failing the operation.
		c.mu.Lock()
		victim = c.evictIdle()
		c.mu.Unlock()
		if victim != nil {
			victim.close()
			f, err = c.openFile(ref, create)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.open--
		c.freed.Broadcast()
		return nil, err
	}
	if h := c.index[ref]; h != nil {
		// A concurrent miss on the same chunk won the insert: share its
		// handle and give ours back (nothing else can hold f, so closing it
		// under the mutex delays no I/O on it).
		h.refs++
		c.open--
		c.freed.Broadcast()
		f.Close()
		return h, nil
	}
	// The size is read here, under mu with no handle of ref indexed, and
	// not at the open: a handle of ref published and evicted since then
	// may have carried writes that grew the file, but an evicted handle
	// had no holder left, so each of those writes has landed by now, and
	// no writer holds a handle of ref until this one is published.
	size, err := f.Size()
	if err != nil {
		c.open--
		c.freed.Broadcast()
		f.Close()
		return nil, err
	}
	h := &openChunk{ref: ref, f: f, refs: 1, dead: c.shut}
	h.size.Store(size)
	if !h.dead {
		h.elem = c.lru.PushFront(h)
		c.index[ref] = h
	}
	return h, nil
}

// release ends an I/O's or a view's hold on h.
func (c *openCache) release(h *openChunk) {
	c.mu.Lock()
	h.refs--
	closing := h.dead && h.refs == 0
	if closing {
		c.open--
	}
	c.freed.Broadcast()
	c.mu.Unlock()
	if closing {
		h.close()
	}
}

// drop closes the handles match selects. Callers hold the write lock of
// every path whose handles they select, so no I/O holds one of those; a
// handle a read reply's view still holds (or a handler racing Close) is
// closed by its last release.
func (c *openCache) drop(match func(chunkRef) bool) {
	var idle []*openChunk
	c.mu.Lock()
	for ref, h := range c.index {
		if !match(ref) {
			continue
		}
		c.unindex(h)
		if h.refs == 0 {
			c.open--
			idle = append(idle, h)
		}
	}
	if len(idle) > 0 {
		c.freed.Broadcast()
	}
	c.mu.Unlock()
	for _, h := range idle {
		h.close()
	}
}

// dropPath closes every cached handle of path. Caller holds path's write
// lock.
func (c *openCache) dropPath(path string) {
	c.drop(func(ref chunkRef) bool { return ref.path == path })
}

// closeAll closes every cached handle and keeps none from here on: a
// handler still running finishes its I/O on a handle of its own.
func (c *openCache) closeAll() {
	c.mu.Lock()
	c.shut = true
	c.mu.Unlock()
	c.drop(func(chunkRef) bool { return true })
}

// OpenStats are the open-chunk cache's counters, exported by the hosting
// daemon under their metric tags. A hit is a chunk I/O that found its
// file already open — one data syscall; a miss opened it; an eviction
// closed the least recently used handle to stay within the bound. Hits
// near zero with evictions tracking misses is streaming (every chunk
// touched once); the same picture on a small-I/O workload means its hot
// set outgrew the cache. Open is the level the bound applies to.
// MappedBytes are read-reply bytes handed out as views of a chunk file's
// mapping, CopiedBytes those a read copied into a caller's region — the
// fallback of a pinned-epoch read, an unmappable file or a platform
// without mmap. WriteMappedBytes are written bytes copied into a chunk
// file's mapping (small in-place rewrites), WritePwriteBytes those
// pwritten (extending or large writes, unmappable files, and the redo of
// a faulted copy); MapFaults counts mapped copies that faulted and were
// redone by pwrite — a chunk file shrunk behind the store, or a failing
// disk.
type OpenStats struct {
	Hits             uint64 `metric:"gkfs_chunk_open_hits_total"`
	Misses           uint64 `metric:"gkfs_chunk_open_misses_total"`
	Evictions        uint64 `metric:"gkfs_chunk_open_evictions_total"`
	Open             uint64 `metric:"gkfs_chunk_open_handles,gauge"`
	MappedBytes      uint64 `metric:"gkfs_chunk_reply_mapped_bytes_total"`
	CopiedBytes      uint64 `metric:"gkfs_chunk_reply_copied_bytes_total"`
	WriteMappedBytes uint64 `metric:"gkfs_chunk_write_mapped_bytes_total"`
	WritePwriteBytes uint64 `metric:"gkfs_chunk_write_pwrite_bytes_total"`
	MapFaults        uint64 `metric:"gkfs_chunk_map_faults_total"`
}

func (c *openCache) stats() OpenStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return OpenStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Open: uint64(c.open),
		MappedBytes: c.mappedBytes.Load(), CopiedBytes: c.copiedBytes.Load(),
		WriteMappedBytes: c.writeMappedBytes.Load(), WritePwriteBytes: c.writePwriteBytes.Load(),
		MapFaults: c.mapFaults.Load(),
	}
}
