package kvstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// MergeOperator combines a key's existing value (nil if absent) with merge
// operands, oldest first, producing the new value. GekkoFS daemons use it
// for lock-free file-size updates, mirroring the released system's RocksDB
// merge operands. The store folds operands whenever it likes — at insert,
// on WAL replay, at flush, in compaction — so the operator must be a pure
// function of its arguments, must return a fresh buffer, and applying it
// in steps must equal applying it once:
// m(k, m(k, v, a), b) == m(k, v, a++b).
type MergeOperator func(key, existing []byte, operands [][]byte) []byte

// Options tunes a DB. The zero value plus an FS is usable; defaults follow
// the paper's setting of an LSM store on low-latency NAND storage.
type Options struct {
	// FS is the backing file system; required. Use vfs.NewMem() for a
	// purely in-memory store.
	FS vfs.FS
	// Merger resolves merge operands. Required before calling Merge.
	Merger MergeOperator
	// SyncWAL forces an fsync per write batch. GekkoFS acknowledges
	// operations synchronously; tests enable this together with crash
	// injection.
	SyncWAL bool
	// DisableWAL turns the log off entirely (volatile store). Used by the
	// in-process benchmarks where durability is irrelevant.
	DisableWAL bool
	// MemTableBytes is the flush threshold (default 4 MiB).
	MemTableBytes int64
	// BlockBytes is the SSTable block target (default 4 KiB).
	BlockBytes int
	// L0CompactTrigger is the number of L0 tables that triggers a
	// compaction into L1 (default 4).
	L0CompactTrigger int
	// LevelBytesBase is the size budget of L1 (default 8 MiB); each level
	// below is LevelMultiplier times larger.
	LevelBytesBase int64
	// LevelMultiplier is the growth factor between levels (default 10).
	LevelMultiplier int64
	// TargetFileBytes is the compaction output file size (default 2 MiB).
	TargetFileBytes int64
	// BloomBitsPerKey sizes the per-table bloom filters (default 10).
	BloomBitsPerKey int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MemTableBytes == 0 {
		out.MemTableBytes = 4 << 20
	}
	if out.BlockBytes == 0 {
		out.BlockBytes = 4 << 10
	}
	if out.L0CompactTrigger == 0 {
		out.L0CompactTrigger = 4
	}
	if out.LevelBytesBase == 0 {
		out.LevelBytesBase = 8 << 20
	}
	if out.LevelMultiplier == 0 {
		out.LevelMultiplier = 10
	}
	if out.TargetFileBytes == 0 {
		out.TargetFileBytes = 2 << 20
	}
	if out.BloomBitsPerKey == 0 {
		out.BloomBitsPerKey = 10
	}
	return out
}

// Stats exposes engine counters. Each uint64 field's metric tag is the
// name the hosting daemon exports it under (telemetry's field walker).
type Stats struct {
	// Puts, Gets, Deletes, Merges count user operations.
	Puts    uint64 `metric:"gkfs_kv_puts_total"`
	Gets    uint64 `metric:"gkfs_kv_gets_total"`
	Deletes uint64 `metric:"gkfs_kv_deletes_total"`
	Merges  uint64 `metric:"gkfs_kv_merges_total"`
	// Flushes counts memtable flushes; Compactions counts table merges.
	Flushes     uint64 `metric:"gkfs_kv_flushes_total"`
	Compactions uint64 `metric:"gkfs_kv_compactions_total"`
	// MergeFolds counts merge operands stored as the folded put at insert;
	// MergeResolves counts the folds among them that had to look the base
	// up below the active memtable because a run reached its bound — a
	// resolve rate near the fold rate means hot keys keep losing their
	// base to memtable rotation.
	MergeFolds    uint64 `metric:"gkfs_kv_merge_folds_total"`
	MergeResolves uint64 `metric:"gkfs_kv_merge_resolves_total"`
	// TablesPerLevel is the current table count per level.
	TablesPerLevel [numLevels]int
	// MemBytes is the active memtable's approximate size.
	MemBytes int64
}

// Common errors.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("kvstore: store is closed")
	// ErrNoMerger reports a Merge call without Options.Merger.
	ErrNoMerger = errors.New("kvstore: no merge operator configured")
)

// DB is the store. It is safe for concurrent use.
type DB struct {
	opts Options
	fs   vfs.FS

	compactMu sync.Mutex // serialises compactions; taken before mu

	mu       sync.Mutex
	cond     *sync.Cond // signals the background worker
	mem      *memTable
	imm      []immTable // flush queue, oldest first
	wal      *walWriter
	walNum   uint64
	seq      uint64
	vers     *version
	readers  map[uint64]*sstReader
	nextFile uint64
	closed   bool
	bgErr    error
	workDone chan struct{}
	// iterRefs counts readers (iterators and point lookups) that may still
	// open tables of a version compaction has since replaced.
	iterRefs int
	// obsoleteTables are table numbers replaced by compaction whose files
	// are deleted once no reader references them.
	obsoleteTables []uint64
	stats          Stats
	// visited counts the versions chain folds examined; tests pin read
	// cost on it.
	visited atomic.Uint64

	keyLocks [64]sync.Mutex // striped locks backing PutIfAbsent
}

type immTable struct {
	mt     *memTable
	walNum uint64
}

// Open creates or recovers a store in opts.FS.
func Open(opts Options) (*DB, error) {
	if opts.FS == nil {
		return nil, errors.New("kvstore: Options.FS is required")
	}
	o := opts.withDefaults()
	db := &DB{
		opts:     o,
		fs:       o.FS,
		vers:     &version{},
		readers:  make(map[uint64]*sstReader),
		nextFile: 1,
		workDone: make(chan struct{}),
	}
	db.cond = sync.NewCond(&db.mu)

	st, ok, err := readManifest(db.fs)
	if err != nil {
		return nil, err
	}
	if ok {
		db.vers = st.vers
		db.seq = st.lastSeq
		db.nextFile = st.nextFile
		db.walNum = st.walNum
	}

	db.mem = newMemTable(int64(db.seq) + 1)
	if err := db.recoverWALs(); err != nil {
		return nil, err
	}
	if err := db.rotateWAL(); err != nil {
		return nil, err
	}

	go db.backgroundWork()
	return db, nil
}

// recoverWALs replays every intact log batch into the fresh memtable and,
// if anything was recovered, flushes it straight to L0 so the old logs can
// be deleted. Recovery therefore leaves the store with an empty log.
func (db *DB) recoverWALs() error {
	names, err := db.fs.List("")
	if err != nil {
		return err
	}
	var nums []uint64
	for _, n := range names {
		var num uint64
		if _, err := fmt.Sscanf(n, "wal-%d.log", &num); err == nil {
			nums = append(nums, num)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	recovered := false
	for _, num := range nums {
		f, err := db.fs.Open(walName(num))
		if err != nil {
			return err
		}
		maxSeq, err := replayWAL(f, func(e entry) {
			db.insertLocked(e)
			recovered = true
		})
		f.Close()
		if err != nil {
			return err
		}
		if maxSeq > db.seq {
			db.seq = maxSeq
		}
	}
	if recovered {
		tables, err := db.flushTable(db.mem)
		if err != nil {
			return err
		}
		db.vers.levels[0] = append(tables, db.vers.levels[0]...)
		db.mem = newMemTable(int64(db.seq) + 1)
		if err := db.persistManifestLocked(); err != nil {
			return err
		}
	}
	for _, num := range nums {
		if err := db.fs.Remove(walName(num)); err != nil {
			return err
		}
	}
	return nil
}

func walName(num uint64) string { return fmt.Sprintf("wal-%06d.log", num) }

// rotateWAL opens a fresh log for the active memtable.
func (db *DB) rotateWAL() error {
	if db.opts.DisableWAL {
		return nil
	}
	db.walNum++
	f, err := db.fs.Create(walName(db.walNum))
	if err != nil {
		return err
	}
	db.wal = newWALWriter(f)
	return nil
}

// Put stores key=value.
func (db *DB) Put(key, value []byte) error {
	return db.apply([]entry{{key: key, val: value, kind: kindPut}})
}

// Delete removes key; deleting an absent key succeeds.
func (db *DB) Delete(key []byte) error {
	return db.apply([]entry{{key: key, kind: kindDelete}})
}

// Merge records a merge operand for key. The log keeps the operand. The
// memtable keeps it too while the key has only a few bare operands there;
// once the key's newest version is a put or a delete, or the operand would
// be its mergeRunBound-th in a row, the memtable keeps the value
// Options.Merger folds it into instead (insertLocked) — so resolving a key
// never costs more than a bounded walk.
func (db *DB) Merge(key, operand []byte) error {
	if db.opts.Merger == nil {
		return ErrNoMerger
	}
	return db.apply([]entry{{key: key, val: operand, kind: kindMerge}})
}

// Batch applies several operations atomically with respect to recovery:
// either the whole batch replays from the WAL or none of it. Batch
// methods copy keys and values as they are queued, so Apply can hand the
// entries to the memtable without a second copy.
type Batch struct {
	ops []entry
}

// Put adds a put to the batch.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, entry{key: append([]byte(nil), key...), val: append([]byte(nil), value...), kind: kindPut})
}

// Delete adds a delete to the batch.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, entry{key: append([]byte(nil), key...), kind: kindDelete})
}

// Merge adds a merge operand to the batch.
func (b *Batch) Merge(key, operand []byte) {
	b.ops = append(b.ops, entry{key: append([]byte(nil), key...), val: append([]byte(nil), operand...), kind: kindMerge})
}

// PutOwned, DeleteOwned and MergeOwned are the zero-copy variants: the
// batch takes ownership of the buffers, which the caller must not touch
// afterwards. They exist for hot batch producers (the daemon's vectored
// metadata handler) whose buffers are freshly built per op anyway.

// PutOwned adds a put whose buffers the batch takes ownership of.
func (b *Batch) PutOwned(key, value []byte) {
	b.ops = append(b.ops, entry{key: key, val: value, kind: kindPut})
}

// DeleteOwned adds a delete whose key buffer the batch takes ownership of.
func (b *Batch) DeleteOwned(key []byte) {
	b.ops = append(b.ops, entry{key: key, kind: kindDelete})
}

// MergeOwned adds a merge operand whose buffers the batch takes ownership
// of.
func (b *Batch) MergeOwned(key, operand []byte) {
	b.ops = append(b.ops, entry{key: key, val: operand, kind: kindMerge})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Apply commits the batch. The batch owns its entry buffers (its methods
// copied them at queue time), so they move into the memtable as-is; the
// batch must not be reused after Apply.
func (db *DB) Apply(b *Batch) error {
	if len(b.ops) == 0 {
		return nil
	}
	err := db.applyEntries(b.ops, true)
	b.ops = nil
	return err
}

// apply copies the callers' buffers and inserts the operations.
func (db *DB) apply(ops []entry) error {
	return db.applyEntries(ops, false)
}

// applyEntries assigns sequence numbers, logs, and inserts the
// operations. owned declares that the entries' key/value buffers belong
// to the store already and need no defensive copy.
func (db *DB) applyEntries(ops []entry, owned bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.bgErr != nil {
		return db.bgErr
	}
	// Backpressure: cap the flush queue.
	for len(db.imm) >= 2 {
		db.cond.Wait()
		if db.closed {
			return ErrClosed
		}
		if db.bgErr != nil {
			return db.bgErr
		}
	}

	first := db.seq + 1
	for i := range ops {
		ops[i].seq = first + uint64(i)
	}
	db.seq += uint64(len(ops))

	if !db.opts.DisableWAL {
		if err := db.wal.append(first, ops, db.opts.SyncWAL); err != nil {
			return err
		}
	}
	for i := range ops {
		e := ops[i]
		if !owned {
			// Copy key/val so callers may reuse their buffers.
			e.key = append([]byte(nil), ops[i].key...)
			e.val = append([]byte(nil), ops[i].val...)
		}
		switch e.kind {
		case kindPut:
			db.stats.Puts++
		case kindDelete:
			db.stats.Deletes++
		case kindMerge:
			db.stats.Merges++
		}
		db.insertLocked(e)
	}

	if db.mem.sizeBytes() >= db.opts.MemTableBytes {
		if err := db.rotateMemLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotateMemLocked moves the active memtable to the flush queue and starts
// a fresh one with a fresh WAL. Caller holds db.mu.
func (db *DB) rotateMemLocked() error {
	db.imm = append(db.imm, immTable{mt: db.mem, walNum: db.walNum})
	if db.wal != nil {
		if err := db.wal.close(); err != nil {
			return err
		}
		db.wal = nil
	}
	if err := db.rotateWAL(); err != nil {
		return err
	}
	db.mem = newMemTable(int64(db.seq) + 1)
	db.cond.Broadcast()
	return nil
}

// Get returns the value of key. The returned slice is the caller's to
// keep.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	db.stats.Gets++
	// db.imm is only ever trimmed at the front and appended to at the back,
	// so the elements this header covers are never rewritten.
	mem, imm, vers, snap := db.mem, db.imm, db.vers, db.seq
	// Hold the tables of vers open across the lookup, as NewIterator does:
	// without the reference a compaction finishing after the unlock would
	// close and unlink them under the fold, failing a lookup the caller
	// did nothing to deserve.
	db.iterRefs++
	db.mu.Unlock()
	defer db.releaseIterRefs()

	var f chainFold
	if !mem.fold(key, snap, &f) {
		if err := db.foldBelow(key, snap, imm, vers, &f, db.reader); err != nil {
			return nil, err
		}
	}
	val, live := db.foldValue(key, &f, nil)
	if !live {
		return nil, ErrNotFound
	}
	return val, nil
}

// Has reports whether key exists.
func (db *DB) Has(key []byte) (bool, error) {
	_, err := db.Get(key)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	return false, err
}

// PutIfAbsent atomically stores key=value if the key has no live value,
// returning whether it stored. The daemons build create-exclusive
// semantics for paths on this.
func (db *DB) PutIfAbsent(key, value []byte) (bool, error) {
	l := &db.keyLocks[keyStripe(key)]
	l.Lock()
	defer l.Unlock()
	switch _, err := db.Get(key); {
	case err == nil:
		return false, nil
	case errors.Is(err, ErrNotFound):
		return true, db.Put(key, value)
	default:
		return false, err
	}
}

// Update atomically transforms the value of key under the key's stripe
// lock: fn receives the current value (nil if absent) and returns the new
// value, or delete=true to remove the key. fn must not call back into the
// DB.
func (db *DB) Update(key []byte, fn func(cur []byte, found bool) (next []byte, del bool, err error)) error {
	l := &db.keyLocks[keyStripe(key)]
	l.Lock()
	defer l.Unlock()
	cur, err := db.Get(key)
	found := err == nil
	if err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	next, del, err := fn(cur, found)
	if err != nil {
		return err
	}
	if del {
		return db.Delete(key)
	}
	return db.Put(key, next)
}

func keyStripe(key []byte) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % 64)
}

// KeyLocks is a held set of key stripe locks (see LockKeys).
type KeyLocks struct {
	db      *DB
	stripes uint64 // one bit per held stripe; len(keyLocks) == 64
}

// LockKeys takes the stripe locks covering every key, in stripe order so
// concurrent multi-key holders cannot deadlock, and returns the held set
// for the caller to Unlock. PutIfAbsent and Update take the same locks,
// so until then the caller reads and mutates the covered keys atomically
// with respect to them — the foundation for applying a
// read-validate-write batch (e.g. a vector of create-exclusive inserts)
// as one Apply. The holder must not call PutIfAbsent, Update or LockKeys.
func (db *DB) LockKeys(keys [][]byte) KeyLocks {
	held := KeyLocks{db: db}
	for _, k := range keys {
		held.stripes |= 1 << keyStripe(k)
	}
	for m := held.stripes; m != 0; m &= m - 1 {
		db.keyLocks[bits.TrailingZeros64(m)].Lock()
	}
	return held
}

// Unlock releases the held stripes.
func (held KeyLocks) Unlock() {
	for m := held.stripes; m != 0; m &= m - 1 {
		held.db.keyLocks[bits.TrailingZeros64(m)].Unlock()
	}
}

// reader returns (opening if needed) the cached sstReader for a table.
func (db *DB) reader(t tableMeta) (*sstReader, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.readerLocked(t)
}

// readerLocked is reader for callers already inside the lock. Caller
// holds db.mu.
func (db *DB) readerLocked(t tableMeta) (*sstReader, error) {
	if r, ok := db.readers[t.num]; ok {
		return r, nil
	}
	f, err := db.fs.Open(sstName(t.num))
	if err != nil {
		return nil, err
	}
	r, err := openSSTReader(f, t)
	if err != nil {
		f.Close()
		return nil, err
	}
	db.readers[t.num] = r
	return r, nil
}

// NewIterator returns an ordered cursor over the store at the current
// sequence snapshot. Callers must Close it.
func (db *DB) NewIterator() (*Iterator, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	snap := db.seq
	srcs := []internalIterator{db.mem.iter()}
	for i := len(db.imm) - 1; i >= 0; i-- {
		srcs = append(srcs, db.imm[i].mt.iter())
	}
	vers := db.vers
	db.iterRefs++
	db.mu.Unlock()

	for l := 0; l < numLevels; l++ {
		for _, t := range vers.levels[l] {
			r, err := db.reader(t)
			if err != nil {
				db.releaseIterRefs()
				return nil, err
			}
			srcs = append(srcs, r.iter())
		}
	}
	return &Iterator{db: db, it: newMergeIter(srcs), snap: snap}, nil
}

// releaseIterRefs drops one iterator reference and deletes any files whose
// removal was deferred while iterators were open.
func (db *DB) releaseIterRefs() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.iterRefs--
	if db.iterRefs == 0 {
		db.deleteObsoleteLocked()
	}
}

func (db *DB) deleteObsoleteLocked() {
	for _, num := range db.obsoleteTables {
		if r, ok := db.readers[num]; ok {
			r.close()
			delete(db.readers, num)
		}
		// Best effort; a leaked file is harmless.
		_ = db.fs.Remove(sstName(num))
	}
	db.obsoleteTables = nil
}

// Flush forces the active memtable to disk and waits for the flush queue
// to drain. Mainly for tests and for DisableWAL users that want a
// consistent on-disk state.
func (db *DB) Flush() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.mem.entries() > 0 {
		if err := db.rotateMemLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	for len(db.imm) > 0 && db.bgErr == nil && !db.closed {
		db.cond.Wait()
	}
	err := db.bgErr
	db.mu.Unlock()
	return err
}

// CompactAll flushes and then compacts until every level respects its
// budget and L0 is empty. Tests use it to exercise full merges.
func (db *DB) CompactAll() error {
	if err := db.Flush(); err != nil {
		return err
	}
	for {
		if ok, err := db.compactOnce(true); err != nil || !ok {
			return err
		}
	}
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := db.stats
	st.MemBytes = db.mem.sizeBytes()
	for l := 0; l < numLevels; l++ {
		st.TablesPerLevel[l] = len(db.vers.levels[l])
	}
	return st
}

// Close stops background work and releases files. Buffered but unflushed
// data stays recoverable through the WAL (unless DisableWAL).
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()
	<-db.workDone

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		db.wal.close()
		db.wal = nil
	}
	for _, r := range db.readers {
		r.close()
	}
	db.readers = nil
	return db.bgErr
}
