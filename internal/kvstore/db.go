package kvstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/vfs"
)

// MergeOperator combines a key's existing value (nil if absent) with merge
// operands, oldest first, producing the new value. GekkoFS daemons use it
// for lock-free file-size updates, mirroring the released system's RocksDB
// merge operands. The store folds each operand into the key's value as
// it is inserted, and again on WAL replay, so the operator must be a pure
// function of its arguments, must not modify existing, must return a
// fresh buffer, and applying it in steps must equal applying it once:
// m(k, m(k, v, a), b) == m(k, v, a++b).
type MergeOperator func(key, existing []byte, operands [][]byte) []byte

// Options configures a DB. The zero value plus an FS is usable.
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

	// logBytes overrides the checkpoint trigger's floor
	// (checkpointLogBytes) when positive. Only this package's tests set
	// it, to checkpoint a handful of keys or none at all.
	logBytes int64
}

// Stats exposes engine counters. Each uint64 field's metric tag is the
// name the hosting daemon exports it under (telemetry's field walker).
type Stats struct {
	// Puts, Gets, Deletes, Merges count user operations.
	Puts    uint64 `metric:"gkfs_kv_puts_total"`
	Gets    uint64 `metric:"gkfs_kv_gets_total"`
	Deletes uint64 `metric:"gkfs_kv_deletes_total"`
	Merges  uint64 `metric:"gkfs_kv_merges_total"`
	// Checkpoints counts frozen memtables folded into the checkpoint.
	Checkpoints uint64 `metric:"gkfs_kv_checkpoints_total"`
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
	opts     Options
	fs       vfs.FS
	logBytes int64 // the checkpoint trigger's floor

	mu       sync.Mutex
	cond     *sync.Cond // signals the background goroutine and the writers waiting on it
	mem      *memTable
	imm      *frozen // the memtable a checkpoint is folding; nil when none
	base     *base
	wal      *walWriter
	walNum   uint64
	closed   bool
	bgErr    error
	workDone chan struct{}
	stats    Stats

	keyLocks [64]sync.Mutex // striped locks backing PutIfAbsent
}

// Open creates or recovers a store in opts.FS.
func Open(opts Options) (*DB, error) {
	if opts.FS == nil {
		return nil, errors.New("kvstore: Options.FS is required")
	}
	db := &DB{
		opts:     opts,
		fs:       opts.FS,
		logBytes: checkpointLogBytes,
		workDone: make(chan struct{}),
	}
	if opts.logBytes > 0 {
		db.logBytes = opts.logBytes
	}
	db.cond = sync.NewCond(&db.mu)

	var err error
	if db.base, db.walNum, err = loadCheckpoint(db.fs); err != nil {
		return nil, err
	}
	db.mem = newMemTable(int64(db.walNum))
	if err := db.recoverWALs(); err != nil {
		return nil, err
	}
	if err := db.rotateWAL(); err != nil {
		return nil, err
	}

	go db.backgroundWork()
	return db, nil
}

// recoverWALs replays every intact batch of the logs the checkpoint does
// not cover into the fresh memtable and, if anything was recovered,
// checkpoints it at once. Recovery therefore leaves CHECKPOINT and no log
// behind: a log the checkpoint covers (a crash came between the rename
// and its removal) is skipped, never replayed twice.
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
	for _, num := range nums {
		if num <= db.walNum {
			continue
		}
		f, err := db.fs.Open(walName(num))
		if err != nil {
			return err
		}
		err = replayWAL(f, db.insertLocked)
		f.Close()
		if err != nil {
			return err
		}
		db.walNum = num
	}
	if db.mem.entries() > 0 {
		db.imm = &frozen{mt: db.mem, walNum: db.walNum}
		db.mem = newMemTable(int64(db.walNum))
		db.mu.Lock()
		err := db.runCheckpoint()
		db.mu.Unlock()
		if err != nil {
			return err
		}
	}
	for _, num := range nums {
		_ = db.fs.Remove(walName(num)) // the checkpoint's own may be gone already
	}
	if db.fs.Exists(checkpointTmp) {
		return db.fs.Remove(checkpointTmp)
	}
	return nil
}

func walName(num uint64) string { return fmt.Sprintf("wal-%06d.log", num) }

// rotateWAL opens the next log for the active memtable.
func (db *DB) rotateWAL() error {
	f, err := db.fs.Create(walName(db.walNum + 1))
	if err != nil {
		return err
	}
	db.walNum++
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

// Merge records a merge operand for key. The log keeps the operand; the
// memtable keeps the value Options.Merger folds it into (insertLocked), so
// a key merged into 10⁵ times is one entry, read as cheaply as any other.
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

// applyEntries logs and inserts the operations. owned declares that the
// entries' key/value buffers belong to the store already and need no
// defensive copy.
func (db *DB) applyEntries(ops []entry, owned bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.bgErr
	if db.closed {
		err = ErrClosed
	}
	// A full log freezes its memtable. At most one is frozen at a time,
	// so a writer that finds the log full while a checkpoint is in flight
	// waits for it first.
	for err == nil && db.wal.size >= max(db.logBytes, int64(len(db.base.buf))) {
		if db.imm != nil {
			err = db.waitFrozenLocked()
		} else {
			err = db.freezeLocked()
		}
	}
	if err != nil {
		return err
	}

	if err := db.wal.append(ops, db.opts.SyncWAL); err != nil {
		return err
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
	return nil
}

// freezeLocked hands the active memtable and its log to the background
// goroutine as the next checkpoint's input and starts a fresh pair.
// Caller holds db.mu and has waited out the previous checkpoint.
func (db *DB) freezeLocked() error {
	im, old := &frozen{mt: db.mem, walNum: db.walNum}, db.wal
	if err := db.rotateWAL(); err != nil {
		return err
	}
	db.imm, db.mem = im, newMemTable(int64(db.walNum))
	db.cond.Broadcast()
	return old.close()
}

// waitFrozenLocked waits until no frozen memtable is pending. Caller
// holds db.mu.
func (db *DB) waitFrozenLocked() error {
	for db.imm != nil && !db.closed && db.bgErr == nil {
		db.cond.Wait()
	}
	if db.closed {
		return ErrClosed
	}
	return db.bgErr
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
	// A memtable copies its entry out under its own lock and the base is
	// immutable: the lookup needs nothing but the pointers, since nothing
	// is closed under it.
	mem, imm, b := db.mem, db.imm, db.base
	db.mu.Unlock()

	val, live := lookup(key, mem, imm, b)
	if !live {
		return nil, ErrNotFound
	}
	return append([]byte(nil), val...), nil
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

// NewIterator returns an ordered cursor over the store's live keys; what
// it sees of concurrent writes is stated on Iterator. Callers must Close
// it.
func (db *DB) NewIterator() (*Iterator, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	srcs := []internalIterator{db.mem.iter()}
	if db.imm != nil {
		srcs = append(srcs, db.imm.mt.iter())
	}
	srcs = append(srcs, db.base.iter())
	return &Iterator{it: newMergeIter(srcs)}, nil
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := db.stats
	st.MemBytes = db.mem.sizeBytes()
	return st
}

// Close stops background work and closes the log. Whatever no checkpoint
// holds yet stays recoverable through the logs.
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
	db.wal.close()
	return db.bgErr
}
