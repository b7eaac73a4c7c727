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
// operands, oldest first, producing the new value: the released system's
// RocksDB merge operands, which its daemons use for lock-free file-size
// updates (this daemon grows a size under the key lock instead). Apply
// runs it once per merge op, under the store's lock and before the batch
// is logged, and the log keeps the value it returns: recovery never runs
// it. It must not modify existing and must return a fresh buffer.
type MergeOperator func(key, existing []byte, operands [][]byte) []byte

// Options configures a DB. The zero value plus an FS is usable. No
// option syncs a batch before Apply returns; the log's header (wal.go)
// says what a crash keeps.
type Options struct {
	// FS is the backing file system; required. Use vfs.NewMem() for a
	// purely in-memory store.
	FS vfs.FS
	// Merger folds merge operands; Apply refuses a batch holding a merge
	// without one.
	Merger MergeOperator

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
	// Checkpoints counts checkpoints written.
	Checkpoints uint64 `metric:"gkfs_kv_checkpoints_total"`
}

// Common errors.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("kvstore: store is closed")
	// ErrFormat fails Open on a log that lacks this build's magic.
	ErrFormat = errors.New("kvstore: log format not recognised")
	// ErrLogDamaged fails Open on a checksummed batch that does not decode.
	ErrLogDamaged = errors.New("kvstore: log damaged")
	// ErrNoMerger reports a merge applied without Options.Merger.
	ErrNoMerger = errors.New("kvstore: no merge operator configured")
)

// DB is the store. It is safe for concurrent use.
type DB struct {
	opts     Options
	fs       vfs.FS
	logBytes int64 // the checkpoint trigger's floor

	t table

	mu        sync.Mutex
	cond      *sync.Cond // signals the background goroutine and the writers waiting on it
	wal       *walWriter
	walNum    uint64     // the active log's number
	covered   *walWriter // the log the checkpoint in flight covers; nil when none
	ckptBytes int64      // the last checkpoint's size: the trigger's other term
	closed    bool
	bgErr     error
	workDone  chan struct{}
	stats     Stats

	afterLeaf func() // when set, runs between the leaves of a checkpoint's scan; tests set it

	keyLocks [64]sync.Mutex // striped locks backing LockKeys
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

	if err := db.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := db.recoverWALs(); err != nil {
		return nil, err
	}
	if err := db.rotateLocked(); err != nil {
		return nil, err
	}

	go db.backgroundWork()
	return db, nil
}

// recoverWALs replays the logs the checkpoint does not cover into the
// table and, if anything was recovered, checkpoints it at once.
// Recovery therefore leaves CHECKPOINT and no log behind: a log the
// checkpoint covers (a crash came between the rename and its removal) is
// skipped, never replayed twice. A log that fails replay (ErrFormat,
// ErrLogDamaged) fails Open, and every log stays where it is.
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
	for i, num := range nums {
		if num <= db.walNum {
			continue
		}
		f, err := db.fs.Open(walName(num))
		if err != nil {
			return err
		}
		err = replayWAL(f, walName(num), i == len(nums)-1, func(e entry) { db.t.set(&e) })
		f.Close()
		if err != nil {
			return err
		}
		db.walNum = num
	}
	if db.t.writes > 0 {
		buf := db.t.encode(db.walNum, nil)
		if err := writeCheckpoint(db.fs, buf); err != nil {
			return err
		}
		db.ckptBytes = int64(len(buf))
		db.stats.Checkpoints++
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

// Batch is a set of operations Apply commits atomically with respect to
// recovery: either the whole batch replays from the WAL or none of it. It
// takes ownership of every buffer queued into it, which the caller must
// not touch afterwards.
type Batch struct {
	ops []entry
}

// PutOwned adds a put.
func (b *Batch) PutOwned(key, value []byte) {
	b.ops = append(b.ops, entry{key: key, val: value, kind: kindPut})
}

// DeleteOwned adds a delete; deleting an absent key succeeds.
func (b *Batch) DeleteOwned(key []byte) {
	b.ops = append(b.ops, entry{key: key, kind: kindDelete})
}

// MergeOwned adds a merge operand, which Apply folds into the key's value
// through Options.Merger.
func (b *Batch) MergeOwned(key, operand []byte) {
	b.ops = append(b.ops, entry{key: key, val: operand, kind: kindMerge})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Apply commits the batch and consumes it: a second Apply of it is a
// no-op. Under db.mu it folds the batch's merges into puts (foldLocked),
// logs the batch and sets each op in the table; a failed append leaves
// the table untouched. A batch holding a merge is refused with
// ErrNoMerger, before anything is logged, when Options.Merger is nil.
func (db *DB) Apply(b *Batch) error {
	ops := b.ops
	b.ops = nil
	if len(ops) == 0 {
		return nil
	}
	var n [kindMerge + 1]uint64 // ops per kind
	for i := range ops {
		n[ops[i].kind]++
	}
	if n[kindMerge] > 0 && db.opts.Merger == nil {
		return ErrNoMerger
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.bgErr
	if db.closed {
		err = ErrClosed
	}
	// A full log starts a checkpoint. One runs at a time, so a writer
	// that finds the log full while one is in flight waits for it first:
	// the bound on the logs, and on the work the next checkpoint finds.
	for err == nil && db.wal.size >= max(db.logBytes, db.ckptBytes) {
		if db.covered != nil {
			err = db.waitCheckpointLocked()
		} else {
			err = db.rotateLocked()
		}
	}
	if err != nil {
		return err
	}

	if n[kindMerge] > 0 {
		db.foldLocked(ops)
	}
	if err := db.wal.append(ops); err != nil {
		return err
	}
	db.t.mu.Lock()
	for i := range ops {
		db.t.set(&ops[i])
	}
	db.t.mu.Unlock()
	db.stats.Puts += n[kindPut]
	db.stats.Deletes += n[kindDelete]
	db.stats.Merges += n[kindMerge]
	return nil
}

// rotateLocked starts the next log and hands the full one, if there is
// one, to the background goroutine, whose next checkpoint covers it.
// Caller holds db.mu and has waited out the previous checkpoint, or is
// Open.
func (db *DB) rotateLocked() error {
	f, err := db.fs.Create(walName(db.walNum + 1))
	if err != nil {
		return err
	}
	w, err := newWALWriter(f, db.walNum+1)
	if err != nil {
		f.Close()
		return err
	}
	db.walNum++
	db.wal, db.covered = w, db.wal
	db.cond.Broadcast()
	return nil
}

// waitCheckpointLocked waits until no checkpoint is in flight. Caller
// holds db.mu.
func (db *DB) waitCheckpointLocked() error {
	for db.covered != nil && !db.closed && db.bgErr == nil {
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
	db.mu.Unlock()

	db.t.mu.RLock()
	defer db.t.mu.RUnlock()
	val, live := db.t.get(key)
	if !live {
		return nil, ErrNotFound
	}
	return append([]byte(nil), val...), nil
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
// for the caller to Unlock. Until then the caller reads and mutates the
// covered keys atomically with respect to every other holder — the
// foundation for applying a read-validate-write batch (e.g. a vector of
// create-exclusive inserts) as one Apply. The holder must not call
// PutIfAbsent or LockKeys.
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
	return &Iterator{t: &db.t}, nil
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
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
	if db.covered != nil { // rotated out, not yet checkpointed
		db.covered.close()
	}
	db.wal.close()
	return db.bgErr
}
