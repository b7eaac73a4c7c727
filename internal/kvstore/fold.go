package kvstore

import (
	"bytes"
	"sort"
)

// mergeRunBound caps a key's run of merge operands in one memtable: the
// insert that would make the run this long stores the folded value as a
// put instead (RocksDB's max_successive_merges). With it the cost of
// resolving a key is a property of the store, not of how often the
// workload merged into it.
const mergeRunBound = 8

// chainFold resolves one key's version chain. Its sources — memtables,
// tables, a merged iterator — feed it the key's visible versions newest
// first; it holds merge operands by reference (memtable nodes and decoded
// blocks are never mutated) until a put or delete closes the chain, so a
// fold copies nothing but the value foldValue returns. It is the one
// chain resolver: point reads, the iterator, insert-time folding, flush,
// the recovery flush and compaction all go through it.
type chainFold struct {
	ops  []*entry // pending merge operands, newest first
	base *entry   // the put or delete that closed the chain; nil while open
	seen int      // versions fed, for the read-cost pin (DB.visited)
}

// add feeds the next-older version and reports whether it closed the
// chain.
func (f *chainFold) add(e *entry) (closed bool) {
	f.seen++
	if e.kind == kindMerge {
		f.ops = append(f.ops, e)
		return false
	}
	f.base = e
	return true
}

func (f *chainFold) reset() { *f = chainFold{ops: f.ops[:0]} }

// foldValue turns the chain fed to f — with newest, if non-nil, as one
// more operand on top — into the key's value; live is false for an absent
// or deleted key. The value is the caller's: it never aliases store
// memory.
func (db *DB) foldValue(key []byte, f *chainFold, newest *entry) (val []byte, live bool) {
	db.visited.Add(uint64(f.seen))
	var existing []byte
	if f.base != nil && f.base.kind == kindPut {
		existing, live = f.base.val, true
	}
	if len(f.ops) == 0 && newest == nil {
		if !live {
			return nil, false
		}
		return append([]byte(nil), existing...), true
	}
	operands := make([][]byte, 0, len(f.ops)+1) // oldest first
	for i := len(f.ops) - 1; i >= 0; i-- {
		operands = append(operands, f.ops[i].val)
	}
	if newest != nil {
		operands = append(operands, newest.val)
	}
	if db.opts.Merger == nil {
		// Without a merger the newest operand wins (last-write-wins).
		return append([]byte(nil), operands[len(operands)-1]...), true
	}
	return db.opts.Merger(key, existing, operands), true
}

// foldBelow continues a fold the active memtable left open: through the
// flush queue, newest first, then the tables of vers. open is db.reader,
// or db.readerLocked when the caller holds db.mu.
func (db *DB) foldBelow(key []byte, snap uint64, imm []immTable, vers *version, f *chainFold, open func(tableMeta) (*sstReader, error)) error {
	for i := len(imm) - 1; i >= 0; i-- {
		if imm[i].mt.fold(key, snap, f) {
			return nil
		}
	}
	for l := 0; l < numLevels; l++ {
		tables := vers.levels[l] // L0: every table, newest first
		if l > 0 {
			// Sorted and disjoint: at most one table can hold the key.
			i := sort.Search(len(tables), func(i int) bool { return bytes.Compare(tables[i].largest, key) >= 0 })
			if i >= len(tables) || bytes.Compare(tables[i].smallest, key) > 0 {
				continue
			}
			tables = tables[i : i+1]
		}
		for _, t := range tables {
			r, err := open(t)
			if err != nil {
				return err
			}
			if closed, err := r.fold(key, snap, f); err != nil || closed {
				return err
			}
		}
	}
	return nil
}

// insertLocked adds e to the active memtable and keeps the bounded-run
// invariant while doing so. A merge operand landing on a put or delete is
// stored as the folded put — O(1), the steady state of a hot key; one
// that would stretch a run of bare operands to mergeRunBound resolves the
// base once through the flush queue and the tables and is stored folded
// too. So within a memtable a key's operands sit beneath its first put or
// delete and number fewer than mergeRunBound. The folded put carries the
// operand's sequence number and is exactly what a reader at or above it
// would have computed; older snapshots still see the older entries. WAL
// replay inserts through here as well, which is why the log can keep the
// caller's operand and why Options.Merger must be pure. Caller holds
// db.mu (or is single-threaded during Open).
func (db *DB) insertLocked(e entry) {
	if e.kind == kindMerge {
		var f chainFold
		fold := db.mem.fold(e.key, e.seq, &f)
		if !fold && len(f.ops)+1 >= mergeRunBound {
			// A failed base look-up leaves the operand unfolded: the
			// value stays correct, reads report the table error, and the
			// next merge tries again.
			fold = db.foldBelow(e.key, e.seq, db.imm, db.vers, &f, db.readerLocked) == nil
			db.stats.MergeResolves++
		}
		if fold {
			e.val, _ = db.foldValue(e.key, &f, &e)
			e.kind = kindPut
			db.stats.MergeFolds++
		}
	}
	db.mem.add(e)
}
