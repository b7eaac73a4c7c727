package kvstore

// mergeRunBound caps a key's run of merge operands in one memtable: the
// insert that would make the run this long stores the folded value as a
// put instead (RocksDB's max_successive_merges). With it the cost of
// resolving a key is a property of the store, not of how often the
// workload merged into it.
const mergeRunBound = 8

// chainFold resolves one key's version chain. Its sources — memtables,
// the base, a merged iterator — feed it the key's visible versions newest
// first; it holds merge operands by reference (only memtables hold
// operands, and their nodes are never mutated) until a put or delete
// closes the chain, so a fold copies nothing but the value foldValue
// returns. It is the one chain resolver: point reads, the iterator,
// insert-time folding and the checkpoint all go through it.
type chainFold struct {
	ops    []*entry // pending merge operands, newest first
	base   entry    // the put or delete that closed the chain
	closed bool
	seen   int // versions fed, for the read-cost pin (DB.visited)
}

// add feeds the next-older version and reports whether it closed the
// chain.
func (f *chainFold) add(e *entry) (closed bool) {
	f.seen++
	if e.kind == kindMerge {
		f.ops = append(f.ops, e)
		return false
	}
	f.base, f.closed = *e, true
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
	if f.closed && f.base.kind == kindPut {
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
// frozen memtable, if any, then the base, where every chain ends.
func foldBelow(key []byte, snap uint64, imm *frozen, b *base, f *chainFold) {
	if imm != nil && imm.mt.fold(key, snap, f) {
		return
	}
	b.fold(key, f)
}

// insertLocked adds e to the active memtable and keeps the bounded-run
// invariant while doing so. A merge operand landing on a put or delete is
// stored as the folded put — O(1), the steady state of a hot key; one
// that would stretch a run of bare operands to mergeRunBound resolves the
// base once through the frozen memtable and the base and is stored folded
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
			foldBelow(e.key, e.seq, db.imm, db.base, &f)
			fold = true
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
