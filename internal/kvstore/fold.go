package kvstore

// lookup returns key's value as the newest source holding the key has it:
// the active memtable, then the frozen one, then the base. live is false
// for an absent or deleted key. The value aliases store memory, which is
// never written once stored.
func lookup(key []byte, mem *memTable, imm *frozen, b *base) (val []byte, live bool) {
	e, ok := mem.get(key)
	if !ok && imm != nil {
		e, ok = imm.mt.get(key)
	}
	if !ok {
		return b.get(key)
	}
	return e.val, e.kind == kindPut
}

// insertLocked adds e to the active memtable. A merge operand is folded
// here, once: Options.Merger combines it with the key's current value
// (lookup) and the result is stored as a put, so no memtable holds an
// operand and a read never folds. Without a merger the operand itself is
// the new value. WAL replay inserts through here as well, which is why
// the log can keep the caller's operand and why Options.Merger must be
// pure. Caller holds db.mu (or is single-threaded during Open).
func (db *DB) insertLocked(e entry) {
	if e.kind == kindMerge {
		if db.opts.Merger != nil {
			existing, _ := lookup(e.key, db.mem, db.imm, db.base)
			e.val = db.opts.Merger(e.key, existing, [][]byte{e.val})
		}
		e.kind = kindPut
	}
	db.mem.add(e)
}
