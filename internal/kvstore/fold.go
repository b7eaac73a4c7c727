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

// foldLocked turns each merge op into a put of the value Options.Merger
// makes of the operand and the key's current value: as the batch's
// earlier ops left it, else as the store holds it (lookup). No memtable
// or log holds an operand, so neither a read nor recovery folds. Caller
// holds db.mu.
func (db *DB) foldLocked(ops []entry) {
	var last map[string]int // key → its latest op so far; a batch of one has no earlier op
	if len(ops) > 1 {
		last = make(map[string]int, len(ops))
	}
	for i := range ops {
		e := &ops[i]
		if e.kind == kindMerge {
			var existing []byte
			if j, ok := last[string(e.key)]; ok {
				if ops[j].kind == kindPut {
					existing = ops[j].val
				}
			} else if v, live := lookup(e.key, db.mem, db.imm, db.base); live {
				existing = v
			}
			e.val, e.kind = db.opts.Merger(e.key, existing, [][]byte{e.val}), kindPut
		}
		if last != nil {
			last[string(e.key)] = i
		}
	}
}
