package kvstore

// foldLocked turns each merge op into a put of the value Options.Merger
// makes of the operand and the key's current value: as the batch's
// earlier ops left it, else as the table holds it. Neither the table nor
// the log holds an operand, so neither a read nor recovery folds. Caller
// holds db.mu, under which the table does not change.
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
			} else if v, live := db.t.get(e.key); live {
				existing = v
			}
			e.val, e.kind = db.opts.Merger(e.key, existing, [][]byte{e.val}), kindPut
		}
		if last != nil {
			last[string(e.key)] = i
		}
	}
}
