package kvstore

// Iterator is the user-facing ordered cursor over live keys, used by the
// daemons' readdir scans. It walks the live table one record at a time
// under the read lock while writes continue, so it sees no single point
// in time: it remembers the last key it returned and the table's write
// count, and when that count has moved it re-seeks just past the key.
// What it promises, from creation to its last positioning call (the
// scan): every key live for the whole scan is returned exactly once, with
// a value the key held during the scan; no key absent for the whole scan
// is returned; and keys come in ascending order, each at most once.
// Listings are eventually consistent in the paper too (§III-A).
type Iterator struct {
	t      *table
	li, i  int    // the current record's leaf and index in it
	writes uint64 // t.writes when it was loaded

	key []byte
	val []byte
	ok  bool
}

// SeekFirst positions the iterator at the smallest live key.
func (it *Iterator) SeekFirst() { it.Seek(nil) }

// Seek positions the iterator at the first live key >= target.
func (it *Iterator) Seek(target []byte) {
	it.t.mu.RLock()
	defer it.t.mu.RUnlock()
	li, i, _ := it.t.search(target)
	it.load(it.t.settle(li, i))
}

// Valid reports whether the iterator is positioned at a live key.
func (it *Iterator) Valid() bool { return it.ok }

// Key returns the current key. The slice is owned by the iterator and
// valid until the next positioning call.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value under the same ownership rules as Key.
func (it *Iterator) Value() []byte { return it.val }

// Next advances to the next live key.
func (it *Iterator) Next() {
	if !it.ok {
		return
	}
	it.t.mu.RLock()
	defer it.t.mu.RUnlock()
	it.load(it.t.after(it.key, it.writes, it.li, it.i))
}

// load positions the iterator at record i of leaf li, a settled position,
// and copies the record out. Caller holds the read lock.
func (it *Iterator) load(li, i int) {
	it.li, it.i, it.writes = li, i, it.t.writes
	if it.ok = li < len(it.t.leaves); it.ok {
		k, v := it.t.leaves[li].record(i)
		it.key = append(it.key[:0], k...)
		it.val = append(it.val[:0], v...)
	}
}

// Close releases the iterator's reference to the store's table.
func (it *Iterator) Close() { it.t = nil }
