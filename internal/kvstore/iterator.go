package kvstore

import "bytes"

// internalIterator walks one source's entries in key order. memIter and
// baseIter implement it; mergeIter combines them.
type internalIterator interface {
	seekFirst()
	seek(key []byte)
	valid() bool
	next()
	cur() *entry
}

// mergeIter interleaves its sources, newest first (the active memtable,
// the frozen one, the base), into one ordered stream with one entry per
// key: where several sources hold a key, the newest one's entry wins. The
// source count is small, so a linear minimum scan beats heap bookkeeping.
type mergeIter struct {
	srcs []internalIterator
	min  int // index of the current entry's source, -1 when exhausted
}

func newMergeIter(srcs []internalIterator) *mergeIter {
	return &mergeIter{srcs: srcs, min: -1}
}

// findMin picks the source with the smallest key, the newest on a tie.
func (m *mergeIter) findMin() {
	m.min = -1
	for i, s := range m.srcs {
		if s.valid() && (m.min < 0 || bytes.Compare(s.cur().key, m.srcs[m.min].cur().key) < 0) {
			m.min = i
		}
	}
}

func (m *mergeIter) seekFirst() {
	for _, s := range m.srcs {
		s.seekFirst()
	}
	m.findMin()
}

func (m *mergeIter) seek(key []byte) {
	for _, s := range m.srcs {
		s.seek(key)
	}
	m.findMin()
}

func (m *mergeIter) valid() bool { return m.min >= 0 }

// next moves every source on the current key past it.
func (m *mergeIter) next() {
	key := m.cur().key
	for _, s := range m.srcs {
		if s.valid() && bytes.Equal(s.cur().key, key) {
			s.next()
		}
	}
	m.findMin()
}

func (m *mergeIter) cur() *entry { return m.srcs[m.min].cur() }

// Iterator is the user-facing ordered cursor over live keys, used by the
// daemons' readdir scans. It reads the memtables and base that were
// current when it was created, stepping through the active memtable while
// writes continue, so it sees no single point in time. What it promises,
// from creation to its last positioning call (the scan): every key live
// for the whole scan is returned exactly once, with a value the key held
// during the scan; no key absent for the whole scan is returned; and keys
// come in ascending order, each at most once. Listings are eventually
// consistent in the paper too (§III-A).
type Iterator struct {
	it *mergeIter

	key []byte
	val []byte
	ok  bool
}

// SeekFirst positions the iterator at the smallest live key.
func (i *Iterator) SeekFirst() {
	i.it.seekFirst()
	i.settle()
}

// Seek positions the iterator at the first live key >= target.
func (i *Iterator) Seek(target []byte) {
	i.it.seek(target)
	i.settle()
}

// Valid reports whether the iterator is positioned at a live key.
func (i *Iterator) Valid() bool { return i.ok }

// Key returns the current key. The slice is owned by the iterator and
// valid until the next positioning call.
func (i *Iterator) Key() []byte { return i.key }

// Value returns the current value under the same ownership rules as Key.
func (i *Iterator) Value() []byte { return i.val }

// Next advances to the next live key.
func (i *Iterator) Next() {
	if i.ok {
		i.it.next()
		i.settle()
	}
}

// settle advances the merged stream past tombstones to the next live
// key, loading Key/Value.
func (i *Iterator) settle() {
	for i.ok = false; i.it.valid(); i.it.next() {
		if e := i.it.cur(); e.kind == kindPut {
			i.key = append(i.key[:0], e.key...)
			i.val = append(i.val[:0], e.val...)
			i.ok = true
			return
		}
	}
}

// Close releases the iterator's references to the store's tables.
func (i *Iterator) Close() { i.it = nil }
