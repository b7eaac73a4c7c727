package kvstore

import "bytes"

// internalIterator walks entries in internal order (key asc, seq desc).
// memIter and sstIter implement it; mergeIter combines them.
type internalIterator interface {
	seekFirst()
	seek(probe *entry)
	valid() bool
	next()
	cur() *entry
}

// mergeIter interleaves several internalIterators into one ordered stream.
// The source count is small (memtable + immutables + tables), so a linear
// minimum scan beats heap bookkeeping.
type mergeIter struct {
	srcs  []internalIterator
	min   int // index of current minimum, -1 when exhausted
	steps int // source steps and skipKey's seeks; tests pin iteration cost on it
}

func newMergeIter(srcs []internalIterator) *mergeIter {
	return &mergeIter{srcs: srcs, min: -1}
}

func (m *mergeIter) findMin() {
	m.min = -1
	for i, s := range m.srcs {
		if !s.valid() {
			continue
		}
		if m.min < 0 || compareEntries(s.cur(), m.srcs[m.min].cur()) < 0 {
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

func (m *mergeIter) seek(probe *entry) {
	for _, s := range m.srcs {
		s.seek(probe)
	}
	m.findMin()
}

func (m *mergeIter) valid() bool { return m.min >= 0 }

func (m *mergeIter) next() {
	m.srcs[m.min].next()
	m.steps++
	m.findMin()
}

// skipKey moves every source past key's versions: a source on key steps
// once, as a merged walk would, and only one still on it seeks past the
// oldest version key can have (sequence numbers start at 1, so {key, 0}
// sorts after them all). A hot size key folded into the memtable n times
// costs one seek, not n steps; a key with one version costs what it did.
func (m *mergeIter) skipKey(key []byte) {
	past := entry{key: key}
	for _, s := range m.srcs {
		if !s.valid() || !bytes.Equal(s.cur().key, key) {
			continue
		}
		s.next()
		m.steps++
		if s.valid() && bytes.Equal(s.cur().key, key) {
			s.seek(&past)
			m.steps++
		}
	}
	m.findMin()
}

func (m *mergeIter) cur() *entry { return m.srcs[m.min].cur() }

// Iterator is the user-facing ordered cursor over live keys. It resolves
// versions, tombstones and merge chains against a snapshot sequence taken
// at creation, so a scan observes a consistent point-in-time view even
// while writes continue — the property the daemons' readdir scans rely on
// locally (cross-daemon listings remain eventually consistent, paper
// §III-A).
type Iterator struct {
	db   *DB
	it   *mergeIter
	snap uint64

	key []byte
	val []byte
	ok  bool
	err error
}

// SeekFirst positions the iterator at the smallest live key.
func (i *Iterator) SeekFirst() {
	i.it.seekFirst()
	i.settle()
}

// Seek positions the iterator at the first live key >= target.
func (i *Iterator) Seek(target []byte) {
	probe := entry{key: target, seq: i.snap}
	i.it.seek(&probe)
	i.settle()
}

// Valid reports whether the iterator is positioned at a live key.
func (i *Iterator) Valid() bool { return i.ok }

// Err returns the first error the iterator encountered, if any.
func (i *Iterator) Err() error { return i.err }

// Key returns the current key. The slice is owned by the iterator and
// valid until the next positioning call.
func (i *Iterator) Key() []byte { return i.key }

// Value returns the current value under the same ownership rules as Key.
func (i *Iterator) Value() []byte { return i.val }

// Next advances to the next live key.
func (i *Iterator) Next() {
	if !i.ok {
		return
	}
	i.skipRestOfKey(i.key)
	i.settle()
}

// skipRestOfKey consumes all remaining versions of key.
func (i *Iterator) skipRestOfKey(key []byte) {
	if i.it.valid() && bytes.Equal(i.it.cur().key, key) {
		i.it.skipKey(key)
	}
}

// settle advances the underlying merged stream to the next key whose
// resolved state is a live value, loading Key/Value. It stops consuming a
// key's versions once its chain closes; Next skips the rest.
func (i *Iterator) settle() {
	i.ok = false
	var f chainFold
	for i.it.valid() {
		key := i.it.cur().key
		f.reset()
		for f.base == nil && i.it.valid() && bytes.Equal(i.it.cur().key, key) {
			// Versions newer than the snapshot are passed over.
			if c := i.it.cur(); c.seq <= i.snap {
				f.add(c)
			}
			i.it.next()
		}
		if val, live := i.db.foldValue(key, &f, nil); live {
			i.key, i.val, i.ok = append([]byte(nil), key...), val, true
			return
		}
		i.skipRestOfKey(key)
	}
}

// Close releases the iterator's references to the snapshot state.
func (i *Iterator) Close() {
	i.db.releaseIterRefs()
	i.it = nil
}
