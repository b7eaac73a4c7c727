package kvstore

import (
	"math/rand"
	"sync"
)

const (
	skiplistMaxHeight = 12
	skiplistBranch    = 4 // promotion probability 1/4
)

// memTable is a skiplist-backed sorted buffer of entries. Writers insert;
// nothing is ever removed or rewritten (newer sequence numbers shadow
// older versions), which keeps iteration simple and lock scopes short and
// lets readers hold entries by reference.
type memTable struct {
	mu     sync.RWMutex
	head   *skipNode
	height int
	rnd    *rand.Rand
	bytes  int64
	count  int
}

// skipNode is an entry and its tower: next[lvl] is the successor at level
// lvl, and len(next) is the node's height.
type skipNode struct {
	ent  entry
	next []*skipNode
}

// newSkipNode allocates a node of height h and its tower as one object,
// the tower sized by height class: three in four nodes have height 1 and
// take 96 B with the entry, three in sixteen have height 2 and take 112 B,
// and only the rest carry all skiplistMaxHeight pointers (192 B).
func newSkipNode(e entry, h int) *skipNode {
	switch h {
	case 1:
		n := &struct {
			skipNode
			tower [1]*skipNode
		}{skipNode: skipNode{ent: e}}
		n.next = n.tower[:]
		return &n.skipNode
	case 2:
		n := &struct {
			skipNode
			tower [2]*skipNode
		}{skipNode: skipNode{ent: e}}
		n.next = n.tower[:]
		return &n.skipNode
	default:
		n := &struct {
			skipNode
			tower [skiplistMaxHeight]*skipNode
		}{skipNode: skipNode{ent: e}}
		n.next = n.tower[:h]
		return &n.skipNode
	}
}

func newMemTable(seed int64) *memTable {
	return &memTable{
		head:   newSkipNode(entry{}, skiplistMaxHeight),
		height: 1,
		rnd:    rand.New(rand.NewSource(seed)),
	}
}

// add inserts e. Entries with identical (key, seq) must not be inserted
// twice; the DB's monotonically increasing sequence numbers guarantee it.
func (m *memTable) add(e entry) {
	m.mu.Lock()
	defer m.mu.Unlock()

	var prev [skiplistMaxHeight]*skipNode
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && compareEntries(&x.next[lvl].ent, &e) < 0 {
			x = x.next[lvl]
		}
		prev[lvl] = x
	}

	h := 1
	for h < skiplistMaxHeight && m.rnd.Intn(skiplistBranch) == 0 {
		h++
	}
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			prev[lvl] = m.head
		}
		m.height = h
	}

	n := newSkipNode(e, h)
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = n
	}
	m.bytes += entrySize(&e)
	m.count++
}

// seekGE returns the first node whose entry is >= probe in entry order.
func (m *memTable) seekGE(probe *entry) *skipNode {
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && compareEntries(&x.next[lvl].ent, probe) < 0 {
			x = x.next[lvl]
		}
	}
	return x.next[0]
}

// fold feeds f the versions of key at or below maxSeq, newest first,
// until one closes the chain, and reports whether one did. The walk under
// the read lock is short by construction: DB.insertLocked keeps a key's
// merge operands fewer than mergeRunBound and beneath its first put or
// delete.
func (m *memTable) fold(key []byte, maxSeq uint64, f *chainFold) (closed bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	probe := entry{key: key, seq: maxSeq}
	for n := m.seekGE(&probe); n != nil && string(n.ent.key) == string(key); n = n.next[0] {
		if f.add(&n.ent) {
			return true
		}
	}
	return false
}

// sizeBytes returns the approximate memory footprint.
func (m *memTable) sizeBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// entries returns the number of entries.
func (m *memTable) entries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// iter returns an iterator positioned before the first entry. The iterator
// takes the read lock per step, so concurrent inserts are safe; entries
// inserted during iteration may or may not be observed (the DB filters by
// snapshot sequence anyway).
func (m *memTable) iter() *memIter { return &memIter{m: m} }

// memIter walks a memtable in entry order. It satisfies internalIterator.
type memIter struct {
	m *memTable
	n *skipNode
}

func (it *memIter) seekFirst() {
	it.m.mu.RLock()
	it.n = it.m.head.next[0]
	it.m.mu.RUnlock()
}

func (it *memIter) seek(probe *entry) {
	it.m.mu.RLock()
	it.n = it.m.seekGE(probe)
	it.m.mu.RUnlock()
}

func (it *memIter) valid() bool { return it.n != nil }

func (it *memIter) next() {
	it.m.mu.RLock()
	it.n = it.n.next[0]
	it.m.mu.RUnlock()
}

func (it *memIter) cur() *entry { return &it.n.ent }
