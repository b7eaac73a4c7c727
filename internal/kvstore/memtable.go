package kvstore

import (
	"bytes"
	"math/rand"
	"sync"
)

const (
	skiplistMaxHeight = 12
	skiplistBranch    = 4 // promotion probability 1/4
)

// memTable is a skiplist-backed sorted buffer holding one entry per key:
// its live value or a tombstone. An insert on a present key replaces the
// entry in its node, and nodes are never removed, so a cursor stays valid
// across inserts; readers copy an entry under the read lock.
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
// the tower sized by height class: fifteen in sixteen nodes have height 1
// or 2 and take 96 B with the entry, and only the rest carry all
// skiplistMaxHeight pointers (176 B).
func newSkipNode(e entry, h int) *skipNode {
	if h <= 2 {
		n := &struct {
			skipNode
			tower [2]*skipNode
		}{skipNode: skipNode{ent: e}}
		n.next = n.tower[:h]
		return &n.skipNode
	}
	n := &struct {
		skipNode
		tower [skiplistMaxHeight]*skipNode
	}{skipNode: skipNode{ent: e}}
	n.next = n.tower[:h]
	return &n.skipNode
}

func newMemTable(seed int64) *memTable {
	return &memTable{
		head:   newSkipNode(entry{}, skiplistMaxHeight),
		height: 1,
		rnd:    rand.New(rand.NewSource(seed)),
	}
}

// add stores e as its key's entry: a new node for a new key, the
// replacement of the node's entry for a present one.
func (m *memTable) add(e entry) {
	m.mu.Lock()
	defer m.mu.Unlock()

	var prev [skiplistMaxHeight]*skipNode
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && bytes.Compare(x.next[lvl].ent.key, e.key) < 0 {
			x = x.next[lvl]
		}
		prev[lvl] = x
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.ent.key, e.key) {
		m.bytes += entrySize(&e) - entrySize(&n.ent)
		n.ent = e
		return
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

// seekGE returns the first node whose key is >= key. Caller holds m.mu.
func (m *memTable) seekGE(key []byte) *skipNode {
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && bytes.Compare(x.next[lvl].ent.key, key) < 0 {
			x = x.next[lvl]
		}
	}
	return x.next[0]
}

// get returns key's entry, if the memtable holds one.
func (m *memTable) get(key []byte) (entry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if n := m.seekGE(key); n != nil && bytes.Equal(n.ent.key, key) {
		return n.ent, true
	}
	return entry{}, false
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
// takes the read lock per step, so concurrent inserts are safe: a key
// inserted behind the cursor is not seen, one ahead of it is.
func (m *memTable) iter() *memIter { return &memIter{m: m} }

// memIter walks a memtable in key order. It satisfies internalIterator.
type memIter struct {
	m *memTable
	n *skipNode
	e entry // n's entry, copied under the read lock
}

func (it *memIter) seekFirst() {
	it.m.mu.RLock()
	it.set(it.m.head.next[0])
	it.m.mu.RUnlock()
}

func (it *memIter) seek(key []byte) {
	it.m.mu.RLock()
	it.set(it.m.seekGE(key))
	it.m.mu.RUnlock()
}

func (it *memIter) valid() bool { return it.n != nil }

func (it *memIter) next() {
	it.m.mu.RLock()
	it.set(it.n.next[0])
	it.m.mu.RUnlock()
}

func (it *memIter) cur() *entry { return &it.e }

// set moves the cursor to n. Caller holds the read lock.
func (it *memIter) set(n *skipNode) {
	if it.n = n; n != nil {
		it.e = n.ent
	}
}
