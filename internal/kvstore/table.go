package kvstore

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// leafBytes bounds a leaf's records: an insert that takes a leaf of two or
// more records past it splits the leaf in two.
const leafBytes = 4 << 10

// table is the store's one ordered table: a sorted slice of leaves, each a
// run of records in CHECKPOINT's layout, [klen uvarint][key][vlen uvarint]
// [val], ascending by key. It holds one record per live key and no
// tombstones. A write changes a leaf in place under mu, and every reader
// copies what it keeps under the read lock. Writes come only from Apply,
// under db.mu, and from recovery, before Open returns, so a holder of
// db.mu reads the table without mu.
type table struct {
	mu     sync.RWMutex
	leaves []*leaf
	count  int    // records
	bytes  int64  // record bytes: sizes the checkpoint's buffer
	writes uint64 // sets so far: a walk that sees it move re-seeks
}

// leaf is a run of records and their offsets into buf, in key order. A
// leaf loaded from CHECKPOINT aliases the file's bytes, its capacity
// clipped so a write that grows it moves it out instead of reaching the
// next leaf.
type leaf struct {
	buf  []byte
	offs []uint32
}

// record decodes record i; the slices alias the leaf.
func (l *leaf) record(i int) (key, val []byte) {
	p := l.buf[l.offs[i]:]
	kl, n := binary.Uvarint(p)
	key, p = p[n:n+int(kl)], p[n+int(kl):]
	vl, n := binary.Uvarint(p)
	return key, p[n : n+int(vl)]
}

func (l *leaf) key(i int) []byte {
	p := l.buf[l.offs[i]:]
	kl, n := binary.Uvarint(p)
	return p[n : n+int(kl)]
}

// end returns the offset just past record i.
func (l *leaf) end(i int) int {
	if i+1 < len(l.offs) {
		return int(l.offs[i+1])
	}
	return len(l.buf)
}

// resize makes the old bytes at buf[at:] n bytes long, moving the bytes
// behind them and the offsets of records from on.
func (l *leaf) resize(at, old, n, from int) {
	d := n - old
	if d > 0 {
		l.buf = append(l.buf, make([]byte, d)...)
		copy(l.buf[at+n:], l.buf[at+old:len(l.buf)-d])
	} else {
		copy(l.buf[at+n:], l.buf[at+old:])
		l.buf = l.buf[:len(l.buf)+d]
	}
	for j := from; j < len(l.offs); j++ {
		l.offs[j] += uint32(d)
	}
}

// search returns the leaf that would hold key — the last whose first key
// is <= key, else the first — the index in it of the first record whose
// key is >= key, which may be the leaf's length, and whether that record
// is key's. Caller holds a lock.
func (t *table) search(key []byte) (li, i int, found bool) {
	li = sort.Search(len(t.leaves), func(m int) bool { return bytes.Compare(t.leaves[m].key(0), key) > 0 })
	if li = max(li-1, 0); li == len(t.leaves) {
		return li, 0, false
	}
	l := t.leaves[li]
	for hi := len(l.offs); i < hi; {
		m := int(uint(i+hi) >> 1)
		if c := bytes.Compare(l.key(m), key); c < 0 {
			i = m + 1
		} else {
			hi, found = m, c == 0 // i ends at the last such m
		}
	}
	return li, i, found
}

// settle moves a position at a leaf's end onto the next leaf's first
// record; li == len(t.leaves) is past the last record. Caller holds a
// lock.
func (t *table) settle(li, i int) (int, int) {
	for li < len(t.leaves) && i >= len(t.leaves[li].offs) {
		li, i = li+1, 0
	}
	return li, i
}

// after returns the position just past key, which a walk read as record
// i of leaf li when the table's write count was writes: the next record,
// or, where writes have moved the table since, the first record above
// key. Caller holds a lock.
func (t *table) after(key []byte, writes uint64, li, i int) (int, int) {
	if writes != t.writes {
		var found bool
		if li, i, found = t.search(key); !found {
			return t.settle(li, i)
		}
	}
	return t.settle(li, i+1)
}

// get returns key's value, aliasing the table. Caller holds a lock and
// copies the value before releasing it.
func (t *table) get(key []byte) ([]byte, bool) {
	li, i, found := t.search(key)
	if !found {
		return nil, false
	}
	_, v := t.leaves[li].record(i)
	return v, true
}

// set applies a put or a delete. Caller holds db.mu and t.mu, or is Open.
func (t *table) set(e *entry) {
	t.writes++
	li, i, found := t.search(e.key)
	if e.kind == kindDelete {
		if found {
			t.remove(li, i)
		}
		return
	}
	n := uvarintLen(len(e.key)) + len(e.key) + uvarintLen(len(e.val)) + len(e.val)
	if len(t.leaves) == 0 {
		t.leaves = []*leaf{{}}
	}
	l := t.leaves[li]
	at, old := len(l.buf), 0
	if i < len(l.offs) {
		at = int(l.offs[i])
	}
	if found {
		old = l.end(i) - at
	} else {
		l.offs = slices.Insert(l.offs, i, uint32(at))
		t.count++
	}
	l.resize(at, old, n, i+1)
	t.bytes += int64(n - old)
	p := binary.AppendUvarint(l.buf[at:at], uint64(len(e.key)))
	p = append(p, e.key...)
	p = binary.AppendUvarint(p, uint64(len(e.val)))
	_ = append(p, e.val...) // fills l.buf[at:at+n] in place
	if len(l.buf) > leafBytes && len(l.offs) > 1 {
		t.split(li, i)
	}
}

// split cuts leaf li, which just took a record at index i, in two: at the
// middle byte, or before i when i is the leaf's last record, so that keys
// arriving in ascending order leave full leaves behind them. Both halves
// are copied out, so neither keeps the other's spare capacity.
func (t *table) split(li, i int) {
	l := t.leaves[li]
	s := i
	if s != len(l.offs)-1 {
		s, _ = slices.BinarySearch(l.offs, uint32(len(l.buf)/2))
		s = min(max(s, 1), len(l.offs)-1)
	}
	cut := l.offs[s]
	r := &leaf{buf: slices.Clone(l.buf[cut:]), offs: slices.Clone(l.offs[s:])}
	for j := range r.offs {
		r.offs[j] -= cut
	}
	l.buf, l.offs = slices.Clone(l.buf[:cut]), slices.Clone(l.offs[:s])
	t.leaves = slices.Insert(t.leaves, li+1, r)
}

// remove deletes record i of leaf li, and the leaf once it is empty.
func (t *table) remove(li, i int) {
	l := t.leaves[li]
	at := int(l.offs[i])
	n := l.end(i) - at
	l.resize(at, n, 0, i+1)
	l.offs = slices.Delete(l.offs, i, i+1)
	if len(l.offs) == 0 {
		t.leaves = slices.Delete(t.leaves, li, li+1)
	}
	t.count--
	t.bytes -= int64(n)
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }
