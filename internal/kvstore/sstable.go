package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/vfs"
)

// SSTable layout (single immutable file):
//
//	[data block]* [filter block] [index block] [footer]
//
// Data blocks hold entries in internal order, each encoded as
// [kind u8][seq uvarint][klen uvarint][key][vlen uvarint][val]; a block
// closes once it exceeds Options.BlockBytes. The index holds, per block,
// the last internal key plus the block's offset and length; the filter
// block is a Bloom filter over user keys. The fixed footer points at both.
const sstMagic = 0x67656b6b6f667331 // "gekkofs1"

const footerSize = 40

// tableMeta describes one SSTable in a version.
type tableMeta struct {
	num      uint64 // file number; file name is sst-<num>.sst
	size     int64
	entries  int
	smallest []byte // user key bounds (inclusive)
	largest  []byte
}

func sstName(num uint64) string { return fmt.Sprintf("sst-%06d.sst", num) }

// sstWriter streams sorted entries into a table file.
type sstWriter struct {
	f       vfs.File
	block   []byte
	offset  int64
	index   []indexEntry
	keys    [][]byte // user keys for the bloom filter
	meta    tableMeta
	lastKey []byte
	lastSeq uint64
	started bool
}

type indexEntry struct {
	lastKey []byte // internal: user key of last entry in block
	lastSeq uint64
	off     int64
	size    int64
}

func newSSTWriter(f vfs.File, num uint64) *sstWriter {
	return &sstWriter{f: f, meta: tableMeta{num: num}}
}

// add appends e; entries must arrive in strictly increasing internal order.
func (w *sstWriter) add(e *entry, blockBytes int) error {
	if w.started {
		probe := entry{key: w.lastKey, seq: w.lastSeq}
		if compareEntries(&probe, e) >= 0 {
			return fmt.Errorf("kvstore: sstable entries out of order: %q/%d after %q/%d",
				e.key, e.seq, w.lastKey, w.lastSeq)
		}
	} else {
		w.meta.smallest = append([]byte(nil), e.key...)
		w.started = true
	}
	var tmp [binary.MaxVarintLen64]byte
	w.block = append(w.block, byte(e.kind))
	w.block = append(w.block, tmp[:binary.PutUvarint(tmp[:], e.seq)]...)
	w.block = append(w.block, tmp[:binary.PutUvarint(tmp[:], uint64(len(e.key)))]...)
	w.block = append(w.block, e.key...)
	w.block = append(w.block, tmp[:binary.PutUvarint(tmp[:], uint64(len(e.val)))]...)
	w.block = append(w.block, e.val...)

	w.lastKey = append(w.lastKey[:0], e.key...)
	w.lastSeq = e.seq
	w.meta.largest = append(w.meta.largest[:0], e.key...)
	w.meta.entries++
	w.keys = append(w.keys, append([]byte(nil), e.key...))

	if len(w.block) >= blockBytes {
		return w.flushBlock()
	}
	return nil
}

func (w *sstWriter) flushBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	// Trailing CRC32-C guards every data block against bit rot and torn
	// writes on the node-local device.
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(w.block, castagnoli))
	w.block = append(w.block, crc[:]...)
	off, err := w.f.Append(w.block)
	if err != nil {
		return err
	}
	w.index = append(w.index, indexEntry{
		lastKey: append([]byte(nil), w.lastKey...),
		lastSeq: w.lastSeq,
		off:     off,
		size:    int64(len(w.block)),
	})
	w.offset = off + int64(len(w.block))
	w.block = w.block[:0]
	return nil
}

// finish writes filter, index and footer and syncs the file. It returns
// the completed table metadata.
func (w *sstWriter) finish(bloomBitsPerKey int) (tableMeta, error) {
	if err := w.flushBlock(); err != nil {
		return tableMeta{}, err
	}
	filter := buildBloom(w.keys, bloomBitsPerKey)
	filterBytes := filter.encode()
	filterOff, err := w.f.Append(filterBytes)
	if err != nil {
		return tableMeta{}, err
	}

	var idx []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, ie := range w.index {
		idx = append(idx, tmp[:binary.PutUvarint(tmp[:], uint64(len(ie.lastKey)))]...)
		idx = append(idx, ie.lastKey...)
		idx = append(idx, tmp[:binary.PutUvarint(tmp[:], ie.lastSeq)]...)
		idx = append(idx, tmp[:binary.PutUvarint(tmp[:], uint64(ie.off))]...)
		idx = append(idx, tmp[:binary.PutUvarint(tmp[:], uint64(ie.size))]...)
	}
	indexOff, err := w.f.Append(idx)
	if err != nil {
		return tableMeta{}, err
	}

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(idx)))
	binary.LittleEndian.PutUint64(footer[16:], uint64(filterOff))
	binary.LittleEndian.PutUint64(footer[24:], uint64(len(filterBytes)))
	binary.LittleEndian.PutUint64(footer[32:], sstMagic)
	if _, err := w.f.Append(footer[:]); err != nil {
		return tableMeta{}, err
	}
	if err := w.f.Sync(); err != nil {
		return tableMeta{}, err
	}
	sz, err := w.f.Size()
	if err != nil {
		return tableMeta{}, err
	}
	w.meta.size = sz
	return w.meta, nil
}

// sstReader serves point lookups and scans from one table file. The index
// and filter stay resident; data blocks are read on demand.
type sstReader struct {
	f      vfs.File
	meta   tableMeta
	index  []indexEntry
	filter bloomFilter
}

func openSSTReader(f vfs.File, meta tableMeta) (*sstReader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerSize {
		return nil, fmt.Errorf("kvstore: sstable %d too small", meta.num)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[32:]) != sstMagic {
		return nil, fmt.Errorf("kvstore: sstable %d bad magic", meta.num)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	filterOff := int64(binary.LittleEndian.Uint64(footer[16:]))
	filterLen := int64(binary.LittleEndian.Uint64(footer[24:]))

	idx := make([]byte, indexLen)
	if _, err := f.ReadAt(idx, indexOff); err != nil {
		return nil, err
	}
	fb := make([]byte, filterLen)
	if _, err := f.ReadAt(fb, filterOff); err != nil {
		return nil, err
	}
	r := &sstReader{f: f, meta: meta, filter: decodeBloom(fb)}
	for len(idx) > 0 {
		key, rest, err := readLenPrefixed(idx)
		if err != nil {
			return nil, err
		}
		seq, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("kvstore: sstable %d bad index", meta.num)
		}
		rest = rest[n:]
		off, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("kvstore: sstable %d bad index", meta.num)
		}
		rest = rest[n:]
		sz, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("kvstore: sstable %d bad index", meta.num)
		}
		idx = rest[n:]
		r.index = append(r.index, indexEntry{lastKey: key, lastSeq: seq, off: int64(off), size: int64(sz)})
	}
	return r, nil
}

func (r *sstReader) close() error { return r.f.Close() }

// readBlock loads, checksums and decodes data block i.
func (r *sstReader) readBlock(i int) ([]entry, error) {
	ie := r.index[i]
	buf := make([]byte, ie.size)
	if _, err := r.f.ReadAt(buf, ie.off); err != nil {
		return nil, err
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("kvstore: sstable %d block %d too small", r.meta.num, i)
	}
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	buf = buf[:len(buf)-4]
	if crc32.Checksum(buf, castagnoli) != want {
		return nil, fmt.Errorf("kvstore: sstable %d block %d checksum mismatch", r.meta.num, i)
	}
	var out []entry
	for len(buf) > 0 {
		k := kind(buf[0])
		buf = buf[1:]
		seq, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("kvstore: sstable %d corrupt block %d", r.meta.num, i)
		}
		buf = buf[n:]
		key, rest, err := readLenPrefixed(buf)
		if err != nil {
			return nil, err
		}
		val, rest, err := readLenPrefixed(rest)
		if err != nil {
			return nil, err
		}
		buf = rest
		out = append(out, entry{key: key, val: val, seq: seq, kind: k})
	}
	return out, nil
}

// blockFor returns the first block index that could contain probe, i.e.
// the first block whose last internal key is >= probe.
func (r *sstReader) blockFor(probe *entry) int {
	return sort.Search(len(r.index), func(i int) bool {
		last := entry{key: r.index[i].lastKey, seq: r.index[i].lastSeq}
		return compareEntries(&last, probe) >= 0
	})
}

// fold feeds f the versions of key at or below maxSeq, newest first,
// until one closes the chain, matching memTable.fold.
func (r *sstReader) fold(key []byte, maxSeq uint64, f *chainFold) (closed bool, err error) {
	if !r.filter.mayContain(key) {
		return false, nil
	}
	if bytes.Compare(key, r.meta.smallest) < 0 || bytes.Compare(key, r.meta.largest) > 0 {
		return false, nil
	}
	probe := entry{key: key, seq: maxSeq}
	for bi := r.blockFor(&probe); bi < len(r.index); bi++ {
		ents, err := r.readBlock(bi)
		if err != nil {
			return false, err
		}
		i := sort.Search(len(ents), func(i int) bool { return compareEntries(&ents[i], &probe) >= 0 })
		for ; i < len(ents); i++ {
			if !bytes.Equal(ents[i].key, key) {
				return false, nil
			}
			if f.add(&ents[i]) {
				return true, nil
			}
		}
		// Version run continues into the next block.
	}
	return false, nil
}

// iter returns an iterator over the whole table.
func (r *sstReader) iter() *sstIter { return &sstIter{r: r, bi: -1} }

// sstIter walks one SSTable in internal order. It satisfies
// internalIterator.
type sstIter struct {
	r    *sstReader
	bi   int
	ents []entry
	i    int
	err  error
}

func (it *sstIter) seekFirst() {
	it.bi = -1
	it.advanceBlock()
}

func (it *sstIter) advanceBlock() {
	it.bi++
	it.i = 0
	for it.bi < len(it.r.index) {
		ents, err := it.r.readBlock(it.bi)
		if err != nil {
			it.err = err
			it.ents = nil
			return
		}
		if len(ents) > 0 {
			it.ents = ents
			return
		}
		it.bi++
	}
	it.ents = nil
}

func (it *sstIter) seek(probe *entry) {
	it.bi = it.r.blockFor(probe)
	it.i = 0
	if it.bi >= len(it.r.index) {
		it.ents = nil
		return
	}
	ents, err := it.r.readBlock(it.bi)
	if err != nil {
		it.err = err
		it.ents = nil
		return
	}
	it.ents = ents
	it.i = sort.Search(len(ents), func(i int) bool { return compareEntries(&ents[i], probe) >= 0 })
	if it.i >= len(ents) {
		it.advanceBlock()
	}
}

func (it *sstIter) valid() bool { return it.ents != nil && it.i < len(it.ents) }

func (it *sstIter) next() {
	it.i++
	if it.i >= len(it.ents) {
		it.advanceBlock()
	}
}

func (it *sstIter) cur() *entry { return &it.ents[it.i] }
