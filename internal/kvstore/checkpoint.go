package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/vfs"
)

// The checkpoint holds the whole store below the memtables in one file.
// CHECKPOINT's layout:
//
//	[magic u64][walNum u64][count u64]
//	count × [klen uvarint][key][vlen uvarint][val], keys ascending
//	[crc32c u32 over everything before it]
//
// walNum is the newest log the checkpoint covers; recovery replays only
// the logs numbered above it. A new checkpoint is written to
// CHECKPOINT.tmp, synced and renamed over CHECKPOINT, so the file is
// always whole: any damage to it is corruption, never a crash-lost tail,
// and fails Open.
const (
	checkpointName  = "CHECKPOINT"
	checkpointTmp   = "CHECKPOINT.tmp"
	checkpointMagic = 0x67656b6b6f636b32 // "gekkock2"
	checkpointHdr   = 24
)

// checkpointLogBytes is the floor of the checkpoint trigger: the active
// log is frozen once it passes max(checkpointLogBytes, the last
// checkpoint's size), so the cost of rewriting the checkpoint stays
// amortised O(1) per logged byte.
const checkpointLogBytes = 4 << 20

// base is the table below the memtables, the image of CHECKPOINT: one
// immutable buffer of records plus their offsets, one live put per key
// and no tombstones. It holds no pointer per record, so the garbage
// collector scans it in O(1), and it is never modified: a reader keeps the
// base it started on for as long as it likes.
type base struct {
	buf  []byte // the checkpoint file's bytes
	offs []int  // record offsets into buf, in key order
}

// frozen is a memtable whose log is full, waiting for the background
// goroutine to fold it into the base, and the newest log it covers.
type frozen struct {
	mt     *memTable
	walNum uint64
}

// record decodes the i-th record. The slices alias the base, capped so an
// append through them cannot reach the next record.
func (b *base) record(i int) (key, val []byte) {
	p := b.buf[b.offs[i]:]
	kl, n := binary.Uvarint(p)
	key, p = p[n:n+int(kl):n+int(kl)], p[n+int(kl):]
	vl, n := binary.Uvarint(p)
	return key, p[n : n+int(vl) : n+int(vl)]
}

// search returns the index of the first record whose key is >= key.
func (b *base) search(key []byte) int {
	return sort.Search(len(b.offs), func(i int) bool {
		k, _ := b.record(i)
		return bytes.Compare(k, key) >= 0
	})
}

// get returns key's value, if the base holds the key.
func (b *base) get(key []byte) ([]byte, bool) {
	if i := b.search(key); i < len(b.offs) {
		if k, v := b.record(i); bytes.Equal(k, key) {
			return v, true
		}
	}
	return nil, false
}

func (b *base) iter() *baseIter { return &baseIter{b: b} }

// baseIter walks a base in entry order. It satisfies internalIterator.
type baseIter struct {
	b *base
	i int
	e entry
}

func (it *baseIter) seekFirst() { it.set(0) }

func (it *baseIter) seek(key []byte) { it.set(it.b.search(key)) }

func (it *baseIter) valid() bool { return it.i < len(it.b.offs) }

func (it *baseIter) next() { it.set(it.i + 1) }

func (it *baseIter) cur() *entry { return &it.e }

func (it *baseIter) set(i int) {
	if it.i = i; it.valid() {
		k, v := it.b.record(i)
		it.e = entry{key: k, val: v, kind: kindPut}
	}
}

// foldBase returns the base that results from folding im into old, with
// the checkpoint file's bytes already laid out in it. A key the memtable
// holds takes its entry from there; tombstones are dropped.
func foldBase(old *base, im *frozen) *base {
	buf := make([]byte, checkpointHdr, checkpointHdr+len(old.buf)+int(im.mt.sizeBytes()))
	offs := make([]int, 0, len(old.offs)+im.mt.entries())
	it := newMergeIter([]internalIterator{im.mt.iter(), old.iter()})
	for it.seekFirst(); it.valid(); it.next() {
		e := it.cur()
		if e.kind != kindPut {
			continue
		}
		offs = append(offs, len(buf))
		buf = binary.AppendUvarint(buf, uint64(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.AppendUvarint(buf, uint64(len(e.val)))
		buf = append(buf, e.val...)
	}
	// Tombstones and overwrites of base keys fold to less than the
	// estimate: keep only what the base uses.
	if cap(buf) > len(buf)+len(buf)/8 {
		buf = append(make([]byte, 0, len(buf)+4), buf...)
	}
	if cap(offs) > len(offs)+len(offs)/8 {
		offs = append([]int(nil), offs...)
	}
	binary.LittleEndian.PutUint64(buf[0:], checkpointMagic)
	binary.LittleEndian.PutUint64(buf[8:], im.walNum)
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(offs)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return &base{buf: buf, offs: offs}
}

// writeCheckpoint makes buf the durable CHECKPOINT: written to the tmp
// file, synced, and renamed over the old one.
func writeCheckpoint(fs vfs.FS, buf []byte) error {
	f, err := fs.Create(checkpointTmp)
	if err != nil {
		return err
	}
	if _, err := f.Append(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(checkpointTmp, checkpointName)
}

// loadCheckpoint reads CHECKPOINT into a base and returns the newest log
// it covers. A store without one starts from an empty base.
func loadCheckpoint(fs vfs.FS) (*base, uint64, error) {
	if !fs.Exists(checkpointName) {
		return &base{}, 0, nil
	}
	f, err := fs.Open(checkpointName)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, 0, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, 0, fmt.Errorf("kvstore: %s: %w", checkpointName, err)
	}
	b, walNum, err := decodeCheckpoint(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("kvstore: %s: %w", checkpointName, err)
	}
	return b, walNum, nil
}

// decodeCheckpoint checks a checkpoint file's bytes whole and indexes its
// records.
func decodeCheckpoint(buf []byte) (*base, uint64, error) {
	if len(buf) < checkpointHdr+4 {
		return nil, 0, fmt.Errorf("truncated at %d bytes", len(buf))
	}
	body := buf[:len(buf)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return nil, 0, errors.New("checksum mismatch")
	}
	if binary.LittleEndian.Uint64(body) != checkpointMagic {
		return nil, 0, errors.New("bad magic")
	}
	count := binary.LittleEndian.Uint64(body[16:])
	if count > uint64(len(body)) {
		return nil, 0, fmt.Errorf("record count %d exceeds the file", count)
	}
	offs := make([]int, 0, count)
	for p := body[checkpointHdr:]; len(p) > 0; {
		offs = append(offs, len(body)-len(p))
		_, rest, err := readLenPrefixed(p)
		if err == nil {
			_, rest, err = readLenPrefixed(rest)
		}
		if err != nil {
			return nil, 0, err
		}
		p = rest
	}
	if uint64(len(offs)) != count {
		return nil, 0, fmt.Errorf("%d records, header says %d", len(offs), count)
	}
	return &base{buf: buf, offs: offs}, binary.LittleEndian.Uint64(body[8:]), nil
}

// backgroundWork is the one maintenance goroutine: it checkpoints each
// frozen memtable until the store closes.
func (db *DB) backgroundWork() {
	defer close(db.workDone)
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		for !db.closed && db.imm == nil {
			db.cond.Wait()
		}
		if db.closed {
			return
		}
		if err := db.runCheckpoint(); err != nil {
			db.bgErr = err
			db.cond.Broadcast()
			return
		}
	}
}

// runCheckpoint folds the frozen memtable into the base, makes the result
// the durable CHECKPOINT, installs it, and only then removes the log it
// covers. It is called with db.mu held and drops it while folding and
// writing: nothing else changes db.imm or db.base meanwhile, because
// writers wait while a frozen memtable is pending.
func (db *DB) runCheckpoint() error {
	im, old := db.imm, db.base
	db.mu.Unlock()
	nb := foldBase(old, im)
	err := writeCheckpoint(db.fs, nb.buf)
	db.mu.Lock()
	if err != nil {
		return err
	}
	db.base, db.imm = nb, nil
	db.stats.Checkpoints++
	// Under db.mu, so no second log is frozen before this one is gone. A
	// failed removal leaves a covered log, which Open skips and removes.
	_ = db.fs.Remove(walName(im.walNum))
	db.cond.Broadcast()
	return nil
}

// checkpoint freezes the active memtable, if it holds anything, and waits
// until the background goroutine has checkpointed it. Tests force
// checkpoints through it.
func (db *DB) checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.waitFrozenLocked()
	if err == nil && db.mem.entries() > 0 {
		err = db.freezeLocked()
	}
	if err == nil {
		err = db.waitFrozenLocked()
	}
	return err
}
