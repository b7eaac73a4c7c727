package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/vfs"
)

// The checkpoint holds the whole table in one file. CHECKPOINT's layout:
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
// log is rotated out and checkpointed once it passes
// max(checkpointLogBytes, the last checkpoint's size), so the cost of
// rewriting the checkpoint stays amortised O(1) per logged byte.
const checkpointLogBytes = 4 << 20

// encode lays out a checkpoint file covering log walNum from the live
// table, copying it a leaf at a time under the read lock, so writers go
// on between leaves: a fuzzy image, which only the logs after walNum make
// whole again. afterLeaf, when set, runs after each leaf.
func (t *table) encode(walNum uint64, afterLeaf func()) []byte {
	t.mu.RLock()
	buf := make([]byte, checkpointHdr, checkpointHdr+t.bytes+t.bytes/8+4)
	var last []byte
	var count uint64
	for li, i := t.settle(0, 0); li < len(t.leaves); {
		l := t.leaves[li]
		buf = append(buf, l.buf[l.offs[i]:]...)
		count += uint64(len(l.offs) - i)
		end, writes := len(l.offs)-1, t.writes
		last = append(last[:0], l.key(end)...)
		t.mu.RUnlock()
		if afterLeaf != nil {
			afterLeaf()
		}
		t.mu.RLock()
		li, i = t.after(last, writes, li, end)
	}
	t.mu.RUnlock()
	binary.LittleEndian.PutUint64(buf[0:], checkpointMagic)
	binary.LittleEndian.PutUint64(buf[8:], walNum)
	binary.LittleEndian.PutUint64(buf[16:], count)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
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

// loadCheckpoint reads CHECKPOINT into the empty table and notes the
// newest log it covers. A store without one starts empty.
func (db *DB) loadCheckpoint() error {
	if !db.fs.Exists(checkpointName) {
		return nil
	}
	f, err := db.fs.Open(checkpointName)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("kvstore: %s: %w", checkpointName, err)
	}
	if db.walNum, err = db.t.decode(buf); err != nil {
		return fmt.Errorf("kvstore: %s: %w", checkpointName, err)
	}
	db.ckptBytes = size
	return nil
}

// decode checks a checkpoint file's bytes whole and cuts its records
// into leaves of at most leafBytes that alias buf, returning the newest
// log the file covers.
func (t *table) decode(buf []byte) (uint64, error) {
	if len(buf) < checkpointHdr+4 {
		return 0, fmt.Errorf("truncated at %d bytes", len(buf))
	}
	body := buf[:len(buf)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return 0, errors.New("checksum mismatch")
	}
	if binary.LittleEndian.Uint64(body) != checkpointMagic {
		return 0, errors.New("bad magic")
	}
	count := binary.LittleEndian.Uint64(body[16:])
	if count > uint64(len(body)) {
		return 0, fmt.Errorf("record count %d exceeds the file", count)
	}
	offs := make([]uint32, 0, count) // one array, cut into the leaves' offsets
	var leaves []leaf
	start, first := checkpointHdr, 0 // the open leaf's first byte and record
	for p := body[checkpointHdr:]; len(p) > 0; {
		at := len(body) - len(p)
		_, rest, err := readLenPrefixed(p)
		if err == nil {
			_, rest, err = readLenPrefixed(rest)
		}
		if err != nil {
			return 0, err
		}
		if len(offs) > first && len(body)-len(rest)-start > leafBytes {
			leaves = append(leaves, leaf{buf: body[start:at:at], offs: offs[first:len(offs):len(offs)]})
			start, first = at, len(offs)
		}
		offs = append(offs, uint32(at-start))
		p = rest
	}
	if uint64(len(offs)) != count {
		return 0, fmt.Errorf("%d records, header says %d", len(offs), count)
	}
	if len(offs) > first {
		leaves = append(leaves, leaf{buf: body[start:len(body):len(body)], offs: offs[first:len(offs):len(offs)]})
	}
	t.leaves = make([]*leaf, len(leaves))
	for i := range leaves {
		t.leaves[i] = &leaves[i]
	}
	t.count, t.bytes = len(offs), int64(len(body)-checkpointHdr)
	return binary.LittleEndian.Uint64(body[8:]), nil
}

// backgroundWork is the one maintenance goroutine: it checkpoints each
// rotated log until the store closes.
func (db *DB) backgroundWork() {
	defer close(db.workDone)
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		for !db.closed && db.covered == nil {
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

// runCheckpoint makes CHECKPOINT cover the rotated log db.covered, and
// only then removes that log. It is called with db.mu held and drops it
// while it scans the table and writes, as writers go on into the active
// log; nothing rotates the log meanwhile, since a writer that finds it
// full waits. The scan may copy values of batches in the active log —
// some of a batch's ops and not the others — which only replaying that
// log makes whole. So both logs are synced before the rename, the covered
// one first, whatever SyncWAL says: a crash then recovers a prefix of the
// batches and no value whose batch is not durable.
func (db *DB) runCheckpoint() error {
	old, active := db.covered, db.wal
	db.mu.Unlock()
	buf := db.t.encode(old.num, db.afterLeaf)
	err := old.f.Sync()
	if err == nil {
		err = active.f.Sync()
	}
	if err == nil {
		err = writeCheckpoint(db.fs, buf)
	}
	db.mu.Lock()
	if err != nil {
		return err
	}
	db.covered, db.ckptBytes = nil, int64(len(buf))
	db.stats.Checkpoints++
	db.cond.Broadcast()
	// Under db.mu, so no second log is rotated out before this one is
	// gone. The log is synced and covered, so a failed close loses
	// nothing, and a failed removal leaves a log that Open skips and
	// removes.
	_ = old.close()
	_ = db.fs.Remove(walName(old.num))
	return nil
}

// checkpoint rotates the active log out, if it holds anything, and waits
// until the background goroutine has checkpointed it. Tests force
// checkpoints through it.
func (db *DB) checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.waitCheckpointLocked()
	if err == nil && db.wal.size > 0 {
		err = db.rotateLocked()
	}
	if err == nil {
		err = db.waitCheckpointLocked()
	}
	return err
}
