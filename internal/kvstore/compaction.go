package kvstore

import (
	"bytes"
	"fmt"
	"math"
)

// backgroundWork is the single maintenance goroutine: it drains the
// memtable flush queue and runs compactions until the store closes,
// mirroring RocksDB's background job pool (collapsed to one worker, which
// keeps the engine deterministic under test).
func (db *DB) backgroundWork() {
	defer close(db.workDone)
	for {
		db.mu.Lock()
		for !db.closed && db.bgErr == nil && len(db.imm) == 0 && !db.needsCompactionLocked() {
			db.cond.Wait()
		}
		if db.closed || db.bgErr != nil {
			db.mu.Unlock()
			return
		}
		if len(db.imm) > 0 {
			im := db.imm[0]
			db.mu.Unlock()
			err := db.flushImm(im)
			db.mu.Lock()
			if err != nil {
				db.bgErr = err
			}
			db.cond.Broadcast()
			db.mu.Unlock()
			continue
		}
		db.mu.Unlock()
		if _, err := db.compactOnce(false); err != nil {
			db.mu.Lock()
			db.bgErr = err
			db.cond.Broadcast()
			db.mu.Unlock()
			return
		}
	}
}

// compactOnce picks and runs one compaction step and reports whether
// there was one to run. compactMu keeps CompactAll and the background
// worker from picking the same input tables, which the loser would find
// deleted.
func (db *DB) compactOnce(force bool) (bool, error) {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.mu.Lock()
	job, ok := db.pickCompactionLocked(force)
	db.mu.Unlock()
	if !ok {
		return false, nil
	}
	return true, db.runCompaction(job)
}

// needsCompactionLocked reports whether any level exceeds its trigger.
func (db *DB) needsCompactionLocked() bool {
	_, ok := db.pickCompactionLocked(false)
	return ok
}

// compactionJob names the input tables of one merge step.
type compactionJob struct {
	level      int // input level
	outLevel   int
	inputs     []tableMeta // from level
	nextInputs []tableMeta // overlapping tables in outLevel
}

// pickCompactionLocked chooses the next compaction. force relaxes the
// triggers so CompactAll can push everything down. Caller holds db.mu.
func (db *DB) pickCompactionLocked(force bool) (compactionJob, bool) {
	v := db.vers
	// L0 → L1 when the file count trigger fires.
	l0 := len(v.levels[0])
	if l0 >= db.tune.l0CompactTrigger || (force && l0 > 0) {
		inputs := append([]tableMeta(nil), v.levels[0]...)
		smallest, largest := keyRange(inputs)
		return compactionJob{
			level:      0,
			outLevel:   1,
			inputs:     inputs,
			nextInputs: v.overlaps(1, smallest, largest),
		}, true
	}
	// Size-triggered merges for L1..Ln-1.
	budget := db.tune.levelBytesBase
	for l := 1; l < numLevels-1; l++ {
		if v.levelBytes(l) > budget && len(v.levels[l]) > 0 {
			t := v.levels[l][0]
			return compactionJob{
				level:      l,
				outLevel:   l + 1,
				inputs:     []tableMeta{t},
				nextInputs: v.overlaps(l+1, t.smallest, t.largest),
			}, true
		}
		budget *= levelMultiplier
	}
	return compactionJob{}, false
}

// keyRange returns the [min smallest, max largest] bounds of tables.
func keyRange(tables []tableMeta) (smallest, largest []byte) {
	for i, t := range tables {
		if i == 0 {
			smallest, largest = t.smallest, t.largest
			continue
		}
		if bytes.Compare(t.smallest, smallest) < 0 {
			smallest = t.smallest
		}
		if bytes.Compare(t.largest, largest) > 0 {
			largest = t.largest
		}
	}
	return smallest, largest
}

// allocFileNum hands out the next table file number.
func (db *DB) allocFileNum() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := db.nextFile
	db.nextFile++
	return n
}

// flushTable writes a memtable out as one L0 table (returned as a
// one-element slice, ready to prepend to the level). Like compaction it
// keeps one record per key — the newest put or tombstone, or the bare
// operands of a key the memtable only ever merged into — rather than
// every shadowed version, so a hot key costs L0 one record however often
// it was rewritten.
func (db *DB) flushTable(mt *memTable) ([]tableMeta, error) {
	out := &compactionOutput{db: db, target: math.MaxInt64}
	if err := db.compactInto(out, mt.iter(), false); err != nil {
		return nil, err
	}
	return out.out, nil
}

// flushImm writes the oldest immutable memtable to a fresh L0 table,
// installs it, and retires the memtable's WAL.
func (db *DB) flushImm(im immTable) error {
	if im.mt.entries() == 0 {
		db.mu.Lock()
		db.imm = db.imm[1:]
		db.mu.Unlock()
		_ = db.fs.Remove(walName(im.walNum))
		return nil
	}
	tables, err := db.flushTable(im.mt)
	if err != nil {
		return err
	}
	db.mu.Lock()
	nv := db.vers.clone()
	nv.levels[0] = append(tables, nv.levels[0]...)
	db.vers = nv
	db.imm = db.imm[1:]
	db.stats.Flushes++
	err = db.persistManifestLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	_ = db.fs.Remove(walName(im.walNum))
	return nil
}

// persistManifestLocked snapshots the current version to the manifest.
// Caller holds db.mu (or is single-threaded during Open).
func (db *DB) persistManifestLocked() error {
	return writeManifest(db.fs, manifestState{
		lastSeq:  db.seq,
		nextFile: db.nextFile,
		walNum:   db.walNum,
		vers:     db.vers,
	})
}

// compactionOutput rolls entries into output tables of roughly target
// bytes each.
type compactionOutput struct {
	db     *DB
	target int64
	w      *sstWriter
	num    uint64
	out    []tableMeta
}

func (o *compactionOutput) add(e *entry) error {
	if o.w == nil {
		o.num = o.db.allocFileNum()
		f, err := o.db.fs.Create(sstName(o.num))
		if err != nil {
			return err
		}
		o.w = newSSTWriter(f, o.num)
	}
	if err := o.w.add(e, blockBytes); err != nil {
		return err
	}
	if o.w.offset+int64(len(o.w.block)) >= o.target {
		return o.roll()
	}
	return nil
}

func (o *compactionOutput) roll() error {
	if o.w == nil {
		return nil
	}
	t, err := o.w.finish(bloomBitsPerKey)
	if err != nil {
		return err
	}
	if err := o.w.f.Close(); err != nil {
		return err
	}
	o.out = append(o.out, t)
	o.w = nil
	return nil
}

// runCompaction merges job.inputs with job.nextInputs into job.outLevel,
// dropping shadowed versions, collapsing merge chains when a base value is
// available, and dropping tombstones at the bottom of the tree.
func (db *DB) runCompaction(job compactionJob) error {
	all := append(append([]tableMeta(nil), job.inputs...), job.nextInputs...)
	smallest, largest := keyRange(all)

	db.mu.Lock()
	isBottom := true
	for l := job.outLevel + 1; l < numLevels; l++ {
		if len(db.vers.overlaps(l, smallest, largest)) > 0 {
			isBottom = false
			break
		}
	}
	db.mu.Unlock()

	srcs := make([]internalIterator, 0, len(all))
	for _, t := range all {
		r, err := db.reader(t)
		if err != nil {
			return err
		}
		srcs = append(srcs, r.iter())
	}
	out := &compactionOutput{db: db, target: db.tune.targetFileBytes}
	if err := db.compactInto(out, newMergeIter(srcs), isBottom); err != nil {
		return err
	}

	// Install the result.
	db.mu.Lock()
	nv := db.vers.clone()
	nv.levels[job.level] = removeTables(nv.levels[job.level], job.inputs)
	nv.levels[job.outLevel] = removeTables(nv.levels[job.outLevel], job.nextInputs)
	nv.levels[job.outLevel] = append(nv.levels[job.outLevel], out.out...)
	sortLevel(nv.levels[job.outLevel])
	db.vers = nv
	db.stats.Compactions++
	for _, t := range all {
		db.obsoleteTables = append(db.obsoleteTables, t.num)
	}
	err := db.persistManifestLocked()
	if err == nil && db.iterRefs == 0 {
		db.deleteObsoleteLocked()
	}
	db.cond.Broadcast()
	db.mu.Unlock()
	return err
}

// compactInto streams it into out one key at a time, each key's version
// run reduced to its surviving representation, and closes the last table.
func (db *DB) compactInto(out *compactionOutput, it internalIterator, isBottom bool) error {
	var f chainFold
	for it.seekFirst(); it.valid(); {
		key := it.cur().key
		f.reset()
		for ; it.valid() && bytes.Equal(it.cur().key, key); it.next() {
			if f.base == nil {
				f.add(it.cur())
			}
		}
		if err := db.emitCompacted(out, key, &f, isBottom); err != nil {
			return err
		}
	}
	return out.roll()
}

// emitCompacted writes the surviving representation of one key's version
// run, folded into f. Versions beneath the chain's base are dropped, and
// at the bottom of the tree so is a tombstone; reader snapshots are not
// consulted (iterators and point reads pin the memtables and tables they
// started on instead).
func (db *DB) emitCompacted(out *compactionOutput, key []byte, f *chainFold, isBottom bool) error {
	switch {
	case len(f.ops) == 0:
		if f.base.kind == kindDelete && isBottom {
			return nil // tombstone and everything below it vanish
		}
		return out.add(f.base)
	case f.base != nil || isBottom:
		// A base in reach, or none anywhere below: the chain collapses.
		val, _ := db.foldValue(key, f, nil)
		return out.add(&entry{key: key, val: val, seq: f.ops[0].seq, kind: kindPut})
	}
	// A base may exist in deeper levels; the operands must survive as-is.
	for _, op := range f.ops {
		if err := out.add(op); err != nil {
			return err
		}
	}
	return nil
}

// removeTables filters drop out of tables by file number.
func removeTables(tables, drop []tableMeta) []tableMeta {
	if len(drop) == 0 {
		return tables
	}
	dropSet := make(map[uint64]bool, len(drop))
	for _, t := range drop {
		dropSet[t.num] = true
	}
	out := tables[:0:0]
	for _, t := range tables {
		if !dropSet[t.num] {
			out = append(out, t)
		}
	}
	return out
}

// String renders a job for debug logs.
func (j compactionJob) String() string {
	return fmt.Sprintf("L%d(%d tables) + L%d(%d tables) -> L%d",
		j.level, len(j.inputs), j.outLevel, len(j.nextInputs), j.outLevel)
}
