// Package kvstore is the metadata store each GekkoFS daemon runs in place
// of the paper's RocksDB instance (§III-B): WAL → memtable → base +
// checkpoint, held in RAM, since a per-job daemon's metadata is bounded by
// the job's files. It provides what GekkoFS metadata handling needs:
//
//   - point puts/gets/deletes with a write-ahead log and crash recovery,
//   - a merge operator (GekkoFS updates file sizes with RocksDB merge
//     operands; internal/daemon does the same here) whose operands are
//     folded as they are inserted, so a key's merge run is bounded
//     (mergeRunBound, RocksDB's max_successive_merges) and a point read
//     costs the same however often the key was merged into,
//   - ordered iteration for the daemons' readdir scans.
//
// Writes go to the log and an append-only skiplist memtable. When the log
// passes max(4 MiB, the last checkpoint's size) the memtable is frozen,
// and one background goroutine folds it into the base — an immutable
// sorted buffer of records, one live put per key — and writes that to
// CHECKPOINT (checkpoint.go). Recovery loads CHECKPOINT and replays the
// logs it does not cover. The base costs 77 heap bytes per entry of the
// daemon's shape (32-byte key, 35-byte record; TestBaseFootprint), about
// 13.9 M files per GiB of daemon RAM at rest, and recovery loads it at
// ~52 ns per entry (BenchmarkRecover: 1 Mi entries in 55 ms). Entries not
// yet checkpointed cost ~185 bytes each in the skiplist (a node averages
// 105 B, TestMemTableNodeFootprint), so a create-only fill peaks near 250
// heap bytes per entry (~4.3 M files per GiB).
//
// The bounded run is an invariant of every memtable: inserts and WAL
// replay go through DB.insertLocked (the log itself keeps the caller's
// operands). One resolver, chainFold, folds version chains for it, for
// reads and for the checkpoint (fold.go).
//
// The store is safe for concurrent use by multiple goroutines.
package kvstore

import "bytes"

// kind tags the operation a log entry represents.
type kind uint8

const (
	kindPut kind = iota
	kindDelete
	kindMerge
)

// entry is one versioned record flowing through the log, memtables and
// the base.
type entry struct {
	key  []byte
	val  []byte
	seq  uint64
	kind kind
}

// compareEntries orders entries by user key ascending, then by sequence
// number descending, so the newest version of a key sorts first within the
// key's run. This is the total order of memtables, the base and iterators.
func compareEntries(a, b *entry) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.seq > b.seq:
		return -1
	case a.seq < b.seq:
		return 1
	default:
		return 0
	}
}

// entrySize approximates the in-memory footprint of an entry: Stats.MemBytes
// and the checkpoint's buffer estimate.
func entrySize(e *entry) int64 {
	return int64(len(e.key)+len(e.val)) + 32
}
