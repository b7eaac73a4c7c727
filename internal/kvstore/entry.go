// Package kvstore is a log-structured merge-tree key-value store: the
// from-scratch stand-in for the RocksDB instance each GekkoFS daemon runs
// (paper §III-B). It provides the pieces GekkoFS metadata handling needs:
//
//   - point puts/gets/deletes with a write-ahead log and crash recovery,
//   - a merge operator (GekkoFS updates file sizes with RocksDB merge
//     operands; internal/daemon does the same here) whose operands are
//     folded as they are inserted, so a key's merge run is bounded
//     (mergeRunBound, RocksDB's max_successive_merges) and a point read
//     costs the same however often the key was merged into,
//   - ordered iteration for the daemons' readdir scans,
//   - memtable flush into SSTables with bloom filters and leveled
//     compaction, tuned like an LSM for low-latency NAND storage.
//
// The bounded run is an invariant of every memtable, enforced wherever one
// is filled or emptied: inserts and WAL replay go through DB.insertLocked
// (the log itself keeps the caller's operands), and flush, the recovery
// flush and compaction write one record per key. One resolver, chainFold,
// folds version chains for all of them and for reads (fold.go).
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

// entry is one versioned record flowing through memtables, WAL and
// SSTables.
type entry struct {
	key  []byte
	val  []byte
	seq  uint64
	kind kind
}

// compareEntries orders entries by user key ascending, then by sequence
// number descending, so the newest version of a key sorts first within the
// key's run. This is the total order used by the memtable and SSTables.
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

// entrySize approximates the in-memory footprint of an entry, used for the
// memtable flush threshold.
func entrySize(e *entry) int64 {
	return int64(len(e.key)+len(e.val)) + 32
}
