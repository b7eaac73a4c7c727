// Package kvstore is the metadata store each GekkoFS daemon runs in place
// of the paper's RocksDB instance (§III-B): WAL → memtable → base +
// checkpoint, held in RAM, since a per-job daemon's metadata is bounded by
// the job's files. It provides what GekkoFS metadata handling needs:
//
//   - point puts/gets/deletes with a write-ahead log and crash recovery,
//   - an atomic logged batch,
//   - a merge operator (GekkoFS updates file sizes with RocksDB merge
//     operands; internal/daemon does the same here) that is folded into
//     the key's value as the operand is inserted, so a point read costs
//     the same however often the key was merged into,
//   - ordered iteration for the daemons' readdir scans.
//
// The store keeps one version per key: each of the active memtable, the
// frozen memtable and the base holds at most one entry for a key — its
// live value, or in a memtable a tombstone — and the newest of them is
// the key's state. Writes go to the log and the skiplist memtable, where
// an insert on a present key replaces its entry. When the log passes
// max(4 MiB, the last checkpoint's size) the memtable is frozen, and one
// background goroutine folds it into the base — an immutable sorted
// buffer of records, one live put per key — and writes that to
// CHECKPOINT (checkpoint.go). Recovery loads CHECKPOINT and replays the
// logs it does not cover. The base costs 77 heap bytes per entry of the
// daemon's shape (32-byte key, 35-byte record; TestBaseFootprint), about
// 13.9 M files per GiB of daemon RAM at rest, and recovery loads it at
// ~58 ns per entry (BenchmarkRecover: 1 Mi entries in ~61 ms). Entries not
// yet checkpointed cost ~181 bytes each in the skiplist (a node averages
// 101 B, TestMemTableNodeFootprint, plus the key's and the record's
// buffers), so a create-only fill peaks near 258 heap bytes per entry
// (~4.2 M files per GiB).
//
// The store is safe for concurrent use by multiple goroutines.
package kvstore

// kind tags the operation a log entry represents. Memtables hold puts
// and deletes only: a merge is folded into a put as it is inserted.
type kind uint8

const (
	kindPut kind = iota
	kindDelete
	kindMerge
)

// entry is one operation flowing through the log, and one key's state in
// a memtable or the base.
type entry struct {
	key  []byte
	val  []byte
	kind kind
}

// entrySize approximates the in-memory footprint of an entry: Stats.MemBytes
// and the checkpoint's buffer estimate.
func entrySize(e *entry) int64 {
	return int64(len(e.key)+len(e.val)) + 32
}
