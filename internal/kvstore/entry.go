// Package kvstore is the metadata store each GekkoFS daemon runs in place
// of the paper's RocksDB instance (§III-B): a log and one ordered table,
// held in RAM and checkpointed to a file, since a per-job daemon's
// metadata is bounded by the job's files. It provides what GekkoFS
// metadata handling needs:
//
//   - one write entry, Apply: an atomic logged batch of puts, deletes and
//     merges, with key-stripe locks (LockKeys) for read-validate-write
//     batches, and point reads (Get);
//   - a merge operator (GekkoFS updates file sizes with RocksDB merge
//     operands; internal/daemon does the same here) that Apply folds into
//     the key's value before the batch is logged, so a point read costs
//     the same however often the key was merged into;
//   - ordered iteration for the daemons' readdir scans.
//
// The store keeps one version per key in one table (table.go): a sorted
// slice of leaves, each at most 4 KiB of records in the checkpoint file's
// layout, changed in place under the table's lock. A delete removes the
// key's record, so there are no tombstones. Apply logs a batch, then sets
// its ops in the table. When the log passes max(4 MiB, the last
// checkpoint's size) it is rotated out, and a background goroutine writes
// CHECKPOINT, covering that log, from a scan of the live table a leaf at
// a time while writers go on (checkpoint.go). Recovery loads CHECKPOINT
// into leaves that alias the file's bytes and replays the logs it does
// not cover over them. A log begins with a format magic and holds puts
// and deletes of whole values only, so replay runs no merge operator and
// is idempotent, which makes the scan's fuzzy image sound (wal.go). A
// daemon-shaped entry (32-byte key, 35-byte record) costs 75 heap bytes
// filled in key order, 87 in scrambled order, as written and once
// checkpointed alike (TestBaseFootprint): 12–14 M files per GiB of daemon
// RAM. Recovery loads ~37 ns per entry (BenchmarkRecover).
//
// The store is safe for concurrent use by multiple goroutines.
package kvstore

// kind tags the operation an entry represents. A merge lives only in a
// Batch: Apply folds it into a put before the batch reaches the log or
// the table.
type kind uint8

const (
	kindPut kind = iota
	kindDelete
	kindMerge
)

// entry is one operation of a batch or the log.
type entry struct {
	key  []byte
	val  []byte
	kind kind
}
