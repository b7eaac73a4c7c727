package kvstore

import (
	"bytes"
	"errors"
)

// These single-key calls are one-op batches through Apply on copies of
// the caller's buffers, kept only for bench/probes.go, which times them;
// they go when that probe moves onto Apply (ROADMAP item 2, slice 1).

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	var b Batch
	b.DeleteOwned(bytes.Clone(key))
	return db.Apply(&b)
}

// Merge folds operand into key's value.
func (db *DB) Merge(key, operand []byte) error {
	var b Batch
	b.MergeOwned(bytes.Clone(key), bytes.Clone(operand))
	return db.Apply(&b)
}

// PutIfAbsent stores key=value if the key has no live value, returning
// whether it stored: LockKeys, Get and Apply, as the daemon creates a
// path.
func (db *DB) PutIfAbsent(key, value []byte) (bool, error) {
	defer db.LockKeys([][]byte{key}).Unlock()
	switch _, err := db.Get(key); {
	case err == nil:
		return false, nil
	case errors.Is(err, ErrNotFound):
		var b Batch
		b.PutOwned(bytes.Clone(key), bytes.Clone(value))
		return true, db.Apply(&b)
	default:
		return false, err
	}
}
