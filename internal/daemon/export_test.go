package daemon

import "testing"

// StoreBytes sums the key and value bytes the metadata store holds, by
// one scan of it: what the telemetry tier does not export.
func (d *Daemon) StoreBytes(t testing.TB) int64 {
	it, err := d.db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var n int64
	for it.SeekFirst(); it.Valid(); it.Next() {
		n += int64(len(it.Key()) + len(it.Value()))
	}
	return n
}
