package daemon

// MemTableBytes reports the metadata store's active memtable size
// (kvstore.Stats.MemBytes), which the telemetry tier does not export.
func (d *Daemon) MemTableBytes() int64 { return d.db.Stats().MemBytes }
