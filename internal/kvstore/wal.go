package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/vfs"
)

// The write-ahead log makes every batch durable before it is acknowledged
// (when Options.SyncWAL is set; GekkoFS daemons run synchronously, so the
// acknowledgement a client receives implies the metadata operation has
// reached the log).
//
// Record framing: [crc32c u32][len u32][payload]. Payload encodes one
// batch: [count u32] then per operation
// [kind u8][klen uvarint][key][vlen uvarint][val]. Replay stops at the
// first torn or corrupt record, which after a crash is exactly the
// unacknowledged tail.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walWriter appends batches to a log file.
type walWriter struct {
	f    vfs.File
	buf  []byte
	size int64 // bytes appended: the checkpoint trigger
}

func newWALWriter(f vfs.File) *walWriter { return &walWriter{f: f} }

// append writes one batch record; sync forces durability before return.
func (w *walWriter) append(ops []entry, sync bool) error {
	payload := encodeBatch(ops)
	w.buf = w.buf[:0]
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	if _, err := w.f.Append(w.buf); err != nil {
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	w.size += int64(len(w.buf))
	if sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("kvstore: wal sync: %w", err)
		}
	}
	return nil
}

func (w *walWriter) close() error { return w.f.Close() }

// encodeBatch serializes a batch payload.
func encodeBatch(ops []entry) []byte {
	n := 4
	for i := range ops {
		n += 1 + 2*binary.MaxVarintLen32 + len(ops[i].key) + len(ops[i].val)
	}
	out := make([]byte, 4, n)
	binary.LittleEndian.PutUint32(out, uint32(len(ops)))
	var tmp [binary.MaxVarintLen32]byte
	for i := range ops {
		out = append(out, byte(ops[i].kind))
		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(ops[i].key)))]...)
		out = append(out, ops[i].key...)
		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(ops[i].val)))]...)
		out = append(out, ops[i].val...)
	}
	return out
}

// decodeBatch parses a batch payload into its operations, in order.
func decodeBatch(payload []byte) (ops []entry, err error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("kvstore: batch too short: %d", len(payload))
	}
	count := binary.LittleEndian.Uint32(payload)
	p := payload[4:]
	ops = make([]entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("kvstore: truncated batch op %d", i)
		}
		k := kind(p[0])
		if k > kindMerge {
			return nil, fmt.Errorf("kvstore: bad op kind %d", k)
		}
		p = p[1:]
		key, rest, err := readLenPrefixed(p)
		if err != nil {
			return nil, err
		}
		val, rest, err := readLenPrefixed(rest)
		if err != nil {
			return nil, err
		}
		p = rest
		ops = append(ops, entry{key: key, val: val, kind: k})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("kvstore: %d bytes after the batch's %d ops", len(p), count)
	}
	return ops, nil
}

func readLenPrefixed(p []byte) (data, rest []byte, err error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < l {
		return nil, nil, fmt.Errorf("kvstore: truncated length-prefixed field")
	}
	return p[n : n+int(l)], p[n+int(l):], nil
}

// replayWAL reads every intact batch from a log file, invoking fn per
// entry in log order. A corrupt or torn tail terminates replay without
// error (it is the crash-lost suffix).
func replayWAL(f vfs.File, fn func(entry)) error {
	size, err := f.Size()
	if err != nil {
		return err
	}
	var off int64
	hdr := make([]byte, 8)
	for off+8 <= size {
		if _, err := f.ReadAt(hdr, off); err != nil {
			return nil // torn header
		}
		want := binary.LittleEndian.Uint32(hdr[0:])
		l := int64(binary.LittleEndian.Uint32(hdr[4:]))
		if off+8+l > size {
			return nil // torn payload
		}
		payload := make([]byte, l)
		if _, err := f.ReadAt(payload, off+8); err != nil {
			return nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return nil // corrupt tail
		}
		ops, err := decodeBatch(payload)
		if err != nil {
			return nil
		}
		for i := range ops {
			fn(ops[i])
		}
		off += 8 + l
	}
	return nil
}
