package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/vfs"
)

// The write-ahead log makes every batch durable before it is acknowledged
// (when Options.SyncWAL is set; GekkoFS daemons run synchronously, so the
// acknowledgement a client receives implies the metadata operation has
// reached the log).
//
// A log file is walMagic, then records [crc32c u32][len u32][payload].
// A payload is one batch: [count u32] then per operation [kind u8]
// [klen uvarint][key][vlen uvarint][val], the kind a put or a delete:
// Apply folds every merge into a put before logging it, so replay runs no
// merge operator and is idempotent. The magic is synced as the log is
// created, so a log lacking it is another build's (ErrFormat), unless it
// is the empty newest log of a crash right after creation. Replay stops at
// the first torn or corrupt record, which after a crash is exactly the
// unacknowledged tail, and fails on a checksummed batch that does not
// decode (ErrLogDamaged).

// walMagic begins every log; it names the format of what follows.
const walMagic = "gekkowl1"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walWriter appends batches to a log file.
type walWriter struct {
	f    vfs.File
	num  uint64 // the log's number: wal-NNNNNN.log
	buf  []byte
	size int64 // bytes appended: the checkpoint trigger
}

// newWALWriter starts log num in the empty file f: it writes the magic
// and syncs it.
func newWALWriter(f vfs.File, num uint64) (*walWriter, error) {
	_, err := f.Append([]byte(walMagic))
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: wal create: %w", err)
	}
	return &walWriter{f: f, num: num}, nil
}

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
		if k > kindDelete {
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

// replayWAL checks that the log begins with walMagic, then invokes fn per
// entry of every intact batch, in log order. A torn or corrupt tail ends
// replay without error (it is the crash-lost suffix). newest says no log
// follows this one, which lets it be empty. name labels the errors.
func replayWAL(f vfs.File, name string, newest bool, fn func(entry)) error {
	size, err := f.Size()
	if err != nil {
		return err
	}
	if size == 0 && newest {
		return nil // a crash right after the log was created
	}
	magic := make([]byte, len(walMagic))
	n, err := f.ReadAt(magic, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	if string(magic[:n]) != walMagic {
		return fmt.Errorf("%w: %s begins %q, not %q", ErrFormat, name, magic[:n], walMagic)
	}
	off := int64(len(walMagic))
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
			return fmt.Errorf("%w: %s: record at offset %d: %v", ErrLogDamaged, name, off, err)
		}
		for i := range ops {
			fn(ops[i])
		}
		off += 8 + l
	}
	return nil
}
