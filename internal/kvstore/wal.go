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
// batch: [seq u64][count u32] then per operation
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
func (w *walWriter) append(seq uint64, ops []entry, sync bool) error {
	payload := encodeBatch(seq, ops)
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
func encodeBatch(seq uint64, ops []entry) []byte {
	n := 12
	for i := range ops {
		n += 1 + 2*binary.MaxVarintLen32 + len(ops[i].key) + len(ops[i].val)
	}
	out := make([]byte, 12, n)
	binary.LittleEndian.PutUint64(out[0:], seq)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(ops)))
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

// decodeBatch parses a batch payload. The returned entries carry
// sequence numbers seq, seq+1, ... in operation order.
func decodeBatch(payload []byte) (ops []entry, err error) {
	if len(payload) < 12 {
		return nil, fmt.Errorf("kvstore: batch too short: %d", len(payload))
	}
	seq := binary.LittleEndian.Uint64(payload[0:])
	count := binary.LittleEndian.Uint32(payload[8:])
	p := payload[12:]
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
		ops = append(ops, entry{key: key, val: val, seq: seq + uint64(i), kind: k})
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
// entry, and returns the highest sequence number seen. A corrupt or torn
// tail terminates replay without error (it is the crash-lost suffix).
func replayWAL(f vfs.File, fn func(entry)) (maxSeq uint64, err error) {
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	var off int64
	hdr := make([]byte, 8)
	for off+8 <= size {
		if _, err := f.ReadAt(hdr, off); err != nil {
			return maxSeq, nil // torn header
		}
		want := binary.LittleEndian.Uint32(hdr[0:])
		l := int64(binary.LittleEndian.Uint32(hdr[4:]))
		if off+8+l > size {
			return maxSeq, nil // torn payload
		}
		payload := make([]byte, l)
		if _, err := f.ReadAt(payload, off+8); err != nil {
			return maxSeq, nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return maxSeq, nil // corrupt tail
		}
		ops, err := decodeBatch(payload)
		if err != nil {
			return maxSeq, nil
		}
		for i := range ops {
			if ops[i].seq > maxSeq {
				maxSeq = ops[i].seq
			}
			fn(ops[i])
		}
		off += 8 + l
	}
	return maxSeq, nil
}
