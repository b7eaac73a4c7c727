package daemon

import (
	"bytes"
	"testing"

	"repro/internal/meta"
	"repro/internal/rpc"
)

// TestSizeGrowMergerAndOverlayAgree pins that the merge operator and the
// batch handler's overlay compute the same record for one size grow —
// they share meta.VersionedMeta.Grow, and this is the test that fails if
// either grows a private copy again — and that the shared step does what
// the relaxed-semantics table promises in each case.
func TestSizeGrowMergerAndOverlayAgree(t *testing.T) {
	file := func(size, mtime int64) meta.Metadata {
		return meta.Metadata{Mode: meta.ModeRegular, Size: size, CTimeNS: 1, MTimeNS: mtime}
	}
	full := meta.VersionedMeta{}
	for e := uint64(1); e <= meta.MaxVersions; e++ {
		full.Stamp(e, file(int64(e), int64(e)))
	}
	for _, tc := range []struct {
		name     string
		existing *meta.VersionedMeta // nil: absent
		epoch    uint64
		size     int64
		mtime    int64
		versions int
		want     meta.Metadata // newest version after the grow
	}{
		{"absent", nil, 4, 100, 9, 1, meta.Metadata{Mode: meta.ModeRegular, Size: 100, MTimeNS: 9}},
		{"tombstoned", &meta.VersionedMeta{V: []meta.Version{{Epoch: 3, Tombstone: true}, {Epoch: 1, Meta: file(50, 2)}}},
			3, 100, 9, 2, meta.Metadata{Mode: meta.ModeRegular, Size: 100, MTimeNS: 9}},
		{"tombstoned, newer epoch", &meta.VersionedMeta{V: []meta.Version{{Epoch: 3, Tombstone: true}, {Epoch: 1, Meta: file(50, 2)}}},
			5, 100, 9, 3, meta.Metadata{Mode: meta.ModeRegular, Size: 100, MTimeNS: 9}},
		{"older epoch", &meta.VersionedMeta{V: []meta.Version{{Epoch: 5, Meta: file(50, 20)}}}, 2, 100, 9, 1, file(100, 20)},
		{"same epoch, smaller", &meta.VersionedMeta{V: []meta.Version{{Epoch: 5, Meta: file(500, 2)}}}, 5, 100, 9, 1, file(500, 9)},
		{"newer epoch", &meta.VersionedMeta{V: []meta.Version{{Epoch: 5, Meta: file(50, 2)}}}, 7, 100, 9, 2, file(100, 9)},
		{"newer epoch, full history", &full, meta.MaxVersions + 1, 100, 9, meta.MaxVersions, file(100, 9)},
		{"directory", &meta.VersionedMeta{V: []meta.Version{{Epoch: 5, Meta: meta.Metadata{Mode: meta.ModeDir, CTimeNS: 1, MTimeNS: 2}}}},
			7, 100, 9, 1, meta.Metadata{Mode: meta.ModeDir, CTimeNS: 1, MTimeNS: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stored []byte
			var overlay meta.VersionedMeta
			if tc.existing != nil {
				stored = tc.existing.Encode()
				var err error
				if overlay, err = meta.DecodeVersionedMeta(stored); err != nil {
					t.Fatal(err)
				}
			}
			operand := rpc.NewEnc(24)
			operand.I64(tc.size).I64(tc.mtime).U64(tc.epoch)
			merged := sizeMerger(nil, stored, [][]byte{operand.Bytes()})
			overlay.Grow(tc.epoch, tc.size, tc.mtime)
			if !bytes.Equal(merged, overlay.Encode()) {
				t.Fatalf("merger and overlay disagree:\n merger  %x\n overlay %x", merged, overlay.Encode())
			}
			if len(overlay.V) != tc.versions || overlay.Newest().Tombstone || overlay.Newest().Meta != tc.want {
				t.Fatalf("grown record = %+v, want %d versions with newest %+v", overlay.V, tc.versions, tc.want)
			}
			// Folding is transparent: two operands in one call, or one
			// call each, leave the same record.
			second := rpc.NewEnc(24)
			second.I64(tc.size + 1).I64(tc.mtime - 1).U64(tc.epoch + 1)
			once := sizeMerger(nil, stored, [][]byte{operand.Bytes(), second.Bytes()})
			if steps := sizeMerger(nil, merged, [][]byte{second.Bytes()}); !bytes.Equal(once, steps) {
				t.Fatalf("merging in steps differs from merging at once:\n once  %x\n steps %x", once, steps)
			}
		})
	}
}
