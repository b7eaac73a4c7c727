package meta

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func mdAt(size int64) Metadata {
	return Metadata{Mode: ModeRegular, Size: size, CTimeNS: 100, MTimeNS: 200}
}

// TestVersionedSingleRoundTrip pins the common record — one live version
// at epoch 0, all a deployment without snapshots ever stores — through the
// one stored shape.
func TestVersionedSingleRoundTrip(t *testing.T) {
	md := mdAt(42)
	vm := VersionedMeta{V: []Version{{Meta: md}}}
	enc := vm.Encode()
	if want := 1 + versionHdrSize + metadataWireSize; len(enc) != want || enc[0] != versionedMagic {
		t.Fatalf("single live epoch-0 version encoded to %d bytes (first %#x), want %d behind the magic", len(enc), enc[0], want)
	}
	got, err := DecodeVersionedMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vm) {
		t.Fatalf("round trip changed record: %+v != %+v", got, vm)
	}
	live, ok := got.Live()
	if !ok || live != md {
		t.Fatalf("Live() = %+v, %v", live, ok)
	}
	// The version payload alone is not a record.
	if _, err := DecodeVersionedMeta(md.Encode()); err == nil {
		t.Fatal("a bare 25-byte Metadata payload decoded as a stored record")
	}
}

func TestVersionedHistoryRoundTrip(t *testing.T) {
	vm := VersionedMeta{V: []Version{
		{Epoch: 7, Meta: mdAt(300)},
		{Epoch: 4, Tombstone: true},
		{Epoch: 1, Meta: mdAt(100)},
	}}
	enc := vm.Encode()
	if enc[0] != versionedMagic {
		t.Fatalf("multi-version record lacks magic: %x", enc[0])
	}
	got, err := DecodeVersionedMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vm) {
		t.Fatalf("round trip changed record: %+v != %+v", got, vm)
	}
}

func TestVersionedAt(t *testing.T) {
	vm := VersionedMeta{V: []Version{
		{Epoch: 7, Meta: mdAt(300)},
		{Epoch: 4, Tombstone: true},
		{Epoch: 1, Meta: mdAt(100)},
	}}
	if _, ok := vm.At(0); ok {
		t.Fatal("epoch 0 predates the key, At must report absent")
	}
	for _, s := range []uint64{1, 2, 3} {
		md, ok := vm.At(s)
		if !ok || md.Size != 100 {
			t.Fatalf("At(%d) = %+v, %v; want size 100", s, md, ok)
		}
	}
	for _, s := range []uint64{4, 5, 6} {
		if _, ok := vm.At(s); ok {
			t.Fatalf("At(%d) saw through a tombstone", s)
		}
	}
	for _, s := range []uint64{7, 8, 99} {
		md, ok := vm.At(s)
		if !ok || md.Size != 300 {
			t.Fatalf("At(%d) = %+v, %v; want size 300", s, md, ok)
		}
	}
}

func TestVersionedStamp(t *testing.T) {
	vm := VersionedMeta{V: []Version{{Epoch: 0, Meta: mdAt(10)}}}
	vm.Stamp(0, mdAt(20)) // same epoch folds in place
	if len(vm.V) != 1 || vm.V[0].Meta.Size != 20 {
		t.Fatalf("same-epoch stamp pushed a version: %+v", vm.V)
	}
	vm.Stamp(3, mdAt(30)) // later epoch pushes
	if len(vm.V) != 2 || vm.V[0].Epoch != 3 || vm.V[1].Meta.Size != 20 {
		t.Fatalf("later-epoch stamp: %+v", vm.V)
	}
	vm.Stamp(2, mdAt(40)) // write racing a commit folds into the newest
	if len(vm.V) != 2 || vm.V[0].Meta.Size != 40 || vm.V[0].Epoch != 3 {
		t.Fatalf("racing stamp: %+v", vm.V)
	}
	vm.StampTombstone(5)
	if len(vm.V) != 3 || !vm.V[0].Tombstone || vm.V[0].Epoch != 5 {
		t.Fatalf("tombstone stamp: %+v", vm.V)
	}
	if _, ok := vm.Live(); ok {
		t.Fatal("tombstoned record still live")
	}
}

func TestVersionedCompact(t *testing.T) {
	vm := VersionedMeta{V: []Version{
		{Epoch: 9, Meta: mdAt(900)},
		{Epoch: 6, Meta: mdAt(600)},
		{Epoch: 4, Meta: mdAt(400)},
		{Epoch: 2, Meta: mdAt(200)},
	}}
	// Retain {6, 2}: epoch 6 sees the epoch-6 version, epoch 2 the
	// epoch-2 one; the newest always survives; epoch 4 is unreachable.
	vm.Compact([]uint64{6, 2})
	want := []uint64{9, 6, 2}
	if len(vm.V) != len(want) {
		t.Fatalf("compact kept %d versions: %+v", len(vm.V), vm.V)
	}
	for i, e := range want {
		if vm.V[i].Epoch != e {
			t.Fatalf("compact kept epochs %+v, want %v", vm.V, want)
		}
	}
	// No retained epochs: only the newest survives.
	vm.Compact(nil)
	if len(vm.V) != 1 || vm.V[0].Epoch != 9 {
		t.Fatalf("compact(nil) kept %+v", vm.V)
	}
}

func TestVersionedCompactCap(t *testing.T) {
	var vm VersionedMeta
	var retained []uint64
	for e := uint64(1); e <= MaxVersions+4; e++ {
		vm.Stamp(e, mdAt(int64(e)))
		retained = append(retained, e)
		vm.Compact(retained)
	}
	if len(vm.V) != MaxVersions {
		t.Fatalf("retention window holds %d versions, want cap %d", len(vm.V), MaxVersions)
	}
	if vm.V[0].Epoch != MaxVersions+4 {
		t.Fatalf("cap dropped the newest version: %+v", vm.V)
	}
}

func TestVersionedDecodeRejects(t *testing.T) {
	live := VersionedMeta{V: []Version{{Epoch: 3, Meta: mdAt(1)}, {Epoch: 1, Meta: mdAt(2)}}}
	valid := live.Encode()
	cases := map[string][]byte{
		"empty":                   {},
		"magic only":              {versionedMagic},
		"truncated header":        valid[:5],
		"truncated payload":       valid[:len(valid)-3],
		"bare payload":            valid[1+versionHdrSize : 1+versionHdrSize+metadataWireSize],
		"payload with magic mode": append([]byte{versionedMagic}, bytes.Repeat([]byte{0}, metadataWireSize-1)...),
		"bad mode in payload":     append(append([]byte{versionedMagic}, make([]byte, versionHdrSize)...), append([]byte{7}, make([]byte, metadataWireSize-1)...)...),
		"unknown version flags":   append([]byte{versionedMagic, 0, 0, 0, 0, 0, 0, 0, 0, 2}, make([]byte, metadataWireSize)...),
	}
	nonDecreasing := VersionedMeta{V: []Version{{Epoch: 1, Meta: mdAt(1)}, {Epoch: 3, Meta: mdAt(2)}}}
	// Encode doesn't validate ordering; build the hostile frame by hand.
	bad := []byte{versionedMagic}
	for i := range nonDecreasing.V {
		var hdr [versionHdrSize]byte
		hdr[0] = byte(nonDecreasing.V[i].Epoch)
		bad = append(bad, hdr[:]...)
		bad = append(bad, nonDecreasing.V[i].Meta.Encode()...)
	}
	cases["non-decreasing epochs"] = bad
	for name, frame := range cases {
		if _, err := DecodeVersionedMeta(frame); err == nil {
			t.Errorf("%s: decode accepted a malformed record", name)
		}
	}
}

// FuzzDecodeVersionedMeta throws hostile frames at the versioned record
// decoder. Properties: no panic, no allocation beyond what the frame
// can justify, errors poison the whole record, and every accepted frame
// re-encodes to an identical decode (canonicalization).
func FuzzDecodeVersionedMeta(f *testing.F) {
	single := VersionedMeta{V: []Version{{Meta: mdAt(42)}}}
	f.Add(single.Encode())
	multi := VersionedMeta{V: []Version{
		{Epoch: 7, Meta: mdAt(300)},
		{Epoch: 4, Tombstone: true},
		{Epoch: 1, Meta: mdAt(100)},
	}}
	valid := multi.Encode()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-4]...))
	f.Add([]byte{versionedMagic})
	f.Add([]byte{})
	hostile := []byte{versionedMagic}
	for i := 0; i < MaxVersions+2; i++ { // too many versions
		var hdr [versionHdrSize]byte
		hdr[0] = byte(MaxVersions + 2 - i)
		hdr[8] = versionTombstone
		hostile = append(hostile, hdr[:]...)
	}
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		vm, err := DecodeVersionedMeta(data)
		if err != nil {
			if vm.V != nil {
				t.Fatal("poisoned decode still returned versions")
			}
			return
		}
		if len(vm.V) == 0 || len(vm.V) > MaxVersions {
			t.Fatalf("accepted record holds %d versions", len(vm.V))
		}
		if len(vm.V)*versionHdrSize > len(data) {
			t.Fatalf("decoded %d versions from a %d-byte frame", len(vm.V), len(data))
		}
		for i := 1; i < len(vm.V); i++ {
			if vm.V[i].Epoch >= vm.V[i-1].Epoch {
				t.Fatalf("non-decreasing epochs survived decode: %+v", vm.V)
			}
		}
		// "Live" is not a second resolution: it is the state at epoch ∞.
		liveMD, liveOK := vm.Live()
		if atMD, atOK := vm.At(LiveEpoch); atMD != liveMD || atOK != liveOK {
			t.Fatalf("At(LiveEpoch) = %+v, %v but Live() = %+v, %v on %+v", atMD, atOK, liveMD, liveOK, vm.V)
		}
		re := vm.Encode()
		got, err := DecodeVersionedMeta(re)
		if err != nil {
			t.Fatalf("re-encode does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, vm) {
			t.Fatalf("record changed across re-encode: %+v != %+v", got, vm)
		}
	})
}

// TestAtLiveEpochIsLive is the property the fuzz target also checks, run
// on every build: over random valid histories (and the absent one),
// At(LiveEpoch) and Live() agree, so readers need only At.
func TestAtLiveEpochIsLive(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	histories := []VersionedMeta{{}}
	for i := 0; i < 2000; i++ {
		var vm VersionedMeta
		epoch := uint64(rnd.Intn(4))
		for n := 1 + rnd.Intn(MaxVersions); n > 0; n-- {
			v := Version{Epoch: epoch, Tombstone: rnd.Intn(3) == 0}
			if !v.Tombstone {
				v.Meta = Metadata{Mode: Mode(rnd.Intn(2)), Size: rnd.Int63n(1 << 40), CTimeNS: rnd.Int63(), MTimeNS: rnd.Int63()}
			}
			vm.V = append([]Version{v}, vm.V...)
			epoch += 1 + uint64(rnd.Intn(5))
		}
		if rnd.Intn(8) == 0 {
			vm.V[0].Epoch = LiveEpoch // the largest epoch there is
		}
		enc := vm.Encode()
		dec, err := DecodeVersionedMeta(enc)
		if err != nil {
			t.Fatalf("generated history %+v does not decode: %v", vm.V, err)
		}
		histories = append(histories, dec)
	}
	for _, vm := range histories {
		liveMD, liveOK := vm.Live()
		if atMD, atOK := vm.At(LiveEpoch); atMD != liveMD || atOK != liveOK {
			t.Fatalf("At(LiveEpoch) = %+v, %v but Live() = %+v, %v on %+v", atMD, atOK, liveMD, liveOK, vm.V)
		}
	}
}

// TestTransitionRules pins each rule's outcome and the record it leaves,
// per starting state. (That the daemon reaches these — and only these —
// from both RPC framings is internal/daemon's equivalence table.)
func TestTransitionRules(t *testing.T) {
	file := Metadata{Mode: ModeRegular, Size: 50, CTimeNS: 1, MTimeNS: 2}
	dir := Metadata{Mode: ModeDir, CTimeNS: 1, MTimeNS: 1}
	states := map[string]func() VersionedMeta{
		"absent": func() VersionedMeta { return VersionedMeta{} },
		"file":   func() VersionedMeta { return VersionedMeta{V: []Version{{Epoch: 2, Meta: file}}} },
		"dir":    func() VersionedMeta { return VersionedMeta{V: []Version{{Epoch: 2, Meta: dir}}} },
		"tombstoned": func() VersionedMeta {
			return VersionedMeta{V: []Version{{Epoch: 2, Tombstone: true}, {Epoch: 1, Meta: file}}}
		},
	}
	const epoch = 5
	for _, tc := range []struct {
		state, rule string
		retained    []uint64
		apply       func(vm *VersionedMeta, retained []uint64) Outcome
		want        Outcome
		versions    int // after the rule; refused rules must leave the record alone
	}{
		{"absent", "create", nil, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Create(epoch, r, ModeRegular, 9) }, Put, 1},
		{"file", "create", nil, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Create(epoch, r, ModeRegular, 9) }, Exists, 1},
		{"tombstoned", "create", []uint64{1}, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Create(epoch, r, ModeDir, 9) }, Put, 2},
		{"absent", "remove", nil, func(vm *VersionedMeta, r []uint64) Outcome { _, o := vm.Remove(epoch, r, false); return o }, NotExist, 0},
		{"tombstoned", "remove", nil, func(vm *VersionedMeta, r []uint64) Outcome { _, o := vm.Remove(epoch, r, false); return o }, NotExist, 2},
		{"file", "remove", nil, func(vm *VersionedMeta, r []uint64) Outcome { _, o := vm.Remove(epoch, r, true); return o }, Delete, 1},
		{"file", "remove pinned", []uint64{3}, func(vm *VersionedMeta, r []uint64) Outcome { _, o := vm.Remove(epoch, r, true); return o }, Put, 2},
		{"dir", "remove file-only", nil, func(vm *VersionedMeta, r []uint64) Outcome { _, o := vm.Remove(epoch, r, true); return o }, IsDir, 1},
		{"dir", "remove any", nil, func(vm *VersionedMeta, r []uint64) Outcome { _, o := vm.Remove(epoch, r, false); return o }, Delete, 1},
		{"absent", "truncate", nil, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Truncate(epoch, r, 7, 9) }, NotExist, 0},
		{"dir", "truncate", nil, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Truncate(epoch, r, 7, 9) }, IsDir, 1},
		{"file", "truncate", nil, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Truncate(epoch, r, 7, 9) }, Put, 1},
		{"file", "truncate pinned", []uint64{2}, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Truncate(epoch, r, 7, 9) }, Put, 2},
		{"dir", "grow", nil, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Grow(epoch, 70, 9) }, IsDir, 1},
		{"absent", "grow", nil, func(vm *VersionedMeta, r []uint64) Outcome { return vm.Grow(epoch, 70, 9) }, Put, 1},
	} {
		t.Run(tc.state+"/"+tc.rule, func(t *testing.T) {
			vm := states[tc.state]()
			before := states[tc.state]()
			got := tc.apply(&vm, tc.retained)
			if got != tc.want || len(vm.V) != tc.versions {
				t.Fatalf("outcome %d with %d versions %+v, want outcome %d with %d", got, len(vm.V), vm.V, tc.want, tc.versions)
			}
			if got > Delete && !reflect.DeepEqual(vm, before) {
				t.Fatalf("refused rule changed the record: %+v -> %+v", before.V, vm.V)
			}
		})
	}
	// The truncate a pinned epoch 2 still sees through.
	vm := states["file"]()
	vm.Truncate(epoch, []uint64{2}, 7, 9)
	if md, ok := vm.At(2); !ok || md.Size != 50 {
		t.Fatalf("pinned epoch sees %+v, %v after truncate", md, ok)
	}
	if md, ok := vm.At(LiveEpoch); !ok || md.Size != 7 || md.MTimeNS != 9 || md.CTimeNS != 1 {
		t.Fatalf("live state after truncate = %+v, %v", md, ok)
	}
}
