package meta

import (
	"bytes"
	"reflect"
	"testing"
)

func mdAt(size int64) Metadata {
	return Metadata{Mode: ModeRegular, Size: size, CTimeNS: 100, MTimeNS: 200}
}

// TestVersionedSingleRoundTrip pins a history of one version — the shape
// the benchmark's codec probe encodes — through the codec.
func TestVersionedSingleRoundTrip(t *testing.T) {
	md := mdAt(42)
	vm := VersionedMeta{V: []Version{{Meta: md}}}
	enc := vm.Encode()
	if want := 1 + versionHdrSize + metadataWireSize; len(enc) != want || enc[0] != versionedMagic {
		t.Fatalf("one-version history encoded to %d bytes (first %#x), want %d behind the magic", len(enc), enc[0], want)
	}
	got, err := DecodeVersionedMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vm) {
		t.Fatalf("round trip changed record: %+v != %+v", got, vm)
	}
	// The version payload alone is not a history.
	if _, err := DecodeVersionedMeta(md.Encode()); err == nil {
		t.Fatal("a bare 25-byte Metadata payload decoded as a history")
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

// FuzzDecodeVersionedMeta throws hostile frames at the history decoder. Properties: no panic, no allocation beyond what the frame
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
