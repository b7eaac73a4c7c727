package meta

import (
	"testing"
	"testing/quick"
)

func TestMetadataRoundTrip(t *testing.T) {
	m := Metadata{Mode: ModeRegular, Size: 123456789, CTimeNS: 42, MTimeNS: 43}
	got, err := DecodeMetadata(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}
}

func TestMetadataRoundTripProperty(t *testing.T) {
	f := func(mode bool, size, ct, mt int64) bool {
		m := Metadata{Mode: ModeRegular, Size: size, CTimeNS: ct, MTimeNS: mt}
		if mode {
			m.Mode = ModeDir
		}
		got, err := DecodeMetadata(m.Encode())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeMetadataRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 1, 24, 26, 100} {
		if _, err := DecodeMetadata(make([]byte, n)); err == nil {
			t.Errorf("DecodeMetadata accepted %d bytes", n)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeRegular.String() != "file" || ModeDir.String() != "dir" {
		t.Fatalf("unexpected mode strings: %q %q", ModeRegular, ModeDir)
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must still format")
	}
}

func TestIsDir(t *testing.T) {
	d := Metadata{Mode: ModeDir}
	f := Metadata{Mode: ModeRegular}
	if !d.IsDir() || f.IsDir() {
		t.Fatal("IsDir misclassifies")
	}
}

// FuzzDecodeMetadata throws hostile bytes at the decoder every stored
// record and every stat reply goes through. Properties: no panic, only a
// 25-byte frame with a known mode decodes, and an accepted frame
// re-encodes to itself.
func FuzzDecodeMetadata(f *testing.F) {
	file := Metadata{Mode: ModeRegular, Size: 1 << 20, CTimeNS: 1, MTimeNS: 2}
	dir := Metadata{Mode: ModeDir, CTimeNS: 3, MTimeNS: 3}
	f.Add(file.Encode())
	f.Add(dir.Encode())
	f.Add(append([]byte{7}, make([]byte, metadataWireSize-1)...))
	f.Add(file.Encode()[:metadataWireSize-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		md, err := DecodeMetadata(data)
		if err != nil {
			if md != (Metadata{}) {
				t.Fatalf("refused frame still decoded to %+v", md)
			}
			return
		}
		if len(data) != metadataWireSize || !md.Mode.Valid() {
			t.Fatalf("accepted a %d-byte frame with mode %d", len(data), md.Mode)
		}
		if re := md.Encode(); string(re) != string(data) {
			t.Fatalf("re-encode changed the record: %x -> %x", data, re)
		}
	})
}
