package rpc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncDecRoundTrip(t *testing.T) {
	e := NewEnc(64)
	e.U8(7).U16(300).U32(1 << 20).U64(1 << 40).I64(-42).Str("/path/file").Blob([]byte{1, 2, 3})
	d := NewDec(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := d.U16(); v != 300 {
		t.Fatalf("U16 = %d", v)
	}
	if v := d.U32(); v != 1<<20 {
		t.Fatalf("U32 = %d", v)
	}
	if v := d.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.Str(); v != "/path/file" {
		t.Fatalf("Str = %q", v)
	}
	if v := d.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestEncDecProperty(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64, e int64, s string, blob []byte) bool {
		enc := NewEnc(32)
		enc.U8(a).U16(b).U32(c).U64(d).I64(e).Str(s).Blob(blob)
		dec := NewDec(enc.Bytes())
		ok := dec.U8() == a && dec.U16() == b && dec.U32() == c &&
			dec.U64() == d && dec.I64() == e && dec.Str() == s &&
			bytes.Equal(dec.Blob(), blob)
		return ok && dec.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecTruncation(t *testing.T) {
	e := NewEnc(16)
	e.U64(99).Str("hello")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDec(full[:cut])
		d.U64()
		d.Str()
		if d.Done() == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestDecTrailingBytes(t *testing.T) {
	e := NewEnc(8)
	e.U8(1)
	d := NewDec(append(e.Bytes(), 0xEE))
	d.U8()
	if err := d.Done(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing bytes: Done = %v, want ErrMalformed", err)
	}
}

func TestDecErrSticky(t *testing.T) {
	d := NewDec(nil)
	_ = d.U64() // fails
	if d.Err() == nil {
		t.Fatal("no error recorded")
	}
	if v := d.U32(); v != 0 {
		t.Fatal("reads after error must return zero values")
	}
}
