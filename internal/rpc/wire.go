package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire encoding helpers shared by the daemon protocol and the transports:
// little-endian fixed integers plus uvarint-length-prefixed byte strings.

// ErrTruncated reports a message shorter than its own framing claims.
var ErrTruncated = errors.New("rpc: truncated message")

// ErrMalformed reports a message that decodes structurally but fails
// semantic validation (impossible counts, negative lengths, bytes left
// over after the last field).
var ErrMalformed = errors.New("rpc: malformed message")

// Enc builds a wire message.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder with the given capacity hint.
func NewEnc(sizeHint int) *Enc { return &Enc{buf: make([]byte, 0, sizeHint)} }

// Bytes returns the encoded message.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends a byte.
func (e *Enc) U8(v uint8) *Enc {
	e.buf = append(e.buf, v)
	return e
}

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) *Enc {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	return e
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) *Enc {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) *Enc {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	return e
}

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) *Enc { return e.U64(uint64(v)) }

// Str appends a uvarint-length-prefixed string.
func (e *Enc) Str(s string) *Enc {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a uvarint-length-prefixed byte slice.
func (e *Enc) Blob(b []byte) *Enc {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Dec walks a wire message. Methods record the first error; check Err (or
// any later read, which returns zero values) after decoding.
type Dec struct {
	buf []byte
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes, letting decoders
// validate claimed element counts before allocating for them.
func (d *Dec) Remaining() int { return len(d.buf) }

// Corrupt forces the decoder into its sticky error state; callers use it
// when semantic validation of decoded values fails.
func (d *Dec) Corrupt() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	if d.err != nil || len(d.buf) < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Blob reads a length-prefixed byte slice; the result aliases the input
// buffer.
func (d *Dec) Blob() []byte {
	if d.err != nil {
		return nil
	}
	l, n := binary.Uvarint(d.buf)
	if n <= 0 || uint64(len(d.buf)-n) < l {
		d.fail()
		return nil
	}
	b := d.buf[n : n+int(l)]
	d.buf = d.buf[n+int(l):]
	return b
}

// Done verifies the message was fully consumed and error-free.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf))
	}
	return nil
}
