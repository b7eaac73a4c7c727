package rpc_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/rpc"
	"repro/internal/transport"
)

// Ops of the call-shape table.
const (
	opNone rpc.Op = iota + 1 // answers "none" when no region was exposed
	opIn                     // answers with the BulkIn region's bytes
	opOut                    // fills its whole region with 0x5A, commits the first u32(req) bytes
)

func shapeServer() *rpc.Server {
	srv := rpc.NewServer(4)
	srv.Register(opNone, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		if bulk != nil {
			return nil, fmt.Errorf("a %d-byte region was exposed", bulk.Len())
		}
		return []byte("none"), nil
	})
	srv.Register(opIn, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		if bulk == nil {
			return nil, nil
		}
		b, err := bulk.Bytes()
		return append([]byte(nil), b...), err
	})
	srv.Register(opOut, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		if bulk == nil {
			return nil, nil
		}
		w, err := bulk.Writable(bulk.Len())
		if err != nil {
			return nil, err
		}
		for i := range w {
			w[i] = 0x5A
		}
		return nil, bulk.Commit(int(binary.LittleEndian.Uint32(req)))
	})
	return srv
}

// plainConn hides every extension of the Conn it wraps, leaving the one
// contiguous region Call can expose, and counts the calls reaching it.
type plainConn struct {
	rpc.Conn
	calls int
}

func (c *plainConn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	c.calls++
	return c.Conn.Call(op, payload, bulk, dir)
}

// TestOneCallShape runs the one call shape — a window list with a
// direction — through rpc.Call in every direction over zero, one and two
// windows, against a conn with the Vectored extension (the mem conn,
// route "starter") and a plain Conn, which gets the staging fallback.
// Every route must move the exact bytes: a BulkIn handler sees the
// windows' concatenation; a short BulkOut reply fills the windows in
// order and clears every window's tail, whatever the caller left there,
// and nothing outside them; no windows exposes no region. The subtest
// names keep their "split=false" segment, the one call there is.
func TestOneCallShape(t *testing.T) {
	fabric := transport.NewMemNetwork()
	fabric.Register(0, shapeServer())
	mem, err := fabric.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []struct {
		name string
		op   rpc.Op
		dir  rpc.BulkDir
	}{{"none", opNone, rpc.BulkNone}, {"in", opIn, rpc.BulkIn}, {"out", opOut, rpc.BulkOut}}
	for _, route := range []string{"starter", "plain"} {
		for _, d := range dirs {
			for nwin := 0; nwin <= 2; nwin++ {
				t.Run(fmt.Sprintf("%s/split=false/%s/%d", route, d.name, nwin), func(t *testing.T) {
					plain := &plainConn{Conn: mem}
					var c rpc.Conn = plain
					if route == "starter" {
						c = mem
					}
					wins, gaps := shapeWindows(nwin)
					total := 0
					for _, w := range wins {
						total += len(w)
					}
					var want, req []byte
					short := min(150, total) // the first window's tail and all of the second
					switch d.dir {
					case rpc.BulkIn:
						for i, w := range wins {
							for j := range w {
								w[j] = byte(i*131 + j*7 + 1)
							}
							want = append(want, w...)
						}
					case rpc.BulkOut:
						req = binary.LittleEndian.AppendUint32(nil, uint32(short))
					}
					resp, err := rpc.Call(c, d.op, req, wins, d.dir, rpc.Trace{})
					if err != nil {
						t.Fatal(err)
					}
					if route == "plain" && plain.calls != 1 {
						t.Fatalf("the plain Conn saw %d calls, want 1", plain.calls)
					}
					switch d.dir {
					case rpc.BulkNone:
						if string(resp) != "none" {
							t.Fatalf("reply %q, want none", resp)
						}
					case rpc.BulkIn:
						if !bytes.Equal(resp, want) {
							t.Fatal("the handler saw other bytes than the windows held")
						}
					case rpc.BulkOut:
						var got []byte
						for _, w := range wins {
							got = append(got, w...)
						}
						if !bytes.Equal(got[:short], bytes.Repeat([]byte{0x5A}, short)) || !bytes.Equal(got[short:], make([]byte, total-short)) {
							t.Fatalf("the windows are not %d server bytes then zeros", short)
						}
					}
					for _, g := range gaps {
						if !bytes.Equal(g, bytes.Repeat([]byte{0xEE}, len(g))) {
							t.Fatal("the call wrote outside its windows")
						}
					}
				})
			}
		}
	}
}

// shapeWindows cuts n windows (300 and 200 bytes) out of one backing
// array filled with 0xEE, a 16-byte gap before each, and returns the
// windows and the gaps.
func shapeWindows(n int) (wins, gaps [][]byte) {
	all := bytes.Repeat([]byte{0xEE}, 16+300+16+200)
	off := 0
	for _, size := range []int{300, 200}[:n] {
		gaps = append(gaps, all[off:off+16])
		off += 16
		wins = append(wins, all[off:off+size:off+size])
		off += size
	}
	return wins, gaps
}
