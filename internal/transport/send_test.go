package transport

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/rpc"
)

// gatherList cuts windows of the given sizes out of one backing array,
// a gap before each, and fills them with a pattern. want is what a
// handler must see: the windows' bytes, concatenated.
func gatherList(sizes ...int) (wins [][]byte, want []byte) {
	const gap = 64
	total := 0
	for _, n := range sizes {
		total += gap + n
	}
	backing := bytes.Repeat([]byte{0xEE}, total)
	off := 0
	for i, n := range sizes {
		off += gap
		w := backing[off : off+n : off+n]
		for j := range w {
			w[j] = byte(i*131 + j*7)
		}
		wins = append(wins, w)
		want = append(want, w...)
		off += n
	}
	return wins, want
}

// TestSendWaitTimesOutAndDrainsLateReply is TestTCPTimeout's shape for a
// vectored call, on both carriers: a call that outlives the timeout
// fails with ErrTimeout, the late reply is drained, and the connection
// carries the next vectored call. On the doorbell the slow call's window
// is the whole segment, so the next one can only be placed once the late
// reply proved its window quiescent.
func TestSendWaitTimesOutAndDrainsLateReply(t *testing.T) {
	for _, tg := range wireTargets(t, newTestServer().Server) {
		t.Run(tg.name, func(t *testing.T) {
			c, err := tg.dial(30 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			size := 64 << 10
			if tg.ref {
				size = targetSeg
			}
			wins, _ := gatherList(size/2, size-size/2)
			if _, err := rpc.Call(c, opSlow, nil, wins, rpc.BulkIn, rpc.Trace{}); !errors.Is(err, ErrTimeout) {
				t.Fatalf("slow vectored call: err = %v, want ErrTimeout", err)
			}
			wins, want := gatherList(size/2, size-size/2)
			for deadline := time.Now().Add(10 * time.Second); ; {
				got, err := rpc.Call(c, opBulkEcho, nil, wins, rpc.BulkIn, rpc.Trace{})
				if err == nil {
					if !bytes.Equal(got, want) {
						t.Fatal("post-timeout vectored call delivered the wrong bytes")
					}
					return
				}
				if !errors.Is(err, ErrTimeout) || time.Now().After(deadline) {
					t.Fatalf("post-timeout vectored call: %v", err)
				}
			}
		})
	}
}

// TestSendConnectionDiesBetweenSendAndWait makes three concurrent
// vectored calls to a daemon that reads them and dies before answering.
// Each call gets its one delivery — the connection's failure, not a
// timeout — and the dead connection refuses the next call before a byte
// of it is written, as a call it would never run again.
func TestSendConnectionDiesBetweenSendAndWait(t *testing.T) {
	const calls = 3
	died := make(chan struct{}, 2) // one per carrier; each fake daemon runs once, when dialed
	daemons := fakeDaemons(t, func(c net.Conn, _ bool) {
		for i := 0; i < calls; i++ {
			if _, err := readRawFrameID(c); err != nil {
				break
			}
		}
		c.Close()
		died <- struct{}{}
	})
	for name, dial := range daemons {
		t.Run(name, func(t *testing.T) {
			c, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			done := make(chan error, calls)
			for i := 0; i < calls; i++ {
				go func() {
					wins, _ := gatherList(4<<10, 100)
					_, err := rpc.Call(c, opWrite, nil, wins, rpc.BulkIn, rpc.Trace{})
					done <- err
				}()
			}
			select {
			case <-died:
			case <-time.After(5 * time.Second):
				t.Fatal("the fake daemon never read the calls")
			}
			for i := 0; i < calls; i++ {
				select {
				case err := <-done:
					if err == nil || errors.Is(err, ErrTimeout) {
						t.Fatalf("call after the daemon died: %v, want the connection's failure", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("call %d of %d hung after the daemon died", i+1, calls)
				}
			}
			wins, _ := gatherList(100)
			var unsent *unsentError
			if _, err := rpc.Call(c, opWrite, nil, wins, rpc.BulkIn, rpc.Trace{}); !errors.As(err, &unsent) {
				t.Fatalf("call on the dead connection: %v, want it refused unsent", err)
			}
		})
	}
}

// TestHostileResponseFailsSplitCall answers a vectored call with corrupt
// responses on every carrier: the call must end in a connection error —
// not a panic, a hang or a success — and the connection must be
// condemned.
func TestHostileResponseFailsSplitCall(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		respond func(id uint64, ref bool) []byte
	}{
		// plen = 0xFFFFFFFE: plen+4 wraps to 2.
		{"payload-len-wrap", "truncated", func(id uint64, _ bool) []byte { return rawResponse(id, 0xFFFFFFFE, 0, false, 8) }},
		// A BulkIn call exposes no region for the reply to fill.
		{"bulk-to-bulk-in", "response bulk 4096 exceeds exposed region 0", func(id uint64, ref bool) []byte {
			if ref {
				return rawResponse(id, 0, 4096, true, 0)
			}
			return rawResponse(id, 0, 4096, true, 4096)
		}},
		// The reply's payload is cut short by the daemon's death.
		{"truncated-payload", "", func(id uint64, _ bool) []byte {
			f := rawResponse(id, 64, 0, true, 64)
			return f[:len(f)-40]
		}},
	}
	for _, tc := range cases {
		daemons := fakeDaemons(t, func(c net.Conn, ref bool) {
			if id, err := readRawFrameID(c); err == nil {
				c.Write(tc.respond(id, ref))
			}
		})
		for name, dial := range daemons {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				c, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				wins, _ := gatherList(8<<10, 8<<10)
				if _, err := rpc.Call(c, opWrite, nil, wins, rpc.BulkIn, rpc.Trace{}); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("corrupt response: err = %v, want one containing %q", err, tc.want)
				}
				if _, err := c.Call(opEcho, []byte("y"), nil, rpc.BulkNone); err == nil {
					t.Fatal("condemned connection accepted another call")
				}
			})
		}
	}
}
