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

// scribble overwrites every window, as a caller reusing its buffer does.
func scribble(wins [][]byte) {
	for _, w := range wins {
		for i := range w {
			w[i] = 0xFF
		}
	}
}

// TestSendReturnsWithGatherListFree pins rpc.Starter's BulkIn contract
// on every carrier: once Start returns, the caller may overwrite its
// windows at once and the handler still sees the original bytes. The
// list is larger than a socket buffer, so a send that returned before its
// writev finished would hand the daemon scribbled bytes. The mem conn
// runs the whole call in Start, through the staging fallback's region.
func TestSendReturnsWithGatherListFree(t *testing.T) {
	for name, c := range conns(t, newTestServer().Server) {
		t.Run(name, func(t *testing.T) {
			if _, ok := c.(rpc.Starter); !ok {
				t.Fatalf("%s cannot split a call at the send", name)
			}
			wins, want := gatherList(1<<20+7, 513<<10, 2<<20)
			r, err := rpc.Start(c, opBulkEcho, nil, wins, rpc.BulkIn, rpc.Trace{})
			if err != nil {
				t.Fatal(err)
			}
			scribble(wins)
			got, err := r.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the handler saw bytes the caller wrote after Send returned")
			}
		})
	}
}

// TestSendWaitTimesOutAndDrainsLateReply is TestTCPTimeout's shape for a
// split call, on both carriers: a wait that outlives the timeout fails
// with ErrTimeout, the late reply is drained, and the connection carries
// the next split call. On the doorbell the slow call's window is the
// whole segment, so the next one can only be placed once the late reply
// proved its window quiescent.
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
			r, err := rpc.Start(c, opSlow, nil, wins, rpc.BulkIn, rpc.Trace{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Wait(); !errors.Is(err, ErrTimeout) {
				t.Fatalf("slow split call: err = %v, want ErrTimeout", err)
			}
			wins, want := gatherList(size/2, size-size/2)
			for deadline := time.Now().Add(10 * time.Second); ; {
				r, err := rpc.Start(c, opBulkEcho, nil, wins, rpc.BulkIn, rpc.Trace{})
				var got []byte
				if err == nil {
					got, err = r.Wait()
				}
				if err == nil {
					if !bytes.Equal(got, want) {
						t.Fatal("post-timeout split call delivered the wrong bytes")
					}
					return
				}
				if !errors.Is(err, ErrTimeout) || time.Now().After(deadline) {
					t.Fatalf("post-timeout split call: %v", err)
				}
			}
		})
	}
}

// TestSendConnectionDiesBetweenSendAndWait sends three split calls to a
// daemon that reads them and dies before answering. Each wait gets its
// call's one delivery — the connection's failure, not a timeout — and
// the dead connection refuses the next send before a byte of it is
// written, as a call it would never run again.
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
			var replies []rpc.Reply
			for i := 0; i < calls; i++ {
				wins, _ := gatherList(4<<10, 100)
				r, err := rpc.Start(c, opWrite, nil, wins, rpc.BulkIn, rpc.Trace{})
				if err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				replies = append(replies, r)
			}
			select {
			case <-died:
			case <-time.After(5 * time.Second):
				t.Fatal("the fake daemon never read the sends")
			}
			for i, r := range replies {
				done := make(chan error, 1)
				go func() {
					_, err := r.Wait()
					done <- err
				}()
				select {
				case err := <-done:
					if err == nil || errors.Is(err, ErrTimeout) {
						t.Fatalf("wait %d after the daemon died: %v, want the connection's failure", i, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("wait %d hung after the daemon died", i)
				}
			}
			wins, _ := gatherList(100)
			var unsent *unsentError
			if _, err := rpc.Start(c, opWrite, nil, wins, rpc.BulkIn, rpc.Trace{}); !errors.As(err, &unsent) {
				t.Fatalf("send on the dead connection: %v, want it refused unsent", err)
			}
		})
	}
}

// TestHostileResponseFailsSplitCall answers a split call with corrupt
// responses on every carrier: its wait must end in a connection error —
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
				r, err := rpc.Start(c, opWrite, nil, wins, rpc.BulkIn, rpc.Trace{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Wait(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("corrupt response: err = %v, want one containing %q", err, tc.want)
				}
				if _, err := c.Call(opEcho, []byte("y"), nil, rpc.BulkNone); err == nil {
					t.Fatal("condemned connection accepted another call")
				}
			})
		}
	}
}
