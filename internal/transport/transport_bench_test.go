package transport

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
)

// Transport-level round-trip benchmarks: the same two ops — a BulkIn
// region consumed in place and a BulkOut window committed in place —
// driven over each wire backend, so the MB/s difference is the
// transport tier alone: no client span logic, no chunk store, handlers
// that cost the same everywhere. BenchmarkShmRoundTrip (unix only) is
// the co-located half of the comparison.

const (
	opBenchSink rpc.Op = 100 + iota // BulkIn: handler takes the wire region in place
	opBenchFill                     // BulkOut: handler commits the whole window
)

func newBenchServer() *rpc.Server {
	s := rpc.NewServer(8)
	s.Register(opBenchSink, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		if _, err := bulk.Bytes(); err != nil {
			return nil, err
		}
		return nil, nil
	})
	s.Register(opBenchFill, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		if _, err := bulk.Writable(bulk.Len()); err != nil {
			return nil, err
		}
		return nil, bulk.Commit(bulk.Len())
	})
	return s
}

// benchRoundTrip drives both bulk directions at a sub-chunk and a
// multi-megabyte size with GOMAXPROCS concurrent callers per case.
func benchRoundTrip(b *testing.B, c rpc.Conn) {
	cases := []struct {
		name string
		op   rpc.Op
		dir  rpc.BulkDir
	}{{"in", opBenchSink, rpc.BulkIn}, {"out", opBenchFill, rpc.BulkOut}}
	for _, size := range []int{64 << 10, 4 << 20} {
		for _, tc := range cases {
			b.Run(fmt.Sprintf("%s-%dKiB", tc.name, size>>10), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					buf := make([]byte, size)
					for pb.Next() {
						if _, err := c.Call(tc.op, nil, buf, tc.dir); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// benchBulkOutScatter moves two 512 KiB spans — one prefetch group of
// the client's read path — into two separate buffers, the way a
// connection without the scatter extension does it (one pooled
// contiguous region, then a copy per window: rpc.CallScatter's fallback,
// reached by hiding the extension) and as a scatter list. The difference
// is the client-side pass over every byte the list removes.
func benchBulkOutScatter(b *testing.B, c rpc.Conn) {
	const span = 512 << 10
	dest := [][]byte{make([]byte, span), make([]byte, span)}
	for _, tc := range []struct {
		name string
		conn rpc.Conn
	}{{"contiguous+copy", struct{ rpc.Conn }{c}}, {"scatter", c}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(2 * span)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rpc.CallScatter(tc.conn, opBenchFill, nil, dest, rpc.Trace{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dialBenchTCP serves newBenchServer on loopback TCP and dials it with
// a pool of n connections.
func dialBenchTCP(b *testing.B, n int) rpc.Conn {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	go ServeTCP(l, newBenchServer())
	c, err := DialTCPPool(l.Addr().String(), 60*time.Second, n)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func BenchmarkBulkOutScatter(b *testing.B) {
	b.Run("tcp", func(b *testing.B) { benchBulkOutScatter(b, dialBenchTCP(b, 1)) })
	if c := dialBenchShm(b); c != nil {
		b.Run("shm", func(b *testing.B) { benchBulkOutScatter(b, c) })
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	benchRoundTrip(b, dialBenchTCP(b, 4))
}
