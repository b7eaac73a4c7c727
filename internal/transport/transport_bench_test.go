package transport

import (
	"fmt"
	"testing"

	"repro/internal/rpc"
)

// Transport-level round-trip benchmarks: the same two ops — a BulkIn
// region consumed in place and a BulkOut window committed in place —
// driven over each wire backend, so the MB/s difference is the
// transport tier alone: no client span logic, no chunk store, handlers
// that cost the same everywhere. BenchmarkShmRoundTrip (unix only) is
// the co-located half of the comparison.

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
// connection without the Vectored extension does it (one pooled
// contiguous region, then a copy per window: rpc.Call's staging
// fallback, reached by hiding the extension) and as a scatter list. The difference
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
				if _, err := rpc.Call(tc.conn, opBenchFill, nil, dest, rpc.BulkOut, rpc.Trace{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBulkOutScatter(b *testing.B) {
	m := newMatrix(b, newTestServer().Server, 0)
	b.Run("tcp", func(b *testing.B) { benchBulkOutScatter(b, m.mustDial(b, "tcp-pool", 1)) })
	if m.shm != "" {
		b.Run("shm", func(b *testing.B) { benchBulkOutScatter(b, m.mustDial(b, "shm-pool", 1)) })
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	benchRoundTrip(b, newMatrix(b, newTestServer().Server, 0).mustDial(b, "tcp-pool", 4))
}
