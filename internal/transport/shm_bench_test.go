//go:build unix

package transport

import (
	"testing"
	"time"

	"repro/internal/rpc"
)

// dialBenchShm serves newBenchServer on a fresh doorbell and dials it;
// nil means the platform (or sandbox) has no usable segment path.
func dialBenchShm(b *testing.B) rpc.Conn {
	b.Helper()
	c, err := DialShmPool(startShmServer(b, newBenchServer(), 0), 60*time.Second, 1)
	if err != nil {
		return nil
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkShmRoundTrip is the co-located half of the transport-level
// comparison (see transport_bench_test.go): identical ops and sizes as
// BenchmarkTCPRoundTrip, but the bulk bytes move through the mapped
// segment and only headers cross the doorbell socket.
func BenchmarkShmRoundTrip(b *testing.B) {
	c := dialBenchShm(b)
	if c == nil {
		b.Skip("shm transport unavailable")
	}
	benchRoundTrip(b, c)
}
