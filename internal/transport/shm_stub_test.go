//go:build !unix

package transport

import (
	"net"
	"testing"

	"repro/internal/rpc"
)

// startShmServer serves nothing on platforms without the shared-memory
// transport: the matrix runs over mem and TCP only.
func startShmServer(testing.TB, *rpc.Server, int) string { return "" }

// rawShm is never reached without a doorbell.
func rawShm(t *testing.T, _ string) net.Conn {
	t.Fatal("no shared-memory doorbell on this platform")
	return nil
}

// platformFakeDaemons likewise adds no by-reference fake daemon.
func platformFakeDaemons(*testing.T, func(net.Conn, bool)) map[string]func() (rpc.Conn, error) {
	return nil
}
