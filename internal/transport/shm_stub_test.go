//go:build !unix

package transport

import (
	"net"
	"testing"

	"repro/internal/rpc"
)

// platformConns adds nothing on platforms without the shared-memory
// transport; the generic suite runs over mem and TCP only.
func platformConns(*testing.T, *rpc.Server) map[string]rpc.Conn { return nil }

// platformTargets and platformFakeDaemons likewise add no by-reference
// listener to the hostile-frame tables.
func platformTargets(*testing.T, *rpc.Server) []wireTarget { return nil }

func platformFakeDaemons(*testing.T, func(net.Conn, bool)) map[string]func() (rpc.Conn, error) {
	return nil
}

// dialBenchShm reports that the by-reference carrier is unavailable.
func dialBenchShm(*testing.B) rpc.Conn { return nil }
