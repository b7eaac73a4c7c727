// Package transport connects rpc clients to rpc servers. The Mem
// transport wires them up in-process with zero-copy bulk transfer — the
// fabric of the in-process test cluster and of same-node client↔daemon
// traffic (the paper's Margo IPC path). One stream connection (stream.go)
// carries the same protocol across real sockets for multi-process
// deployments: TCP with bulk bytes inline, or a co-located shm doorbell
// (shm.go) whose bulk travels by reference through a mapped segment.
package transport

import (
	"fmt"
	"sync"

	"repro/internal/rpc"
)

// MemNetwork is an in-process fabric: a registry of servers addressable by
// node index.
type MemNetwork struct {
	mu      sync.RWMutex
	servers map[int]*rpc.Server
}

// NewMemNetwork returns an empty fabric.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{servers: make(map[int]*rpc.Server)}
}

// Register attaches a server at node id, replacing any previous one.
func (n *MemNetwork) Register(id int, s *rpc.Server) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.servers[id] = s
}

// Dial returns a connection to node id.
func (n *MemNetwork) Dial(id int) (rpc.Conn, error) {
	n.mu.RLock()
	s, ok := n.servers[id]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: no server at node %d", id)
	}
	return &memConn{srv: s}, nil
}

// memConn calls straight into the server's dispatcher. The client's bulk
// buffer is handed to the handler as-is, so a Pull or Push is one memcpy —
// the in-process analogue of RDMA.
type memConn struct {
	srv *rpc.Server
}

// Call implements rpc.Conn. The direction hint is irrelevant in-process:
// the handler touches the client's buffer directly either way.
func (c *memConn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	return c.CallTrace(op, payload, bulk, dir, rpc.Trace{})
}

// CallTrace implements rpc.TraceCaller: in-process there is no frame,
// so the trace is handed to the dispatcher directly.
func (c *memConn) CallTrace(op rpc.Op, payload, bulk []byte, _ rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
	var b rpc.Bulk
	if bulk != nil {
		b = rpc.SliceBulk(bulk)
	}
	resp, err := c.srv.DispatchTrace(op, payload, b, tr)
	if err != nil {
		// Keep error semantics identical to the remote case.
		return nil, &rpc.RemoteError{Msg: err.Error()}
	}
	return resp, nil
}

// Close implements rpc.Conn.
func (c *memConn) Close() error { return nil }
