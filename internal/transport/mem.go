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
// buffer is handed to the handler as-is, so the handler reads or fills
// the client's bytes in place — the in-process analogue of RDMA.
type memConn struct {
	srv *rpc.Server
}

// outBulk is one call's BulkOut region — the caller's buffer itself —
// remembering how many bytes the handler produced, so the conn can keep
// the carrier's half of the BulkOut contract and clear the rest.
type outBulk struct {
	rpc.SliceBulk
	n int
}

// Commit implements rpc.Bulk.
func (b *outBulk) Commit(n int) error {
	err := b.SliceBulk.Commit(n)
	if err == nil {
		b.n = n
	}
	return err
}

// Call implements rpc.Conn.
func (c *memConn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	return dispatch(c.srv, op, payload, bulk, dir, rpc.Trace{})
}

// CallVector implements rpc.Vectored. In process there is no frame and
// no wire: the whole call runs here, as the staging fallback over the
// dispatcher — one window is the handler's region as it is, a list is
// staged in one pooled region — with the trace handed to the dispatcher
// directly.
func (c *memConn) CallVector(op rpc.Op, payload []byte, bulk [][]byte, dir rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
	return rpc.StagedCall(func(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
		return dispatch(c.srv, op, payload, bulk, dir, tr)
	}, op, payload, bulk, dir)
}

// dispatch runs one call on srv whose region is bulk. The direction only
// decides who clears a BulkOut tail: the handler touches the client's
// buffer directly either way.
func dispatch(srv *rpc.Server, op rpc.Op, payload, bulk []byte, dir rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
	var b rpc.Bulk
	var out *outBulk
	switch {
	case bulk == nil || dir == rpc.BulkNone:
	case dir == rpc.BulkOut:
		out = &outBulk{SliceBulk: bulk}
		b = out
	default:
		b = rpc.SliceBulk(bulk)
	}
	resp, err := srv.DispatchTrace(op, payload, b, tr)
	if err != nil {
		// Keep error semantics identical to the remote case.
		return nil, &rpc.RemoteError{Msg: err.Error()}
	}
	if out != nil {
		clear(bulk[out.n:])
	}
	return resp, nil
}

// Close implements rpc.Conn.
func (c *memConn) Close() error { return nil }
