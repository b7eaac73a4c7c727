package client

import (
	"errors"
	"fmt"
	"strings"
	"time"
	"unicode"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// ErrDaemonMismatch reports a daemon that answered a mount's ping, but
// not as the daemon the mount takes it for:
// another protocol generation, an ID that is not its index in the daemon
// list (every path would be mis-placed), a chunk size that is not the
// mount's (spans would land on the wrong bytes), or an undecodable reply.
// The error text names the daemon and both values.
var ErrDaemonMismatch = errors.New("gekkofs: daemon does not match the mount")

// DaemonInfo is what a ping reveals about one daemon of this client's
// protocol generation.
type DaemonInfo struct {
	// ID is the daemon's index within the cluster's host list.
	ID int
	// ShmSocket is the daemon's shared-memory doorbell path, empty when
	// it serves none.
	ShmSocket string
	// ChunkSize is the chunk size the daemon runs with.
	ChunkSize int64
}

// ProbeDaemon pings a daemon over an established connection — the one
// decoder of the one ping reply shape,
// [errno][u32 id][u16 version][str shm][i64 chunk]. The version is
// checked before anything behind it is decoded, so another generation's
// reply fails with the version message, not a decode error. A transport
// failure is returned as it is; every failure of a daemon that did
// answer is an ErrDaemonMismatch.
func ProbeDaemon(conn rpc.Conn) (DaemonInfo, error) {
	var info DaemonInfo
	payload, err := conn.Call(proto.OpPing, nil, nil, rpc.BulkNone)
	if err != nil {
		return info, err
	}
	d := rpc.NewDec(payload)
	if errno := proto.Errno(d.U16()); errno != proto.OK {
		return info, errno.Err()
	}
	info.ID = int(d.U32())
	if v := d.U16(); d.Err() == nil && v != proto.ProtocolVersion {
		return info, fmt.Errorf("%w: it speaks protocol version %d, this client requires %d",
			ErrDaemonMismatch, v, proto.ProtocolVersion)
	}
	info.ShmSocket = d.Str()
	info.ChunkSize = d.I64()
	if err := d.Done(); err != nil {
		return info, fmt.Errorf("%w: ping reply: %w", ErrDaemonMismatch, err)
	}
	if info.ChunkSize <= 0 {
		return info, fmt.Errorf("%w: ping reply: chunk size %d", ErrDaemonMismatch, info.ChunkSize)
	}
	return info, nil
}

// checkDaemon is what a mount requires of the daemon at index node
// beyond a decodable, same-generation reply: it is that daemon, and its
// chunk size is chunk — from, for the error text, says whose that is.
func checkDaemon(node int, info DaemonInfo, chunk int64, from string) error {
	switch {
	case info.ID != node:
		return fmt.Errorf("mount: ping daemon %d: %w: it answers as daemon %d (every client must list the daemons in -id order)",
			node, ErrDaemonMismatch, info.ID)
	case info.ChunkSize != chunk:
		return fmt.Errorf("mount: ping daemon %d: %w: its chunk size is %d, %s %d",
			node, ErrDaemonMismatch, info.ChunkSize, from, chunk)
	}
	return nil
}

// Target names a deployment to mount: where its daemons are and how to
// reach them. The CLI tools fill it from the shared mount flags
// (internal/cli).
type Target struct {
	// Daemons is the comma-separated daemon address list, in cluster-wide
	// order: responsibilities are resolved by hashing over it, so it must
	// be the same list in the same order for every client.
	Daemons string
	// Transport is DialDaemons' mode: auto, tcp or shm.
	Transport string
	// Conns is the number of striped transport connections per daemon.
	Conns int
	// Timeout bounds one RPC.
	Timeout time.Duration
}

// Mount is the one way a tool becomes a client of a running deployment:
// split the address list, dial every daemon (DialDaemons), build the
// client, verify every daemon is the one the list says it is and learn
// the chunk size from them (VerifyProtocol), and make sure the namespace
// root exists. cfg carries the tunables; its Conns are filled in here,
// its ChunkSize is normally left zero. The returned function closes the
// connections.
func Mount(t Target, cfg Config) (*Client, func(), error) {
	addrs := strings.FieldsFunc(t.Daemons, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if len(addrs) == 0 {
		return nil, nil, errors.New("mount: no daemon addresses given")
	}
	conns, err := DialDaemons(addrs, t.Transport, t.Timeout, t.Conns)
	if err != nil {
		return nil, nil, err
	}
	closeConns := func() {
		for _, conn := range conns {
			conn.Close()
		}
	}
	cfg.Conns = conns
	c, err := New(cfg)
	if err == nil {
		err = c.VerifyProtocol()
	}
	if err == nil {
		err = c.EnsureRoot()
	}
	if err != nil {
		closeConns()
		return nil, nil, err
	}
	return c, closeConns, nil
}

// DialDaemons connects to every daemon address for a mount, selecting the
// transport per daemon according to mode:
//
//	"tcp"  — striped TCP pools, unconditionally.
//	"shm"  — require the shared-memory fast path on every daemon; fail
//	         loudly when one advertises no doorbell or it is unreachable.
//	"auto" — probe each daemon over TCP and switch to the shared-memory
//	         path when the daemon advertises a doorbell that is dialable
//	         from this node and answers as the same daemon; keep TCP
//	         otherwise. This is the node-local detection the paper's
//	         co-located deployments rely on.
//
// An address that cannot be dialed, or does not answer the probe, fails
// the dial, named.
func DialDaemons(addrs []string, mode string, timeout time.Duration, conns int) (out []rpc.Conn, err error) {
	if mode == "" {
		mode = "auto"
	}
	if mode != "auto" && mode != "tcp" && mode != "shm" {
		return nil, fmt.Errorf("client: unknown transport %q (want auto, tcp or shm)", mode)
	}
	defer func() {
		if err != nil {
			for _, c := range out {
				c.Close()
			}
			out = nil
		}
	}()
	for _, a := range addrs {
		conn, err := dialDaemon(a, mode, timeout, conns)
		if err != nil {
			return out, err
		}
		out = append(out, conn)
	}
	return out, nil
}

// dialDaemon connects to one daemon under mode.
func dialDaemon(addr, mode string, timeout time.Duration, conns int) (rpc.Conn, error) {
	tcp, err := transport.DialTCPPool(addr, timeout, conns)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if mode == "tcp" {
		return tcp, nil
	}
	info, err := ProbeDaemon(tcp)
	if err != nil {
		tcp.Close()
		return nil, fmt.Errorf("client: probe %s: %w", addr, err)
	}
	shm, err := dialDoorbell(info, timeout)
	switch {
	case err == nil:
		tcp.Close()
		return shm, nil
	case mode == "shm":
		tcp.Close()
		return nil, fmt.Errorf("client: daemon %s: %w", addr, err)
	}
	// Not co-located (or the doorbell is stale): TCP serves fine.
	return tcp, nil
}

// dialDoorbell takes the shared-memory path a probed daemon advertises.
// The doorbell must answer as the same daemon: its path is only
// meaningful on the daemon's own node, and an unrelated socket at the
// same path on a different node must not be silently mistaken for it.
func dialDoorbell(info DaemonInfo, timeout time.Duration) (rpc.Conn, error) {
	if info.ShmSocket == "" {
		return nil, errors.New("advertises no shared-memory doorbell")
	}
	shm, err := transport.DialShmPool(info.ShmSocket, timeout, 1)
	if err != nil {
		return nil, fmt.Errorf("shm dial %s: %w", info.ShmSocket, err)
	}
	sinfo, err := ProbeDaemon(shm)
	if err == nil && sinfo.ID != info.ID {
		err = fmt.Errorf("answers as daemon %d, expected %d (not co-located?)", sinfo.ID, info.ID)
	}
	if err != nil {
		shm.Close()
		return nil, fmt.Errorf("doorbell %s: %w", info.ShmSocket, err)
	}
	return shm, nil
}
