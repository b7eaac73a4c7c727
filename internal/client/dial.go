package client

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// DaemonInfo is what a mount-time ping reveals about one daemon.
type DaemonInfo struct {
	// ID is the daemon's index within the cluster's host list.
	ID int
	// Version is the daemon's protocol generation.
	Version uint16
	// ShmSocket is the daemon's shared-memory doorbell path, empty when
	// it serves none.
	ShmSocket string
}

// ProbeDaemon pings a daemon over an established connection and decodes
// its identity, protocol generation and shared-memory advertisement —
// the one ping reply shape, [errno][u32 id][u16 version][str shm].
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
	info.Version = d.U16()
	info.ShmSocket = d.Str()
	return info, d.Done()
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
// The same-identity check matters: a doorbell path is only meaningful on
// the daemon's own node, and an unrelated socket at the same path on a
// different node must not be silently mistaken for the daemon.
//
// replicas is the mount's chunk replication factor: with replicas > 1 up
// to replicas−1 unreachable daemons do not fail the dial — each dead
// address gets a lazily re-dialing TCP pool instead (the next call, or a
// background re-probe once the client condemns it, redials), so a
// cluster that lost a daemon can still be mounted to reach the surviving
// replicas. VerifyProtocol on the resulting client performs the actual
// tolerate-or-fail accounting; 0 or 1 keeps the fail-fast behavior.
func DialDaemons(addrs []string, mode string, timeout time.Duration, conns, replicas int) ([]rpc.Conn, error) {
	if mode == "" {
		mode = "auto"
	}
	if mode != "auto" && mode != "tcp" && mode != "shm" {
		return nil, fmt.Errorf("client: unknown transport %q (want auto, tcp or shm)", mode)
	}
	out := make([]rpc.Conn, 0, len(addrs))
	closeAll := func() {
		for _, c := range out {
			c.Close()
		}
	}
	// lazyTCP returns a pool that dials on first use: the slot a dead
	// daemon occupies until it comes back.
	lazyTCP := func(addr string) rpc.Conn {
		return transport.NewPool(conns, func() (rpc.Conn, error) {
			return transport.DialTCP(addr, timeout)
		})
	}
	deadBudget := replicas - 1
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		tcp, err := transport.DialTCPPool(a, timeout, conns)
		if err != nil {
			if deadBudget > 0 {
				deadBudget--
				out = append(out, lazyTCP(a))
				continue
			}
			closeAll()
			return nil, fmt.Errorf("client: dial %s: %w", a, err)
		}
		if mode == "tcp" {
			out = append(out, tcp)
			continue
		}
		info, err := ProbeDaemon(tcp)
		if err != nil {
			tcp.Close()
			if deadBudget > 0 && mode != "shm" {
				deadBudget--
				out = append(out, lazyTCP(a))
				continue
			}
			closeAll()
			return nil, fmt.Errorf("client: probe %s: %w", a, err)
		}
		if info.ShmSocket == "" {
			if mode == "shm" {
				tcp.Close()
				closeAll()
				return nil, fmt.Errorf("client: daemon %s advertises no shared-memory doorbell", a)
			}
			out = append(out, tcp)
			continue
		}
		shm, err := transport.DialShmPool(info.ShmSocket, timeout, 1)
		if err == nil {
			var sinfo DaemonInfo
			sinfo, err = ProbeDaemon(shm)
			if err == nil && sinfo.ID != info.ID {
				err = fmt.Errorf("client: doorbell %s answers as daemon %d, expected %d (not co-located?)",
					info.ShmSocket, sinfo.ID, info.ID)
			}
			if err != nil {
				shm.Close()
			}
		}
		if err != nil {
			if mode == "shm" {
				tcp.Close()
				closeAll()
				return nil, fmt.Errorf("client: shm dial %s (daemon %s): %w", info.ShmSocket, a, err)
			}
			// Not co-located (or the doorbell is stale): TCP serves fine.
			out = append(out, tcp)
			continue
		}
		tcp.Close()
		out = append(out, shm)
	}
	return out, nil
}
