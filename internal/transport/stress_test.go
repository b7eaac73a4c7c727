package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// TestTCPBulkStress hammers one TCP connection with interleaved bulk
// writes and reads of varying sizes from many goroutines and verifies
// every payload survives the multiplexing.
func TestTCPBulkStress(t *testing.T) {
	srv := rpc.NewServer(16)
	// Echo bulk: read the region, respond with its checksum; for reads,
	// fill it with a deterministic pattern derived from the payload.
	srv.Register(1, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		buf, err := bulk.Bytes()
		if err != nil {
			return nil, err
		}
		var sum uint64
		for _, b := range buf {
			sum += uint64(b)
		}
		return []byte(fmt.Sprintf("%d", sum)), nil
	})
	srv.Register(2, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		seed := req[0]
		out, err := bulk.Writable(bulk.Len())
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = seed + byte(i)
		}
		return []byte("ok"), bulk.Commit(len(out))
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, srv)
	conn, err := DialTCP(l.Addr().String(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []int{1, 100, 4096, 70000, 1 << 20}
			for round := 0; round < 8; round++ {
				size := sizes[(g+round)%len(sizes)]
				// Write path.
				payload := bytes.Repeat([]byte{byte(g + 1)}, size)
				resp, err := conn.Call(1, nil, payload, rpc.BulkIn)
				if err != nil {
					t.Errorf("g%d r%d write: %v", g, round, err)
					return
				}
				want := fmt.Sprintf("%d", uint64(size)*uint64(g+1))
				if string(resp) != want {
					t.Errorf("g%d r%d checksum %s, want %s", g, round, resp, want)
					return
				}
				// Read path.
				buf := make([]byte, size)
				seed := byte(g * 3)
				if _, err := conn.Call(2, []byte{seed}, buf, rpc.BulkOut); err != nil {
					t.Errorf("g%d r%d read: %v", g, round, err)
					return
				}
				for i, b := range buf {
					if b != seed+byte(i) {
						t.Errorf("g%d r%d byte %d = %d, want %d", g, round, i, b, seed+byte(i))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := srv.Stats(); st.Errors != 0 {
		t.Fatalf("server recorded %d handler errors", st.Errors)
	}
}
