package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/rpc"
)

// TestTCPBulkStress hammers one TCP connection with interleaved bulk
// writes and reads of varying sizes from many goroutines and verifies
// every payload survives the multiplexing.
func TestTCPBulkStress(t *testing.T) {
	// Bulk writes answer the region's checksum; reads fill it with a
	// pattern derived from the payload.
	srv := newTestServer().Server
	conn := newMatrix(t, srv, 0).mustDial(t, "tcp", 1)

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
				resp, err := conn.Call(opWrite, nil, payload, rpc.BulkIn)
				if err != nil {
					t.Errorf("g%d r%d write: %v", g, round, err)
					return
				}
				want := fmt.Sprintf("%d:%d", size, uint64(size)*uint64(g+1))
				if string(resp) != want {
					t.Errorf("g%d r%d checksum %s, want %s", g, round, resp, want)
					return
				}
				// Read path.
				buf := make([]byte, size)
				seed := byte(g * 3)
				if _, err := conn.Call(opSeedFill, []byte{seed}, buf, rpc.BulkOut); err != nil {
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
