package rpc

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Data-path buffer pooling. Bulk transfers allocate multi-megabyte
// buffers per RPC (the request frame, the daemon's staging buffer, the
// client's concatenated span buffer); recycling them through size-classed
// pools keeps the hot read/write paths allocation-free in steady state.
//
// Buffers are grouped in power-of-two classes from 4 KiB to 128 MiB (one
// class above maxFrame, so a full transfer frame always fits a class).
// GetBuf returns dirty memory: callers that need zeros must clear.

const (
	minBufClass = 12 // 4 KiB
	maxBufClass = 27 // 128 MiB
)

var bufPools [maxBufClass - minBufClass + 1]sync.Pool

// drawObserver, when installed, is told the size of every GetBuf
// request, pooled or fresh. It costs the data path one load of a line
// nobody writes; an always-on counter would bounce its line between
// every core that frames an RPC (measured: +2 % on a small round trip).
var drawObserver atomic.Pointer[func(n int)]

// ObserveDraws installs fn as the observer of GetBuf request sizes and
// returns the function that removes it. It is the instrument of
// cost-pin tests: what a code path draws from the pool is what fn saw
// across it, which is how a test asserts that a path stages nothing.
func ObserveDraws(fn func(n int)) (stop func()) {
	drawObserver.Store(&fn)
	return func() { drawObserver.Store(nil) }
}

func bufClass(n int) int {
	c := bits.Len(uint(n - 1))
	if n <= 1<<minBufClass {
		return minBufClass
	}
	return c
}

// GetBuf returns a buffer of length n (capacity rounded up to the class
// size). Contents are unspecified. Requests beyond the largest class are
// served by plain allocation and dropped on PutBuf.
func GetBuf(n int) []byte {
	if fn := drawObserver.Load(); fn != nil {
		(*fn)(n)
	}
	if n > 1<<maxBufClass {
		return make([]byte, n)
	}
	c := bufClass(n)
	if v := bufPools[c-minBufClass].Get(); v != nil {
		return (*(v.(*[]byte)))[:n]
	}
	return make([]byte, n, 1<<c)
}

// PutBuf recycles a buffer obtained from GetBuf. Buffers whose capacity
// is not an exact class size (grown, sliced oddly, or foreign) are
// silently dropped.
func PutBuf(b []byte) {
	c := cap(b)
	if c < 1<<minBufClass || c > 1<<maxBufClass || c&(c-1) != 0 {
		return
	}
	b = b[:c]
	bufPools[bits.Len(uint(c-1))-minBufClass].Put(&b)
}
