// Package bufpool is a gkfs-vet fixture exercising the bufpool
// analyzer: leaks on early-return paths and on break and continue out of
// a loop, double releases, use after release, deferred and per-branch
// releases, discarded results, and ownership transfer through a
// //gkfs:owns-buf callee.
package bufpool

import "repro/internal/rpc"

// leakOnError forgets the buffer on the error path.
func leakOnError(fail bool) int {
	buf := rpc.GetBuf(64) // want `rpc\.GetBuf result may not reach rpc\.PutBuf`
	if fail {
		return 0
	}
	n := len(buf)
	rpc.PutBuf(buf)
	return n
}

// deferRelease is the canonical safe shape: release pinned at
// acquisition, good on every path.
func deferRelease(fail bool) int {
	buf := rpc.GetBuf(64)
	defer rpc.PutBuf(buf)
	if fail {
		return 0
	}
	return len(buf)
}

// conditionalRelease releases explicitly on each branch.
func conditionalRelease(short bool) int {
	buf := rpc.GetBuf(64)
	if short {
		rpc.PutBuf(buf)
		return 0
	}
	n := len(buf)
	rpc.PutBuf(buf)
	return n
}

// useAfterRelease touches the buffer after handing it back.
func useAfterRelease() int {
	buf := rpc.GetBuf(64)
	rpc.PutBuf(buf)
	return len(buf) // want `buffer used after rpc\.PutBuf released it back to the pool`
}

// doubleRelease returns the same buffer twice.
func doubleRelease() {
	buf := rpc.GetBuf(64)
	rpc.PutBuf(buf)
	rpc.PutBuf(buf) // want `buffer released twice`
}

// consume takes over the buffer and releases it itself.
//
//gkfs:owns-buf
func consume(b []byte) {
	rpc.PutBuf(b)
}

// transferOwnership hands the buffer to an owning callee; no release is
// owed here.
func transferOwnership() {
	buf := rpc.GetBuf(64)
	consume(buf)
}

// borrowOnly lends the buffer to a plain callee and still owes the
// release.
func borrowOnly() {
	buf := rpc.GetBuf(64) // want `rpc\.GetBuf result may not reach rpc\.PutBuf`
	fill(buf)
}

// discard drops the buffer on the floor.
func discard() {
	rpc.GetBuf(64) // want `rpc\.GetBuf result is discarded`
}

func fill(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// leakByBreak leaves the loop with the buffer still held: the break
// carries its state to the point after the loop.
func leakByBreak(items []int) {
	for range items {
		buf := rpc.GetBuf(64) // want `rpc\.GetBuf result may not reach rpc\.PutBuf`
		if len(buf) == 0 {
			break
		}
		rpc.PutBuf(buf)
	}
}

// leakByContinue skips the release: the continue carries the held
// buffer to the loop's back edge, and from there out of the loop.
func leakByContinue(items []int) {
	for range items {
		buf := rpc.GetBuf(64) // want `rpc\.GetBuf result may not reach rpc\.PutBuf`
		if len(buf) == 0 {
			continue
		}
		rpc.PutBuf(buf)
	}
}

// leakByLabeledBreak leaves the outer loop from inside a switch with the
// buffer still held.
func leakByLabeledBreak(items []int) {
outer:
	for _, it := range items {
		buf := rpc.GetBuf(64) // want `rpc\.GetBuf result may not reach rpc\.PutBuf`
		switch it {
		case 0:
			break outer
		}
		rpc.PutBuf(buf)
	}
}

// releaseThenBreak releases before every way out of the loop.
func releaseThenBreak(items []int) {
	for _, it := range items {
		buf := rpc.GetBuf(64)
		if it == 0 {
			rpc.PutBuf(buf)
			break
		}
		if it == 1 {
			rpc.PutBuf(buf)
			continue
		}
		rpc.PutBuf(buf)
	}
}
