//go:build race

package rpc

// raceEnabled skips allocation pins: under the race detector sync.Pool
// drops a random share of what it is given.
const raceEnabled = true
