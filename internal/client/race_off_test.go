//go:build !race

package client

// raceEnabled marks a race-detector build, under which sync.Pool drops a
// random share of what it is given, so allocation counts drift upward.
const raceEnabled = false
