//go:build race

package kernel

// raceEnabled reports whether the race detector is active; the long
// single-goroutine sweeps shrink under it, since it adds nothing there.
const raceEnabled = true
