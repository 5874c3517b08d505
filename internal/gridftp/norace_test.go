//go:build !race

package gridftp

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
