//go:build !race

package query

// raceEnabled reports whether the race detector is compiled in (its
// instrumentation allocates, so allocation ceilings skip under it).
const raceEnabled = false
