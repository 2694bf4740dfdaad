//go:build race

package outlier

// raceEnabled reports a -race build. The race detector drops some
// sync.Pool puts on purpose, so pool-backed scratch reallocates and
// allocation counts are not stable under it.
const raceEnabled = true
