//go:build !race

package outlier

const raceEnabled = false
