package outlier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/trajectory"
)

// randTrack builds a dirty random walk: mostly smooth motion with
// occasional teleport spikes (speed violations), duplicate timestamps,
// and — when withSpecials — NaN/Inf coordinates.
func randTrack(rng *rand.Rand, n int, withSpecials bool) *trajectory.Trajectory {
	pts := make([]trajectory.Point, n)
	x, y, t := 0.0, 0.0, 0.0
	for i := range pts {
		switch {
		case rng.Intn(12) == 0:
			x += rng.NormFloat64() * 500 // teleport spike
			y += rng.NormFloat64() * 500
		default:
			x += rng.NormFloat64() * 3
			y += rng.NormFloat64() * 3
		}
		if rng.Intn(10) != 0 { // occasionally repeat a timestamp
			t += 1 + rng.Float64()
		}
		px, py := x, y
		if withSpecials && rng.Intn(25) == 0 {
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			px = specials[rng.Intn(len(specials))]
		}
		pts[i] = trajectory.Point{T: t, Pos: geo.Pt(px, py)}
	}
	return trajectory.New(fmt.Sprintf("r%d", n), pts)
}

func TestSpeedConstraintColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var c trajectory.Columns
	var flags []bool
	for trial := 0; trial < 120; trial++ {
		tr := randTrack(rng, rng.Intn(60), trial%4 == 0)
		maxSpeed := []float64{0, 5, 10, 50}[rng.Intn(4)]
		want := SpeedConstraint(tr, maxSpeed)
		c.FromTrajectory(tr)
		flags = SpeedConstraintCols(&c, maxSpeed, flags)
		if len(flags) != len(want) {
			t.Fatalf("trial %d: flag length %d want %d", trial, len(flags), len(want))
		}
		for i := range want {
			if flags[i] != want[i] {
				t.Fatalf("trial %d: flag[%d] = %v, AoS says %v (maxSpeed=%v)",
					trial, i, flags[i], want[i], maxSpeed)
			}
		}
	}
}

func TestStatisticalColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var c trajectory.Columns
	var flags []bool
	for trial := 0; trial < 120; trial++ {
		tr := randTrack(rng, rng.Intn(80), false)
		opt := StatisticalOptions{
			Window:    []int{0, 2, 5}[rng.Intn(3)],
			Threshold: []float64{0, 2.5, 3.5}[rng.Intn(3)],
		}
		want := Statistical(tr, opt)
		c.FromTrajectory(tr)
		flags = StatisticalCols(&c, opt, flags)
		for i := range want {
			if flags[i] != want[i] {
				t.Fatalf("trial %d: flag[%d] = %v, AoS says %v", trial, i, flags[i], want[i])
			}
		}
	}
}

func TestRemoveColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var c, dst trajectory.Columns
	for trial := 0; trial < 60; trial++ {
		tr := randTrack(rng, rng.Intn(40), true)
		flags := make([]bool, rng.Intn(tr.Len()+4)) // may be shorter/longer than tr
		for i := range flags {
			flags[i] = rng.Intn(3) == 0
		}
		want := Remove(tr, flags)
		c.FromTrajectory(tr)
		RemoveCols(&dst, &c, flags)
		if dst.Len() != want.Len() {
			t.Fatalf("trial %d: kept %d want %d", trial, dst.Len(), want.Len())
		}
		for i, p := range want.Points {
			got := dst.At(i)
			if math.Float64bits(got.T) != math.Float64bits(p.T) ||
				math.Float64bits(got.Pos.X) != math.Float64bits(p.Pos.X) ||
				math.Float64bits(got.Pos.Y) != math.Float64bits(p.Pos.Y) {
				t.Fatalf("trial %d: sample %d diverged", trial, i)
			}
		}
	}
}

// TestColumnarDetectorsReuseAllocFree pins the steady-state contract:
// with warm flag buffers and pooled scratch, the columnar detectors do
// not allocate.
func TestColumnarDetectorsReuseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so pooled scratch reallocates")
	}
	tr := randTrack(rand.New(rand.NewSource(24)), 256, false)
	var c trajectory.Columns
	c.FromTrajectory(tr)
	flags := SpeedConstraintCols(&c, 10, nil)
	flags2 := StatisticalCols(&c, StatisticalOptions{}, nil)
	allocs := testing.AllocsPerRun(30, func() {
		flags = SpeedConstraintCols(&c, 10, flags)
		flags2 = StatisticalCols(&c, StatisticalOptions{}, flags2)
	})
	if allocs != 0 {
		t.Fatalf("warm columnar detectors allocated %.1f times/op, want 0", allocs)
	}
}
