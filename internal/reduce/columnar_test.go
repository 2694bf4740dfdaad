package reduce

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/trajectory"
)

func randWalkTrack(rng *rand.Rand, n int) *trajectory.Trajectory {
	pts := make([]trajectory.Point, n)
	x, y, t := 0.0, 0.0, 0.0
	for i := range pts {
		x += rng.NormFloat64() * 5
		y += rng.NormFloat64() * 5
		if rng.Intn(12) != 0 { // keep some duplicate timestamps
			t += 1 + rng.Float64()
		}
		pts[i] = trajectory.Point{T: t, Pos: geo.Pt(x, y)}
	}
	return trajectory.New(fmt.Sprintf("w%d", n), pts)
}

// TestDouglasPeuckerSEDColsMatchesAoS pins the columnar iterative
// simplifier against the recursive AoS form bit for bit across random
// tracks, epsilons, and degenerate (equal-timestamp) chords.
func TestDouglasPeuckerSEDColsMatchesAoS(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var c, dst trajectory.Columns
	for trial := 0; trial < 150; trial++ {
		tr := randWalkTrack(rng, rng.Intn(120))
		eps := []float64{0, 0.5, 2, 10, 50}[rng.Intn(5)]
		want := DouglasPeuckerSED(tr, eps)
		c.FromTrajectory(tr)
		DouglasPeuckerSEDCols(&dst, &c, eps)
		if dst.Len() != want.Len() {
			t.Fatalf("trial %d (eps=%v): kept %d points, AoS kept %d",
				trial, eps, dst.Len(), want.Len())
		}
		for i, p := range want.Points {
			got := dst.At(i)
			if math.Float64bits(got.T) != math.Float64bits(p.T) ||
				math.Float64bits(got.Pos.X) != math.Float64bits(p.Pos.X) ||
				math.Float64bits(got.Pos.Y) != math.Float64bits(p.Pos.Y) {
				t.Fatalf("trial %d (eps=%v): kept sample %d diverged", trial, eps, i)
			}
		}
	}
}

// TestDouglasPeuckerSEDColsReuseAllocFree pins the steady-state
// contract: warm destination columns plus pooled keep/stack scratch
// means zero allocations per simplification.
func TestDouglasPeuckerSEDColsReuseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so pooled scratch reallocates")
	}
	tr := randWalkTrack(rand.New(rand.NewSource(32)), 300)
	var c, dst trajectory.Columns
	c.FromTrajectory(tr)
	DouglasPeuckerSEDCols(&dst, &c, 5) // warm pools and dst
	allocs := testing.AllocsPerRun(30, func() {
		DouglasPeuckerSEDCols(&dst, &c, 5)
	})
	if allocs != 0 {
		t.Fatalf("warm DouglasPeuckerSEDCols allocated %.1f times/op, want 0", allocs)
	}
}
