package quality

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

// oracleDuplicateFraction is the map-based count; the pooled table
// must match it exactly.
func oracleDuplicateFraction(tr *trajectory.Trajectory) float64 {
	if tr.Len() == 0 {
		return 0
	}
	seen := make(map[trajectory.Point]bool, tr.Len())
	dup := 0
	for _, p := range tr.Points {
		if seen[p] {
			dup++
		}
		seen[p] = true
	}
	return float64(dup) / float64(tr.Len())
}

// duplicateCases covers random trajectories with injected repeats plus
// the edge shapes: empty, one point, all duplicates, and points whose
// fields are ±0 or NaN.
func duplicateCases() []*trajectory.Trajectory {
	rng := rand.New(rand.NewSource(21))
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	pt := func(t, x, y float64) trajectory.Point { return trajectory.Point{T: t, Pos: geo.Pt(x, y)} }
	trs := []*trajectory.Trajectory{
		{ID: "empty"},
		{ID: "one", Points: []trajectory.Point{pt(1, 2, 3)}},
		{ID: "one-nan", Points: []trajectory.Point{pt(nan, 2, 3)}},
		{ID: "signed-zero", Points: []trajectory.Point{
			pt(0, 0, 0), pt(negZero, 0, 0), pt(0, negZero, negZero), pt(negZero, negZero, 0), pt(1, 0, negZero)}},
		{ID: "nan", Points: []trajectory.Point{
			pt(nan, 1, 1), pt(nan, 1, 1), pt(1, nan, 1), pt(1, nan, 1), pt(1, 1, nan), pt(1, 1, 1), pt(1, 1, 1)}},
	}
	all := make([]trajectory.Point, 500)
	for i := range all {
		all[i] = pt(7, 8, 9)
	}
	trs = append(trs, &trajectory.Trajectory{ID: "all-dup", Points: all})
	allNaN := make([]trajectory.Point, 300)
	for i := range allNaN {
		allNaN[i] = pt(float64(i%3), nan, 0)
	}
	trs = append(trs, &trajectory.Trajectory{ID: "all-nan", Points: allNaN})
	// Points that share two fields and differ in the third, packed into
	// one table so their probe runs meet.
	for f := 0; f < 3; f++ {
		pts := make([]trajectory.Point, 1000)
		for i := range pts {
			v := [3]float64{1, 2, 3}
			v[f] = float64(i % 700)
			pts[i] = pt(v[0], v[1], v[2])
		}
		trs = append(trs, &trajectory.Trajectory{ID: fmt.Sprintf("vary-field-%d", f), Points: pts})
	}
	specials := []float64{0, negZero, nan, math.Inf(1), math.Inf(-1), 5e-324, 1e300, 1}
	for i := 0; i < 200; i++ {
		n := rng.Intn(3000)
		pts := make([]trajectory.Point, n)
		for j := range pts {
			switch {
			case j > 0 && rng.Intn(4) == 0: // repeat an earlier point
				pts[j] = pts[rng.Intn(j)]
			case i%2 == 1 && rng.Intn(5) == 0:
				pts[j] = pt(specials[rng.Intn(len(specials))], specials[rng.Intn(len(specials))], float64(rng.Intn(3)))
			default:
				pts[j] = pt(float64(j), rng.NormFloat64()*100, float64(rng.Intn(50)))
			}
		}
		trs = append(trs, &trajectory.Trajectory{ID: fmt.Sprintf("r%d", i), Points: pts})
	}
	return trs
}

func TestDuplicateFractionMatchesMapOracle(t *testing.T) {
	for _, tr := range duplicateCases() {
		got, want := duplicateFraction(tr), oracleDuplicateFraction(tr)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (n=%d): duplicateFraction = %v, want %v", tr.ID, tr.Len(), got, want)
		}
	}
}

// TestDuplicateProbeCapFallsBackToMap forces probe runs past the cap
// and checks that the table gives up and the map fallback still counts
// exactly like the oracle.
func TestDuplicateProbeCapFallsBackToMap(t *testing.T) {
	fellBack := 0
	for _, tr := range duplicateCases() {
		if _, ok := tableDuplicates(tr.Points, 0); !ok {
			fellBack++
		}
		want := oracleDuplicateFraction(tr)
		if tr.Len() == 0 {
			continue
		}
		got := float64(duplicateCount(tr.Points, 0)) / float64(tr.Len())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (n=%d): capped count = %v, want %v", tr.ID, tr.Len(), got, want)
		}
	}
	if fellBack == 0 {
		t.Fatal("no case exceeded a probe cap of 0; the fallback path went untested")
	}
	// With the production cap the same inputs never fall back.
	for _, tr := range duplicateCases() {
		if _, ok := tableDuplicates(tr.Points, dupMaxProbe); !ok {
			t.Fatalf("%s (n=%d): fell back at the production probe cap", tr.ID, tr.Len())
		}
	}
}

// TestAssessTrajectoryHammer assesses different trajectories from 8
// goroutines at once through the pooled duplicate tables and checks
// each result against a serial run.
func TestAssessTrajectoryHammer(t *testing.T) {
	cases := duplicateCases()
	ctx := TrajectoryContext{MaxSpeed: 30}
	want := make([]Assessment, len(cases))
	for i, tr := range cases {
		want[i] = AssessTrajectory(tr, ctx)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 40; rep++ {
				i := (g*13 + rep*5) % len(cases)
				got := AssessTrajectory(cases[i], ctx)
				for d, v := range want[i] {
					if gv := got[d]; !(gv == v || (math.IsNaN(gv) && math.IsNaN(v))) {
						t.Errorf("%s: %v = %v, want %v", cases[i].ID, d, gv, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkAssessTrajectory times one trajectory's assessment at the
// clean-batch per-trajectory size (n=75) and at a whole large body
// (n=3000), with the speed bound /v1/clean passes.
func BenchmarkAssessTrajectory(b *testing.B) {
	for _, n := range []int{75, 3000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := simulate.AddGaussianNoise(simulate.RandomWalk("w", region(), n, 2, 1, 5), 8, 6)
			ctx := TrajectoryContext{MaxSpeed: 30}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AssessTrajectory(tr, ctx)
			}
		})
	}
}
