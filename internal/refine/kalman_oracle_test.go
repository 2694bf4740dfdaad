package refine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/stats"
	"sidq/internal/trajectory"
)

// oracleKalman is the generic constant-velocity Kalman filter, written
// on the allocating stats.Matrix operations. The fixed-shape production
// Kalman must match it bit for bit, with any NaN equal to any NaN.
type oracleKalman struct {
	x, p *stats.Matrix
	q, r float64
}

var (
	oracleH  = stats.MatrixFrom(2, 4, 1, 0, 0, 0, 0, 1, 0, 0)
	oracleHT = oracleH.Transpose()
	oracleI4 = stats.Identity(4)
)

func newOracleKalman(pos geo.Point, q, r float64) *oracleKalman {
	if q <= 0 {
		q = 1
	}
	if r <= 0 {
		r = 1
	}
	return &oracleKalman{
		x: stats.MatrixFrom(4, 1, pos.X, pos.Y, 0, 0),
		p: stats.Identity(4).ScaleBy(100),
		q: q, r: r,
	}
}

func oracleTransition(dt float64) *stats.Matrix {
	return stats.MatrixFrom(4, 4,
		1, 0, dt, 0,
		0, 1, 0, dt,
		0, 0, 1, 0,
		0, 0, 0, 1,
	)
}

func oracleProcessNoise(dt, q float64) *stats.Matrix {
	dt2 := dt * dt
	dt3 := dt2 * dt / 3
	half := dt2 / 2
	m := stats.MatrixFrom(4, 4,
		dt3, 0, half, 0,
		0, dt3, 0, half,
		half, 0, dt, 0,
		0, half, 0, dt,
	)
	for i := range m.Data {
		m.Data[i] *= q
	}
	return m
}

func (k *oracleKalman) predict(dt float64) {
	if dt <= 0 {
		return
	}
	f := oracleTransition(dt)
	k.x = f.Mul(k.x)
	k.p = f.Mul(k.p).Mul(f.Transpose()).Add(oracleProcessNoise(dt, k.q))
}

func (k *oracleKalman) update(obs geo.Point) {
	y := stats.MatrixFrom(2, 1, obs.X-k.x.At(0, 0), obs.Y-k.x.At(1, 0))
	s := oracleH.Mul(k.p).Mul(oracleHT).Add(stats.Identity(2).ScaleBy(k.r * k.r))
	sInv, err := s.Inverse()
	if err != nil {
		return
	}
	gain := k.p.Mul(oracleHT).Mul(sInv)
	k.x = k.x.Add(gain.Mul(y))
	k.p = oracleI4.Sub(gain.Mul(oracleH)).Mul(k.p)
}

func (k *oracleKalman) position() geo.Point { return geo.Pt(k.x.At(0, 0), k.x.At(1, 0)) }
func (k *oracleKalman) velocity() geo.Point { return geo.Pt(k.x.At(2, 0), k.x.At(3, 0)) }

func (k *oracleKalman) innovation(dt float64, obs geo.Point) float64 {
	pred := oracleTransition(dt).Mul(k.x)
	return obs.Dist(geo.Pt(pred.At(0, 0), pred.At(1, 0)))
}

func oracleFilter(tr *trajectory.Trajectory, q, r float64) []geo.Point {
	if tr.Len() == 0 {
		return nil
	}
	k := newOracleKalman(tr.Points[0].Pos, q, r)
	prevT := tr.Points[0].T
	var out []geo.Point
	for i, p := range tr.Points {
		if i > 0 {
			k.predict(math.Max(p.T-prevT, 1e-9))
		}
		k.update(p.Pos)
		prevT = p.T
		out = append(out, k.position())
	}
	return out
}

func oracleSmooth(tr *trajectory.Trajectory, q, r float64) []geo.Point {
	n := tr.Len()
	if n == 0 {
		return nil
	}
	xPred := make([]*stats.Matrix, n)
	pPred := make([]*stats.Matrix, n)
	xFilt := make([]*stats.Matrix, n)
	pFilt := make([]*stats.Matrix, n)
	fs := make([]*stats.Matrix, n)
	k := newOracleKalman(tr.Points[0].Pos, q, r)
	prevT := tr.Points[0].T
	for i, p := range tr.Points {
		if i == 0 {
			fs[i] = stats.Identity(4)
		} else {
			dt := math.Max(p.T-prevT, 1e-9)
			fs[i] = oracleTransition(dt)
			k.predict(dt)
		}
		xPred[i], pPred[i] = k.x.Clone(), k.p.Clone()
		k.update(p.Pos)
		xFilt[i], pFilt[i] = k.x.Clone(), k.p.Clone()
		prevT = p.T
	}
	xs := make([]*stats.Matrix, n)
	ps := make([]*stats.Matrix, n)
	xs[n-1], ps[n-1] = xFilt[n-1], pFilt[n-1]
	for i := n - 2; i >= 0; i-- {
		predInv, err := pPred[i+1].Inverse()
		if err != nil {
			xs[i], ps[i] = xFilt[i], pFilt[i]
			continue
		}
		c := pFilt[i].Mul(fs[i+1].Transpose()).Mul(predInv)
		xs[i] = xFilt[i].Add(c.Mul(xs[i+1].Sub(xPred[i+1])))
		ps[i] = pFilt[i].Add(c.Mul(ps[i+1].Sub(pPred[i+1])).Mul(c.Transpose()))
	}
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Pt(xs[i].At(0, 0), xs[i].At(1, 0))
	}
	return out
}

// sameFloat is bit equality with every NaN equal to every NaN: a NaN's
// sign and payload print the same in CSV and carry no information.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func samePoint(a, b geo.Point) bool { return sameFloat(a.X, b.X) && sameFloat(a.Y, b.Y) }

// kalmanParams are the (q, r) pairs the differential tests sweep,
// including the non-positive values NewKalman replaces with 1 and the
// non-finite ones it passes through.
var kalmanParams = [][2]float64{
	{1, 8}, {0.5, 2}, {0.05, 30}, {4, 0.5}, {0, 0}, {-1, -3}, {1e-9, 1e6},
	{math.Inf(1), 8}, {1, math.Inf(1)}, {math.NaN(), 1}, {1, math.NaN()},
}

// adversarialValues feed coordinates and timestamps that stress the
// zero-skip, pivoting and NaN paths of the matrix kernels.
var adversarialValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1e300, -1e300, 1e-300, -1e-300, 5e-324, 1, -1, 12.5, 1e200,
}

func randomTrajectory(rng *rand.Rand, id string, n int) *trajectory.Trajectory {
	pts := make([]trajectory.Point, n)
	x, y, t := rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*100
	for i := range pts {
		t += 0.2 + rng.Float64()*3
		x += rng.NormFloat64() * 10
		y += rng.NormFloat64() * 10
		pts[i] = trajectory.Point{T: t, Pos: geo.Pt(x, y)}
	}
	return &trajectory.Trajectory{ID: id, Points: pts}
}

// adversarialTrajectory mixes ordinary samples with special values,
// repeated and decreasing timestamps and 1e200 time gaps. Points are
// kept in the given order (no sort), as the kernels see them.
func adversarialTrajectory(rng *rand.Rand, id string, n int) *trajectory.Trajectory {
	pick := func() float64 { return adversarialValues[rng.Intn(len(adversarialValues))] }
	pts := make([]trajectory.Point, n)
	t := 0.0
	for i := range pts {
		switch rng.Intn(6) {
		case 0: // repeated timestamp
		case 1:
			t += 1e200
		case 2:
			t = pick()
		default:
			t += rng.Float64() * 2
		}
		x, y := rng.NormFloat64()*50, rng.NormFloat64()*50
		if rng.Intn(3) == 0 {
			x = pick()
		}
		if rng.Intn(3) == 0 {
			y = pick()
		}
		pts[i] = trajectory.Point{T: t, Pos: geo.Pt(x, y)}
	}
	return &trajectory.Trajectory{ID: id, Points: pts}
}

func checkTrajectoryMatches(t *testing.T, what string, got *trajectory.Trajectory, want []geo.Point, in *trajectory.Trajectory) {
	t.Helper()
	if got.ID != in.ID || got.Len() != len(want) {
		t.Fatalf("%s: id %q len %d, want id %q len %d", what, got.ID, got.Len(), in.ID, len(want))
	}
	for i, p := range got.Points {
		if !sameFloat(p.T, in.Points[i].T) || !samePoint(p.Pos, want[i]) {
			t.Fatalf("%s: point %d = %v @%v, want %v @%v", what, i, p.Pos, p.T, want[i], in.Points[i].T)
		}
	}
}

func kalmanCases(seed int64) []*trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	var trs []*trajectory.Trajectory
	for i := 0; i < 40; i++ {
		trs = append(trs, randomTrajectory(rng, fmt.Sprintf("r%d", i), 1+rng.Intn(120)))
	}
	for i := 0; i < 200; i++ {
		trs = append(trs, adversarialTrajectory(rng, fmt.Sprintf("a%d", i), 1+rng.Intn(40)))
	}
	// Every one- and two-point combination of special coordinates.
	for _, v := range adversarialValues {
		trs = append(trs,
			&trajectory.Trajectory{ID: "one", Points: []trajectory.Point{{T: v, Pos: geo.Pt(v, 1)}}},
			&trajectory.Trajectory{ID: "two", Points: []trajectory.Point{
				{T: 0, Pos: geo.Pt(1, v)}, {T: v, Pos: geo.Pt(v, v)}}},
			&trajectory.Trajectory{ID: "two-same-t", Points: []trajectory.Point{
				{T: 3, Pos: geo.Pt(v, 2)}, {T: 3, Pos: geo.Pt(4, v)}}},
		)
	}
	return trs
}

// TestKalmanTrajectoriesMatchOracle compares KalmanFilterTrajectory and
// KalmanSmoothTrajectory with the generic oracle over random and
// adversarial trajectories and every (q, r) pair.
func TestKalmanTrajectoriesMatchOracle(t *testing.T) {
	for _, tr := range kalmanCases(11) {
		for _, qr := range kalmanParams {
			q, r := qr[0], qr[1]
			what := fmt.Sprintf("%s n=%d q=%v r=%v", tr.ID, tr.Len(), q, r)
			checkTrajectoryMatches(t, "filter "+what, KalmanFilterTrajectory(tr, q, r), oracleFilter(tr, q, r), tr)
			checkTrajectoryMatches(t, "smooth "+what, KalmanSmoothTrajectory(tr, q, r), oracleSmooth(tr, q, r), tr)
		}
	}
	for _, f := range []func(*trajectory.Trajectory, float64, float64) *trajectory.Trajectory{
		KalmanFilterTrajectory, KalmanSmoothTrajectory,
	} {
		if got := f(&trajectory.Trajectory{ID: "e"}, 1, 1); got.ID != "e" || got.Len() != 0 {
			t.Fatalf("empty trajectory: %+v", got)
		}
	}
}

// TestKalmanStepMatchesOracle drives NewKalman through Step, Predict,
// Update and Innovation with arbitrary (including zero, negative and
// non-finite) time steps and checks every observable against the
// oracle after each call.
func TestKalmanStepMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pick := func() float64 { return adversarialValues[rng.Intn(len(adversarialValues))] }
	dts := []float64{1, 0.5, 0, -1, 1e-9, 1e200, math.Inf(1), math.NaN(), 5e-324}
	for run := 0; run < 300; run++ {
		qr := kalmanParams[run%len(kalmanParams)]
		start := geo.Pt(rng.NormFloat64()*100, rng.NormFloat64()*100)
		adversarial := run%2 == 1
		if adversarial && rng.Intn(4) == 0 {
			start = geo.Pt(pick(), pick())
		}
		k := NewKalman(start, qr[0], qr[1])
		o := newOracleKalman(start, qr[0], qr[1])
		for step := 0; step < 60; step++ {
			dt := 0.2 + rng.Float64()*3
			obs := o.position().Add(geo.Pt(rng.NormFloat64()*8, rng.NormFloat64()*8))
			if adversarial {
				if rng.Intn(3) == 0 {
					dt = dts[rng.Intn(len(dts))]
				}
				if rng.Intn(4) == 0 {
					obs = geo.Pt(pick(), pick())
				}
			}
			what := fmt.Sprintf("run %d step %d dt=%v obs=%v", run, step, dt, obs)
			if got, want := k.Innovation(dt, obs), o.innovation(dt, obs); !sameFloat(got, want) {
				t.Fatalf("%s: Innovation = %v, want %v", what, got, want)
			}
			switch rng.Intn(4) {
			case 0:
				k.Predict(dt)
				o.predict(dt)
			case 1:
				k.Update(obs)
				o.update(obs)
			default:
				got := k.Step(dt, obs)
				o.predict(dt)
				o.update(obs)
				if !samePoint(got, o.position()) {
					t.Fatalf("%s: Step = %v, want %v", what, got, o.position())
				}
			}
			if !samePoint(k.Position(), o.position()) || !samePoint(k.Velocity(), o.velocity()) {
				t.Fatalf("%s: state (%v, %v), want (%v, %v)",
					what, k.Position(), k.Velocity(), o.position(), o.velocity())
			}
		}
	}
}

// TestKalmanSmoothHammer smooths different trajectories from 8
// goroutines at once through the pooled step scratch and checks each
// result against a serial run of the same input.
func TestKalmanSmoothHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trs := make([]*trajectory.Trajectory, 32)
	want := make([]*trajectory.Trajectory, len(trs))
	for i := range trs {
		trs[i] = randomTrajectory(rng, fmt.Sprintf("h%d", i), 20+rng.Intn(400))
		want[i] = KalmanSmoothTrajectory(trs[i], 1, 8)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g*7 + rep) % len(trs)
				got := KalmanSmoothTrajectory(trs[i], 1, 8)
				for j, p := range got.Points {
					if !samePoint(p.Pos, want[i].Points[j].Pos) {
						t.Errorf("goroutine %d: trajectory %d point %d = %v, want %v",
							g, i, j, p.Pos, want[i].Points[j].Pos)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// randomEntries fills n values, a third of them special (±0, ±Inf,
// NaN, extremes), the rest Gaussian; tiny scales the Gaussian ones so
// pivots straddle the 1e-12 singular threshold.
func randomEntries(rng *rand.Rand, n int, tiny bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch {
		case rng.Intn(3) == 0:
			out[i] = adversarialValues[rng.Intn(len(adversarialValues))]
		case tiny:
			out[i] = rng.NormFloat64() * 1e-12
		default:
			out[i] = rng.NormFloat64() * 10
		}
	}
	return out
}

func checkSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v, want %v (got %v, want %v)", what, i, got[i], want[i], got, want)
		}
	}
}

// TestKalmanKernelsMatchGenericMatrix checks every fixed-shape kernel
// against the generic stats.Matrix operation on arbitrary operands,
// including ±0, non-finite and near-singular ones that the filter's
// own state rarely reaches.
func TestKalmanKernelsMatchGenericMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := func(r, c int, tiny bool) *stats.Matrix {
		return stats.MatrixFrom(r, c, randomEntries(rng, r*c, tiny)...)
	}
	for it := 0; it < 3000; it++ {
		tiny := it%3 == 0
		a44, b44 := m(4, 4, tiny), m(4, 4, tiny)
		var a, b, out [16]float64
		copy(a[:], a44.Data)
		copy(b[:], b44.Data)
		mul44(&out, &a, &b)
		checkSame(t, "mul44", out[:], a44.Mul(b44).Data)
		mul44(&a, &a, &b) // out may alias a
		checkSame(t, "mul44 aliased", a[:], a44.Mul(b44).Data)
		copy(a[:], a44.Data)
		mul44T(&out, &a, &b)
		checkSame(t, "mul44T", out[:], a44.Mul(b44.Transpose()).Data)

		v41 := m(4, 1, tiny)
		x := [4]float64(v41.Data)
		got41 := mul44x41(&a, &x)
		checkSame(t, "mul44x41", got41[:], a44.Mul(v41).Data)
		b42 := m(4, 2, tiny)
		got42 := mul44x42(&a, (*[8]float64)(b42.Data))
		checkSame(t, "mul44x42", got42[:], a44.Mul(b42).Data)
		a24 := m(2, 4, tiny)
		b22 := m(2, 2, tiny)
		got42b := mul42x22((*[8]float64)(b42.Data), (*[4]float64)(b22.Data))
		checkSame(t, "mul42x22", got42b[:], b42.Mul(b22).Data)
		y21 := m(2, 1, tiny)
		got41b := mul42x21((*[8]float64)(b42.Data), (*[2]float64)(y21.Data))
		checkSame(t, "mul42x21", got41b[:], b42.Mul(y21).Data)
		mul42x24(&out, (*[8]float64)(b42.Data), (*[8]float64)(a24.Data))
		checkSame(t, "mul42x24", out[:], b42.Mul(a24).Data)

		dt := adversarialValues[rng.Intn(len(adversarialValues))]
		if dt != 0 {
			mulTransition(&out, dt, &a)
			checkSame(t, fmt.Sprintf("mulTransition dt=%v", dt), out[:], oracleTransition(dt).Mul(a44).Data)
		}

		for _, sq := range []*stats.Matrix{a44, b22} {
			n := sq.Rows
			inv := make([]float64, n*n)
			work := append([]float64(nil), sq.Data...)
			ok := invert(inv, work, n)
			want, err := sq.Inverse()
			if ok != (err == nil) {
				t.Fatalf("invert %dx%d %v: ok=%v, Inverse err=%v", n, n, sq.Data, ok, err)
			}
			if ok {
				checkSame(t, fmt.Sprintf("invert %dx%d", n, n), inv, want.Data)
			}
		}
	}
}

// TestKalmanStepsFromArbitraryState starts the filter and the oracle
// from the same arbitrary state and covariance (special values
// included) and compares Predict, Update and Innovation.
func TestKalmanStepsFromArbitraryState(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dts := []float64{1, 0.5, 0, -1, 1e-9, 1e200, math.Inf(1), math.NaN(), 5e-324}
	for it := 0; it < 5000; it++ {
		x := randomEntries(rng, 4, false)
		p := randomEntries(rng, 16, it%3 == 0)
		qr := kalmanParams[rng.Intn(len(kalmanParams))]
		k := NewKalman(geo.Pt(0, 0), qr[0], qr[1])
		o := newOracleKalman(geo.Pt(0, 0), qr[0], qr[1])
		copy(k.x[:], x)
		copy(k.p[:], p)
		o.x = stats.MatrixFrom(4, 1, x...)
		o.p = stats.MatrixFrom(4, 4, p...)
		dt := dts[rng.Intn(len(dts))]
		obs := geo.Pt(randomEntries(rng, 1, false)[0], randomEntries(rng, 1, false)[0])
		what := fmt.Sprintf("x=%v p=%v dt=%v obs=%v", x, p, dt, obs)
		if got, want := k.Innovation(dt, obs), o.innovation(dt, obs); !sameFloat(got, want) {
			t.Fatalf("%s: Innovation = %v, want %v", what, got, want)
		}
		if rng.Intn(2) == 0 {
			k.Predict(dt)
			o.predict(dt)
		} else {
			k.Update(obs)
			o.update(obs)
		}
		checkSame(t, "state after step "+what, k.x[:], o.x.Data)
		checkSame(t, "covariance after step "+what, k.p[:], o.p.Data)
	}
}
