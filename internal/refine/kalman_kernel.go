package refine

import "math"

// Fixed-shape matrix kernels of the constant-velocity Kalman filter.
// Matrices are row-major inline arrays named by shape: mul42x22 takes
// a 4x2 and a 2x2 operand.
//
// Exactness rule: every product performs the same terms in the same
// order as the generic dense product stats.Matrix.Mul, so results are
// bit-identical to it, NaN sign/payload aside; the oracle tests in
// kalman_oracle_test.go pin this. Each output accumulator starts at +0, a left-operand element
// == 0 contributes no term (so 0*Inf never becomes NaN), and the inner
// index k runs upward. Right-operand zeros are not skipped: v*0 is NaN
// for a non-finite v.

var (
	identity4 = [16]float64{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
	hMat      = [8]float64{1, 0, 0, 0, 0, 1, 0, 0} // 2x4 position measurement H
	hTrans    = [8]float64{1, 0, 0, 1, 0, 0, 0, 0} // 4x2 H'
)

// mul44 stores a*b into out, which may alias a but not b.
func mul44(out, a, b *[16]float64) {
	for i := 0; i < 4; i++ {
		var o0, o1, o2, o3 float64
		for k := 0; k < 4; k++ {
			v := a[4*i+k]
			if v == 0 {
				continue
			}
			o0 += v * b[4*k]
			o1 += v * b[4*k+1]
			o2 += v * b[4*k+2]
			o3 += v * b[4*k+3]
		}
		out[4*i], out[4*i+1], out[4*i+2], out[4*i+3] = o0, o1, o2, o3
	}
}

// mul44T stores a*b' into out, which may alias a but not b: the terms
// of the generic product with an explicitly transposed b.
func mul44T(out, a, b *[16]float64) {
	for i := 0; i < 4; i++ {
		var o0, o1, o2, o3 float64
		for k := 0; k < 4; k++ {
			v := a[4*i+k]
			if v == 0 {
				continue
			}
			o0 += v * b[k]
			o1 += v * b[4+k]
			o2 += v * b[8+k]
			o3 += v * b[12+k]
		}
		out[4*i], out[4*i+1], out[4*i+2], out[4*i+3] = o0, o1, o2, o3
	}
}

func mul44x41(a *[16]float64, x *[4]float64) (out [4]float64) {
	for i := 0; i < 4; i++ {
		var o float64
		for k := 0; k < 4; k++ {
			if v := a[4*i+k]; v != 0 {
				o += v * x[k]
			}
		}
		out[i] = o
	}
	return out
}

func mul44x42(a *[16]float64, b *[8]float64) (out [8]float64) {
	for i := 0; i < 4; i++ {
		var o0, o1 float64
		for k := 0; k < 4; k++ {
			if v := a[4*i+k]; v != 0 {
				o0 += v * b[2*k]
				o1 += v * b[2*k+1]
			}
		}
		out[2*i], out[2*i+1] = o0, o1
	}
	return out
}

func mul42x22(a *[8]float64, b *[4]float64) (out [8]float64) {
	for i := 0; i < 4; i++ {
		var o0, o1 float64
		for k := 0; k < 2; k++ {
			if v := a[2*i+k]; v != 0 {
				o0 += v * b[2*k]
				o1 += v * b[2*k+1]
			}
		}
		out[2*i], out[2*i+1] = o0, o1
	}
	return out
}

func mul42x21(a *[8]float64, y *[2]float64) (out [4]float64) {
	for i := 0; i < 4; i++ {
		var o float64
		for k := 0; k < 2; k++ {
			if v := a[2*i+k]; v != 0 {
				o += v * y[k]
			}
		}
		out[i] = o
	}
	return out
}

// mul42x24 stores a*b into out.
func mul42x24(out *[16]float64, a *[8]float64, b *[8]float64) {
	for i := 0; i < 4; i++ {
		var o0, o1, o2, o3 float64
		for k := 0; k < 2; k++ {
			v := a[2*i+k]
			if v == 0 {
				continue
			}
			o0 += v * b[4*k]
			o1 += v * b[4*k+1]
			o2 += v * b[4*k+2]
			o3 += v * b[4*k+3]
		}
		out[4*i], out[4*i+1], out[4*i+2], out[4*i+3] = o0, o1, o2, o3
	}
}

// transition returns the constant-velocity transition F for a
// dt-second step.
func transition(dt float64) [16]float64 {
	return [16]float64{
		1, 0, dt, 0,
		0, 1, 0, dt,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// mulTransition stores F*p into out (which must not alias p) for a
// transition with dt != 0. F is the left operand, so its zeros are
// exactly the skipped terms and each element keeps the 0 + 1*p
// (+ dt*p) terms of the generic product.
func mulTransition(out *[16]float64, dt float64, p *[16]float64) {
	for j := 0; j < 4; j++ {
		out[j] = 0 + p[j] + dt*p[8+j]
		out[4+j] = 0 + p[4+j] + dt*p[12+j]
		out[8+j] = 0 + p[8+j]
		out[12+j] = 0 + p[12+j]
	}
}

// addProcessNoise adds the white-acceleration process noise for a
// dt-second step at intensity q to p. Every element is scaled by q,
// zeros included, before the add.
func addProcessNoise(p *[16]float64, dt, q float64) {
	dt2 := dt * dt
	dt3 := dt2 * dt / 3
	half := dt2 / 2
	qn := [16]float64{
		dt3, 0, half, 0,
		0, dt3, 0, half,
		half, 0, dt, 0,
		0, half, 0, dt,
	}
	for i := range qn {
		p[i] += float64(qn[i] * q) // rounded before the add, never fused
	}
}

// invert stores into inv the inverse of the n x n matrix a (which it
// overwrites) by Gauss-Jordan elimination with partial pivoting, in
// stats.Matrix.Inverse's exact operation order. It reports false when
// a pivot's magnitude is below 1e-12 (singular).
func invert(inv, a []float64, n int) bool {
	for i := range inv {
		inv[i] = 0
	}
	for i := 0; i < n; i++ {
		inv[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[pivot*n+col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot*n+col]) < 1e-12 {
			return false
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a[pivot*n+j], a[col*n+j] = a[col*n+j], a[pivot*n+j]
				inv[pivot*n+j], inv[col*n+j] = inv[col*n+j], inv[pivot*n+j]
			}
		}
		pv := a[col*n+col]
		for j := 0; j < n; j++ {
			a[col*n+j] /= pv
			inv[col*n+j] /= pv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
				inv[r*n+j] -= f * inv[col*n+j]
			}
		}
	}
	return true
}
