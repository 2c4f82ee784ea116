package workload

// Real compute kernels used by the examples on the local (goroutine)
// runtime, where tasks burn actual CPU instead of virtual time.

// MandelbrotRow computes one row of a Mandelbrot-set escape-time image over
// the region [-2.5, 1] × [-1, 1]. It returns the iteration counts for each
// of width pixels. Rows near the set's interior cost far more than rows in
// the exterior, giving the farm a naturally irregular workload.
func MandelbrotRow(row, width, height, maxIter int) []uint16 {
	out := make([]uint16, width)
	if width <= 0 || height <= 0 {
		return out
	}
	ci := -1.0 + 2.0*float64(row)/float64(height)
	for x := 0; x < width; x++ {
		cr := -2.5 + 3.5*float64(x)/float64(width)
		var zr, zi float64
		var it int
		for it = 0; it < maxIter; it++ {
			zr2, zi2 := zr*zr, zi*zi
			if zr2+zi2 > 4 {
				break
			}
			zr, zi = zr2-zi2+cr, 2*zr*zi+ci
		}
		out[x] = uint16(it)
	}
	return out
}

// Integrate numerically integrates f over [a, b] with n trapezoids — the
// CPU-burning kernel of the parameter-sweep example.
func Integrate(f func(float64) float64, a, b float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	h := (b - a) / float64(n)
	sum := (f(a) + f(b)) / 2
	for i := 1; i < n; i++ {
		sum += f(a + float64(i)*h)
	}
	return sum * h
}

// Spin burns approximately the given number of floating-point operations
// and returns a value that depends on all of them, preventing the work from
// being optimised away. It calibrates local-runtime task costs.
func Spin(ops int) float64 {
	acc := 1.0001
	for i := 0; i < ops; i++ {
		acc = acc*1.0000001 + 1e-9
		if acc > 2 {
			acc -= 1
		}
	}
	return acc
}
