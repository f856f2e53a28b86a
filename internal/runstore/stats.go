package runstore

import "math"

// welch computes the difference of means (new - old) with a Welch 95%
// confidence interval. The interval uses the Welch–Satterthwaite degrees
// of freedom and a Student-t quantile, like benchstat's delta column.
//
// Degenerate inputs degrade explicitly: with fewer than two samples on
// either side, or zero variance on both sides, the interval collapses to
// the point delta [delta, delta] and ok reports whether the interval is a
// real estimate (false for the n<2 case, where no variance exists to
// estimate from — unless the delta itself is zero, which needs none).
func welch(old, new []float64) (delta, lo, hi float64, ok bool) {
	mo, vo := meanVar(old)
	mn, vn := meanVar(new)
	delta = mn - mo
	if len(old) < 2 || len(new) < 2 {
		return delta, delta, delta, delta == 0
	}
	no, nn := float64(len(old)), float64(len(new))
	se2 := vo/no + vn/nn
	if se2 == 0 {
		// Every sample equal on both sides: the delta is exact.
		return delta, delta, delta, true
	}
	se := math.Sqrt(se2)
	// Welch–Satterthwaite degrees of freedom.
	df := se2 * se2 / (vo*vo/(no*no*(no-1)) + vn*vn/(nn*nn*(nn-1)))
	t := tQuantile975(df)
	return delta, delta - t*se, delta + t*se, true
}

// MeanCI95 returns the mean of xs and the half-width of its 95%
// confidence interval (Student t with n-1 degrees of freedom). ok is false
// with fewer than two samples, where no interval exists.
func MeanCI95(xs []float64) (mean, half float64, ok bool) {
	mean, variance := meanVar(xs)
	if len(xs) < 2 {
		return mean, 0, false
	}
	n := float64(len(xs))
	return mean, tQuantile975(n-1) * math.Sqrt(variance/n), true
}

func meanVar(xs []float64) (mean, variance float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	return mean, variance / (n - 1)
}

// t975Table holds the two-sided 95% Student-t quantiles for integer
// degrees of freedom 1..30.
var t975Table = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tQuantile975 returns the 0.975 quantile of Student's t distribution
// with df degrees of freedom (df may be fractional, from
// Welch–Satterthwaite). Table lookup with linear interpolation below 30
// degrees; the Cornish–Fisher expansion around the normal quantile above.
func tQuantile975(df float64) float64 {
	if df <= 1 {
		return t975Table[0]
	}
	if df <= 30 {
		i := int(df) // 1..30
		lo := t975Table[i-1]
		if df == float64(i) || i >= 30 {
			return lo
		}
		return lo + (df-float64(i))*(t975Table[i]-lo)
	}
	const z = 1.959963984540054 // Phi^-1(0.975)
	z3, z5 := z*z*z, z*z*z*z*z
	return z + (z3+z)/(4*df) + (5*z5+16*z3+3*z)/(96*df*df)
}
