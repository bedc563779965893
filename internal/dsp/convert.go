package dsp

import "math"

// DB converts a linear power ratio to decibels. Zero or negative input maps
// to -Inf, mirroring 10·log10.
func DB(linear float64) float64 {
	return 10 * math.Log10(linear)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// AmpDB converts a linear amplitude ratio to decibels (20·log10).
func AmpDB(linear float64) float64 {
	return 20 * math.Log10(linear)
}

// AmpFromDB converts decibels to a linear amplitude ratio.
func AmpFromDB(db float64) float64 {
	return math.Pow(10, db/20)
}

// WrapPhase wraps an angle in radians to [−π, π).
func WrapPhase(theta float64) float64 {
	t := math.Mod(theta+math.Pi, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
	}
	return t - math.Pi
}

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }
