// Package dsp provides the signal-processing primitives the mmReliable
// stack needs: an in-place radix-2 FFT, smoothing filters, dB/linear
// conversions and the planar phasor kernels. Go has no DSP standard
// library, so everything here is implemented from scratch on math/cmplx.
package dsp

import (
	"fmt"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the forward discrete Fourier transform of x in place.
// len(x) must be a power of two. The convention is
//
//	X[k] = Σ_n x[n]·e^{−j2πkn/N}
//
// with no scaling on the forward transform.
func FFT(x []complex128) error {
	return fftDir(x, false)
}

// IFFT computes the inverse DFT of x in place, scaling by 1/N so that
// IFFT(FFT(x)) == x.
func IFFT(x []complex128) error {
	if err := fftDir(x, true); err != nil {
		return err
	}
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= scale
	}
	return nil
}

func fftDir(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
	p := planFor(n)
	// Bit-reversal permutation from the plan's precomputed table.
	for i, j := range p.bitrev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative Cooley-Tukey butterflies. Twiddles come from the plan's
	// table (stage `size` reads every (n/size)-th entry) instead of the
	// old multiplicative recurrence w *= wBase, which accumulated O(N·ε)
	// phase error across a stage. The inverse transform conjugates the
	// table entry, which is exact.
	// Twiddle 0 is exactly 1, so the k = 0 butterfly of every stage (all
	// of stage 1) skips its multiply; the sums are the same bits.
	tw := p.twiddle
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			a, b := x[start], x[start+half]
			x[start], x[start+half] = a+b, a-b
			for k, ti := 1, stride; k < half; k, ti = k+1, ti+stride {
				w := tw[ti]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
	return nil
}
