package link

import "math"

// WidebandSINRdB returns the capacity-equivalent wideband SINR of a
// per-subcarrier signal/interference power profile:
//
//	SINR_eff = 2^(mean_k log2(1 + sig_k/(int_k + noise))) − 1,
//
// the SDMA counterpart of WidebandSNRdB: frequency-selective dips —
// whether from the channel or from a co-scheduled user's beam leaking onto
// a subcarrier — are penalized the way a real decoder would. sigPow and
// intPow must be the same length and already include transmit power and
// array gain (linear power per subcarrier); noiseLin is the linear noise
// power. Returns −Inf for an empty profile or a vanishing effective SINR.
func WidebandSINRdB(sigPow, intPow []float64, noiseLin float64) float64 {
	if len(sigPow) == 0 || len(sigPow) != len(intPow) {
		return math.Inf(-1)
	}
	var sumLog float64
	for k, sig := range sigPow {
		sumLog += math.Log2(1 + sig/(intPow[k]+noiseLin))
	}
	return capacityEquivalentDB(sumLog, len(sigPow))
}
