package link

// CQIEntry is one row of the 5G NR CQI table: the minimum SNR at which the
// entry's modulation and coding decodes at ≤10% BLER, and its spectral
// efficiency in bits/s/Hz.
type CQIEntry struct {
	Index      int
	Modulation string
	MinSNRdB   float64
	Efficiency float64
}

// CQITable is the 3GPP TS 38.214 Table 5.2.2.1-3 (256QAM) efficiency
// ladder with conventional SNR switching thresholds. Index 0 means "out of
// range" (no transmission).
var CQITable = []CQIEntry{
	{1, "QPSK", -6.7, 0.1523},
	{2, "QPSK", -4.7, 0.3770},
	{3, "QPSK", -2.3, 0.8770},
	{4, "16QAM", 0.2, 1.4766},
	{5, "16QAM", 2.4, 1.9141},
	{6, "16QAM", 4.3, 2.4063},
	{7, "64QAM", 5.9, 2.7305},
	{8, "64QAM", 8.1, 3.3223},
	{9, "64QAM", 10.3, 3.9023},
	{10, "64QAM", 11.7, 4.5234},
	{11, "64QAM", 14.1, 5.1152},
	{12, "256QAM", 16.3, 5.5547},
	{13, "256QAM", 18.7, 6.2266},
	{14, "256QAM", 21.0, 6.9141},
	{15, "256QAM", 22.7, 7.4063},
}

// CQIFromSNR returns the highest CQI entry whose threshold the SNR meets,
// or (CQIEntry{}, false) when the SNR supports no transmission (NaN
// included). The table ascends, so the scan runs from the top and stops at
// the first entry met, copying only that row.
func CQIFromSNR(snrDB float64) (CQIEntry, bool) {
	for i := len(CQITable) - 1; i >= 0; i-- {
		if snrDB >= CQITable[i].MinSNRdB {
			return CQITable[i], true
		}
	}
	return CQIEntry{}, false
}

// SpectralEfficiency maps SNR to achievable bits/s/Hz through the CQI
// ladder, returning 0 below the link's outage threshold. The paper counts a
// link in outage below 6 dB SNR even though low CQIs would technically
// decode — beam-management control traffic needs that margin — so the
// outage threshold dominates.
func SpectralEfficiency(snrDB float64) float64 {
	if snrDB < OutageThresholdDB {
		return 0
	}
	e, ok := CQIFromSNR(snrDB)
	if !ok {
		return 0
	}
	return e.Efficiency
}

// Throughput returns achievable throughput in bits/s for the given SNR,
// bandwidth, and fractional overhead (0 ≤ overhead < 1, the share of air
// time spent on beam management instead of data).
func Throughput(snrDB, bandwidthHz, overhead float64) float64 {
	if overhead < 0 {
		overhead = 0
	}
	if overhead >= 1 {
		return 0
	}
	return SpectralEfficiency(snrDB) * bandwidthHz * (1 - overhead)
}
