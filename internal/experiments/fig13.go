package experiments

import (
	"mmreliable/internal/antenna"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/dsp"
	"mmreliable/internal/stats"
)

// Fig13dPattern reproduces Fig. 13d: a 2-beam multi-beam pattern from the
// ideal (unquantized) synthesis versus the pattern actually produced by a
// phased array with 6-bit phase shifters and stepped attenuators. The
// paper's point: the hardware reproduces the theoretical multi-beam
// accurately.
func Fig13dPattern(cfg Config) *stats.Table {
	u := antenna.NewULA(8, 28e9)
	beams := []multibeam.Beam{
		multibeam.Reference(dsp.Rad(-10)),
		{Angle: dsp.Rad(25), Amp: 0.8, Phase: 0.5},
	}
	ideal, err := multibeam.WeightsInto(u, beams, nil, nil)
	if err != nil {
		panic(err)
	}
	quant := antenna.DefaultQuantizer().Apply(ideal)
	coarse := antenna.CoarseQuantizer().Apply(ideal)

	t := stats.NewTable("Fig 13d — multi-beam pattern: theory vs quantized hardware (gain dB)",
		"angle_deg", "ideal", "6bit", "2bit")
	// The dense sweeps run off the read-only steering-vector grid cache:
	// the steering vectors are computed once per (geometry, span) and
	// shared by every weight vector (and every concurrent trial).
	wide := u.SteeringGrid(dsp.Rad(-60), dsp.Rad(60), 25)
	for i := 0; i < wide.Len(); i++ {
		t.AddRow(stats.Fmt(dsp.Deg(wide.Thetas[i])),
			stats.Fmt(wide.GainDB(i, ideal)),
			stats.Fmt(wide.GainDB(i, quant)),
			stats.Fmt(wide.GainDB(i, coarse)))
	}
	// Pattern agreement metric: worst-case deviation over the main lobes.
	var worst6, worst2 float64
	lobes := u.SteeringGrid(dsp.Rad(-15), dsp.Rad(30), 46)
	for i := 0; i < lobes.Len(); i++ {
		if d := abs(lobes.GainDB(i, ideal) - lobes.GainDB(i, quant)); d > worst6 {
			worst6 = d
		}
		if d := abs(lobes.GainDB(i, ideal) - lobes.GainDB(i, coarse)); d > worst2 {
			worst2 = d
		}
	}
	t.AddRow("worst_lobe_dev_dB", "", stats.Fmt(worst6), stats.Fmt(worst2))
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
