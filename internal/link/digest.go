package link

import "mmreliable/internal/core"

// Digest folds the meter's exact state (ring in onset order) into d.
func (m *Meter) Digest(d *core.Digest) {
	d.Int(m.slots)
	d.Int(m.available)
	d.Float64(m.thrSum)
	d.Float64(m.snrSum)
	d.Float64(m.minSNR)
	d.Int(m.outageRuns)
	d.Bool(m.inOutage)
	d.Int(m.curRun)
	d.Int(m.totalOutage)
	d.Int(m.maxRun)
	d.Int(len(m.runs))
	for _, part := range [2][]float64{m.runs[m.runsStart:], m.runs[:m.runsStart]} {
		for _, r := range part {
			d.Float64(r)
		}
	}
	d.Int(m.runsDropped)
	d.Int(m.leadRun)
}
