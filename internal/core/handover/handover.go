// Package handover implements the paper's escape hatch for complete
// outages (§4.1, §8): when every path to the serving gNB is blocked and the
// local recovery ladder (power reallocation → refinement → retraining) has
// failed, the UE evaluates neighboring gNBs with short beam sweeps and
// hands the link over to the strongest one, where a fresh mmReliable
// manager establishes a constructive multi-beam.
package handover

import (
	"fmt"
	"math"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/dsp"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// Conservative handover parameters.
const (
	// outageConfirm is how long (seconds) the serving link must stay in
	// outage before a handover evaluation starts — long enough for the
	// serving manager's own retraining to have had its chance.
	outageConfirm = 60e-3
	// evalBeams is the sweep size used to score each candidate gNB.
	evalBeams = 9
	// minImprovementDB is the advantage a candidate must show over the
	// serving cell's measured strength to win the handover (hysteresis
	// against ping-pong).
	minImprovementDB = 3
)

// Controller runs one mmReliable manager per gNB and moves the link to
// whichever gNB survives.
type Controller struct {
	name    string
	budget  link.Budget
	num     nr.Numerology
	mgrs    []*manager.Manager
	sounder *nr.Sounder
	cb      *antenna.Codebook
	csi     cmx.Vector // evaluation-sweep probe scratch

	serving        int
	badSlots       int
	trainRemaining int
	pendingEval    bool
	everGood       bool

	// Handovers counts executed cell switches.
	Handovers int
	// Evaluations counts candidate sweeps (including ones that kept the
	// serving cell).
	Evaluations int
}

// New builds a controller over n gNBs. rng seeds the per-manager sounders
// and the controller's evaluation sounder.
func New(name string, n int, u *antenna.ULA, budget link.Budget, num nr.Numerology, rng *rand.Rand) (*Controller, error) {
	if n < 1 {
		return nil, fmt.Errorf("handover: need ≥1 gNB, got %d", n)
	}
	c := &Controller{name: name, budget: budget, num: num}
	for i := 0; i < n; i++ {
		m, err := manager.New(fmt.Sprintf("%s-gnb%d", name, i), u, budget, num, manager.DefaultConfig(), rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return nil, err
		}
		c.mgrs = append(c.mgrs, m)
	}
	s, err := nr.NewSounder(num, budget.BandwidthHz, nr.NumSC, budget.NoiseToTxAmpRatio(), nr.DefaultImpairments(), rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}
	c.sounder = s
	c.csi = make(cmx.Vector, s.NumSC)
	scan := dsp.Rad(nr.ScanRangeDeg)
	c.cb = antenna.DFTCodebook(u, evalBeams, -scan, scan)
	return c, nil
}

// Name implements sim.MultiScheme.
func (c *Controller) Name() string { return c.name }

// Serving returns the current serving gNB index.
func (c *Controller) Serving() int { return c.serving }

// StepMulti implements sim.MultiScheme.
func (c *Controller) StepMulti(t float64, ms []*channel.Model) sim.Slot {
	if len(ms) != len(c.mgrs) {
		panic(fmt.Sprintf("handover: %d channels for %d gNBs", len(ms), len(c.mgrs)))
	}
	// A pending evaluation consumes whole slots (one candidate sweep's
	// worth of SSBs), then executes.
	if c.trainRemaining > 0 {
		c.trainRemaining--
		if c.trainRemaining == 0 && c.pendingEval {
			c.pendingEval = false
			c.evaluate(ms)
		}
		return sim.Slot{SNRdB: math.Inf(-1), Training: true}
	}
	slot := c.mgrs[c.serving].Step(t, ms[c.serving])
	// Count every sub-threshold slot toward the outage clock — including
	// the serving manager's own (futile) retraining slots: a dead cell
	// that keeps re-sweeping is still a dead cell. Initial acquisition is
	// exempted until the link has been good once.
	if slot.SNRdB >= link.OutageThresholdDB {
		c.badSlots = 0
		c.everGood = true
	} else if c.everGood {
		c.badSlots++
	}
	if c.badSlots >= c.confirmSlots() && len(c.mgrs) > 1 {
		// Serving cell is beyond local repair: measure the neighbors.
		c.badSlots = 0
		c.pendingEval = true
		sweeps := len(c.mgrs) // serving + candidates, one sweep each
		c.trainRemaining = c.slotsFor(float64(sweeps*c.cb.Len()) * c.num.SSBDuration())
	}
	return slot
}

func (c *Controller) confirmSlots() int {
	return int(math.Max(1, outageConfirm/c.num.SlotDuration()))
}

func (c *Controller) slotsFor(airTime float64) int {
	return int(math.Max(1, math.Ceil(airTime/c.num.SlotDuration())))
}

// evaluate sweeps every gNB and hands over to the strongest if it beats the
// serving cell by the hysteresis margin.
func (c *Controller) evaluate(ms []*channel.Model) {
	c.Evaluations++
	best, bestRSS := c.serving, 0.0
	servingRSS := 0.0
	for g := range c.mgrs {
		rss := 0.0
		for _, w := range c.cb.Weights {
			if r := nr.RSS(c.sounder.ProbeInto(ms[g], w, c.csi)); r > rss {
				rss = r
			}
		}
		if g == c.serving {
			servingRSS = rss
		}
		if rss > bestRSS {
			best, bestRSS = g, rss
		}
	}
	if best == c.serving {
		return
	}
	if servingRSS > 0 && 10*math.Log10(bestRSS/servingRSS) < minImprovementDB {
		return
	}
	c.serving = best
	c.mgrs[best].Reset()
	c.Handovers++
}

// Sanity: Controller implements sim.MultiScheme.
var _ sim.MultiScheme = (*Controller)(nil)
