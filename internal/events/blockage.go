// Package events models link blockage: time-profiles of path occlusion
// with the onset dynamics measured in the paper (per-beam amplitude falling
// ~10 dB within 10 OFDM symbols when a human blocker crosses a beam), plus
// generators for the randomized blockage workloads of §6.2 (durations
// uniform in 100–500 ms).
package events

import (
	"fmt"
	"math/rand"
	"sort"
)

// Event is one blockage episode on one path (or on all paths at once).
type Event struct {
	PathIndex int     // blocked path; ignored when AllPaths is true
	AllPaths  bool    // a body block occluding the whole array
	Start     float64 // onset time (s)
	Duration  float64 // time at full depth, excluding ramps (s)
	DepthDB   float64 // attenuation at full occlusion
	RampTime  float64 // linear onset/offset ramp duration (s)
}

// DefaultRampTime reproduces the measured onset: 10 dB per 10 OFDM symbols
// at 120 kHz subcarrier spacing (symbol ≈ 8.93 µs). A 25 dB-deep blockage
// therefore ramps in ≈ 223 µs.
const DefaultRampTime = 10 * 8.93e-6 // seconds per 10 dB

// RampFor returns a ramp time scaled so the onset slope is 10 dB per
// 10 OFDM symbols regardless of depth.
func RampFor(depthDB float64) float64 {
	if depthDB <= 0 {
		return 0
	}
	return depthDB / 10 * DefaultRampTime
}

// LossAt returns the extra attenuation (dB) this event applies at time t:
// a trapezoid rising over RampTime, holding DepthDB for Duration, then
// falling over RampTime.
func (e Event) LossAt(t float64) float64 {
	dt := t - e.Start
	switch {
	case dt <= 0:
		return 0
	case dt < e.RampTime:
		return e.DepthDB * dt / e.RampTime
	case dt < e.RampTime+e.Duration:
		return e.DepthDB
	case dt < 2*e.RampTime+e.Duration:
		return e.DepthDB * (1 - (dt-e.RampTime-e.Duration)/e.RampTime)
	default:
		return 0
	}
}

// End returns the time at which the event has fully cleared.
func (e Event) End() float64 { return e.Start + 2*e.RampTime + e.Duration }

// Schedule is a set of blockage events over an observation interval.
type Schedule []Event

// LossAt returns the total extra loss (dB) on the given path at time t,
// summing overlapping events. AllPaths events apply to every index.
func (s Schedule) LossAt(pathIndex int, t float64) float64 {
	var loss float64
	for _, e := range s {
		if e.AllPaths || e.PathIndex == pathIndex {
			loss += e.LossAt(t)
		}
	}
	return loss
}

// Sorted returns a copy of the schedule ordered by start time.
func (s Schedule) Sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Validate checks the schedule for negative times or depths.
func (s Schedule) Validate() error {
	for i, e := range s {
		if e.Duration < 0 || e.DepthDB < 0 || e.RampTime < 0 {
			return fmt.Errorf("events: event %d has negative fields: %+v", i, e)
		}
		if e.PathIndex < 0 && !e.AllPaths {
			return fmt.Errorf("events: event %d has negative path index", i)
		}
	}
	return nil
}

// GenParams controls random schedule generation, defaulting to the paper's
// §6.2 workload.
type GenParams struct {
	Horizon     float64 // observation interval (s)
	Rate        float64 // expected blockage events per second
	MinDuration float64 // uniform duration lower bound (s)
	MaxDuration float64 // uniform duration upper bound (s)
	MinDepthDB  float64
	MaxDepthDB  float64
	NumPaths    int     // paths to distribute events over
	AllPathProb float64 // probability an event occludes the whole array
}

// DefaultGenParams matches §6.2: within each 1 s experiment one blocker
// appears, blocking for 100–500 ms, with human-body depths of 20–30 dB.
func DefaultGenParams(numPaths int) GenParams {
	return GenParams{
		Horizon:     1.0,
		Rate:        1.0,
		MinDuration: 0.100,
		MaxDuration: 0.500,
		MinDepthDB:  20,
		MaxDepthDB:  30,
		NumPaths:    numPaths,
		AllPathProb: 0,
	}
}

// Generate draws a random schedule with Poisson arrivals at the configured
// rate over the horizon.
func Generate(rng *rand.Rand, p GenParams) Schedule {
	if p.NumPaths <= 0 || p.Horizon <= 0 {
		return nil
	}
	var s Schedule
	// Poisson arrivals via exponential gaps.
	t := 0.0
	for {
		if p.Rate <= 0 {
			break
		}
		t += rng.ExpFloat64() / p.Rate
		if t >= p.Horizon {
			break
		}
		depth := p.MinDepthDB + rng.Float64()*(p.MaxDepthDB-p.MinDepthDB)
		s = append(s, Event{
			PathIndex: rng.Intn(p.NumPaths),
			AllPaths:  rng.Float64() < p.AllPathProb,
			Start:     t,
			Duration:  p.MinDuration + rng.Float64()*(p.MaxDuration-p.MinDuration),
			DepthDB:   depth,
			RampTime:  RampFor(depth),
		})
	}
	return s
}

// WalkingBlocker builds the Fig. 16 scenario: a blocker walking across a
// 2-path link blocks the NLOS beam first, then the LOS beam, with a gap
// set by the walking speed and beam separation. crossAt is when the blocker
// reaches the first (NLOS) beam.
func WalkingBlocker(crossAt, gap, dwell, depthDB float64) Schedule {
	ramp := RampFor(depthDB)
	return Schedule{
		{PathIndex: 1, Start: crossAt, Duration: dwell, DepthDB: depthDB, RampTime: ramp},
		{PathIndex: 0, Start: crossAt + gap, Duration: dwell, DepthDB: depthDB, RampTime: ramp},
	}
}
