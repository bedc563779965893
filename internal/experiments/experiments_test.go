package experiments

import (
	"strconv"
	"strings"
	"testing"

	"mmreliable/internal/link"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

// cell extracts the value in the given column of the row whose first cell
// matches label. It fails the test when absent.
func cell(t *testing.T, table interface{ String() string }, label string, col int) float64 {
	t.Helper()
	for _, line := range strings.Split(table.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) > col && fields[0] == label {
			v, err := strconv.ParseFloat(fields[col], 64)
			if err != nil {
				t.Fatalf("row %q col %d: %v (%q)", label, col, err, line)
			}
			return v
		}
	}
	t.Fatalf("row %q not found in table:\n%s", label, table.String())
	return 0
}

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 33 {
		t.Fatalf("experiments %d, want 33", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if got, err := ByID(e.ID); err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestFig04aLandmarks(t *testing.T) {
	tb := Fig04aReflectorCDF(quickCfg())
	indoorMedian := cell(t, tb, "50", 1)
	outdoorMedian := cell(t, tb, "50", 2)
	// Paper: 7.2 dB indoor, 5 dB outdoor; dominant range 1–10 dB.
	if indoorMedian < 4 || indoorMedian > 14 {
		t.Fatalf("indoor median %g", indoorMedian)
	}
	if outdoorMedian < 2 || outdoorMedian > 9 {
		t.Fatalf("outdoor median %g", outdoorMedian)
	}
	if outdoorMedian >= indoorMedian {
		t.Fatalf("outdoor reflectors (%g) should be stronger than indoor (%g)", outdoorMedian, indoorMedian)
	}
}

func TestFig08Landmarks(t *testing.T) {
	tb := Fig08DelaySpread(quickCfg())
	if r := cell(t, tb, "ripple_dB", 1); r > 0.1 {
		t.Fatalf("single-beam ripple %g", r)
	}
	if r := cell(t, tb, "ripple_dB", 2); r < 5 {
		t.Fatalf("plain multi-beam 5 ns ripple %g, want deep fades", r)
	}
	if r := cell(t, tb, "ripple_dB", 3); r > 1 {
		t.Fatalf("delay-optimized 5 ns ripple %g, want flat", r)
	}
	if r := cell(t, tb, "ripple_dB", 5); r > 1 {
		t.Fatalf("delay-optimized 10 ns ripple %g, want flat", r)
	}
}

func TestFig11aLandmarks(t *testing.T) {
	tb := Fig11aSuperresMSE(quickCfg())
	// Per-beam power accurate to ≲1 dB at and below the 2.5 ns resolution.
	if e := cell(t, tb, "2.5", 1); e > 1 {
		t.Fatalf("error at resolution %g dB", e)
	}
	if e := cell(t, tb, "1", 1); e > 1.5 {
		t.Fatalf("error below resolution %g dB", e)
	}
}

func TestFig11bLandmarks(t *testing.T) {
	tb := Fig11bTwoSinc(quickCfg())
	if r := cell(t, tb, "fit_residual", 1); r > 0.05 {
		t.Fatalf("two-sinc fit residual %g", r)
	}
}

func TestFig13dLandmarks(t *testing.T) {
	tb := Fig13dPattern(quickCfg())
	// 6-bit hardware reproduces the theoretical pattern closely on the
	// lobes; 2-bit hardware degrades visibly but still forms the beams.
	// (Empty table cells collapse under Fields, so the two deviations land
	// in columns 1 and 2.)
	dev6 := cell(t, tb, "worst_lobe_dev_dB", 1)
	dev2 := cell(t, tb, "worst_lobe_dev_dB", 2)
	if dev6 > 4 {
		t.Fatalf("6-bit worst deviation %g dB", dev6)
	}
	if dev2 <= dev6 {
		t.Fatalf("2-bit (%g) should deviate more than 6-bit (%g)", dev2, dev6)
	}
}

func TestFig14Landmarks(t *testing.T) {
	tb := Fig14Sensitivity(quickCfg())
	if p := cell(t, tb, "peak_dB", 1); p < 1.7 || p > 1.8 {
		t.Fatalf("peak gain %g, want 1.76", p)
	}
	if g := cell(t, tb, "gain_at_75deg", 1); g < 0 {
		t.Fatalf("gain at 75° %g, want ≥ 0", g)
	}
	if g := cell(t, tb, "gain_at_180deg", 1); g > -3 {
		t.Fatalf("gain at 180° %g, want strongly negative", g)
	}
}

func TestFig15Landmarks(t *testing.T) {
	a := Fig15aPhaseScan(quickCfg())
	est := cell(t, a, "twoprobe_sigma", 1)
	truth := cell(t, a, "true_sigma", 1)
	if d := est - truth; d > 0.3 || d < -0.3 {
		t.Fatalf("two-probe phase %g vs truth %g", est, truth)
	}
	b := Fig15bAmpScan(quickCfg())
	amp := cell(t, b, "twoprobe_amp_dB", 1)
	if amp < -6 || amp > -2 {
		t.Fatalf("two-probe amplitude %g dB, want ≈ −4", amp)
	}
	c := Fig15cPhaseStability(quickCfg())
	if s := cell(t, c, "spread_rad", 1); s > 1 {
		t.Fatalf("phase spread %g rad over 100 MHz", s)
	}
	d := Fig15dOracleGap(quickCfg())
	g2 := cell(t, d, "2-beam", 1)
	g3 := cell(t, d, "3-beam", 1)
	gs := cell(t, d, "subarray-split", 1)
	gor := cell(t, d, "oracle", 1)
	if g2 < 0.5 || g2 > 2.5 {
		t.Fatalf("2-beam gain %g, paper ≈1.0", g2)
	}
	if g3 <= g2 {
		t.Fatalf("3-beam (%g) should beat 2-beam (%g)", g3, g2)
	}
	if gor < g3 {
		t.Fatalf("oracle (%g) below 3-beam (%g)", gor, g3)
	}
	if gs >= g2 {
		t.Fatalf("sub-array split (%g) should lose to full-aperture (%g)", gs, g2)
	}
}

func TestFig16Landmarks(t *testing.T) {
	tb := Fig16Blockage(quickCfg())
	mmMin := cell(t, tb, "multibeam_min_snr", 1)
	sbMin := cell(t, tb, "singlebeam_min_snr", 1) // empty cells collapse
	if mmMin < 6 {
		t.Fatalf("multi-beam went into outage: min SNR %g", mmMin)
	}
	if sbMin >= 6 {
		t.Fatalf("single beam never hit outage: min SNR %g", sbMin)
	}
}

func TestFig17Landmarks(t *testing.T) {
	a := Fig17aPowerVsRotation(quickCfg())
	if r := cell(t, a, "beam0_fit_rmse_dB", 1); r > 1 {
		t.Fatalf("pattern fit error %g dB, paper within 1 dB", r)
	}
	b := Fig17bTrackingAccuracy(quickCfg())
	for _, deg := range []string{"4", "6", "8"} {
		if e := cell(t, b, deg, 3); e > 1.2 {
			t.Fatalf("LOS tracking error at %s°: %g, paper ≈1°", deg, e)
		}
	}
	c := Fig17cTrackingThroughput(quickCfg())
	full := cell(t, c, "tracking+CC", 1)
	noTrack := cell(t, c, "no-tracking", 1)
	if full <= noTrack {
		t.Fatalf("tracking+CC (%g) should beat no-tracking (%g)", full, noTrack)
	}
}

func TestFig18Landmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("ensemble experiment")
	}
	b := Fig18bReliability(quickCfg())
	mm := cell(t, b, "mmreliable", 1)
	re := cell(t, b, "reactive", 1)
	wb := cell(t, b, "widebeam", 1)
	if mm <= re || re <= wb {
		t.Fatalf("reliability ordering broken: mm %g, reactive %g, widebeam %g", mm, re, wb)
	}
	if mm < 0.85 {
		t.Fatalf("mmReliable median reliability %g, want ≈1", mm)
	}
	d := Fig18dOverhead(quickCfg())
	if v := cell(t, d, "8", 1); v < 2.5 || v > 3.5 {
		t.Fatalf("NR training at 8 antennas %g ms, paper 3", v)
	}
	if v := cell(t, d, "64", 1); v < 5.5 || v > 6.5 {
		t.Fatalf("NR training at 64 antennas %g ms, paper 6", v)
	}
	if v := cell(t, d, "64", 2); v < 0.3 || v > 0.5 {
		t.Fatalf("2-beam maintenance %g ms, paper 0.4", v)
	}
	if v := cell(t, d, "64", 3); v < 0.5 || v > 0.7 {
		t.Fatalf("3-beam maintenance %g ms, paper 0.6", v)
	}
}

func TestAblationLandmarks(t *testing.T) {
	a1 := AblationQuantization(quickCfg())
	fine := cell(t, a1, "6bit+0.5dB", 2)
	coarse := cell(t, a1, "2bit+onoff", 2)
	if fine > 0.2 {
		t.Fatalf("6-bit loss %g dB, want ≈0", fine)
	}
	if coarse <= fine || coarse > 3 {
		t.Fatalf("2-bit loss %g dB, want ≈1", coarse)
	}
	a5 := AblationTrainingMethod(quickCfg())
	exhSlots := cell(t, a5, "exhaustive", 1)
	hierSlots := cell(t, a5, "hierarchical", 1)
	if hierSlots >= exhSlots {
		t.Fatalf("hierarchical training (%g slots) not cheaper than exhaustive (%g)", hierSlots, exhSlots)
	}
	a4 := AblationCCRefresh(quickCfg())
	fast := cell(t, a4, "1", 1)
	slow := cell(t, a4, "20", 1)
	if fast <= slow-0.5 {
		t.Fatalf("1 ms refresh (%g dB) should not lose to 20 ms (%g dB)", fast, slow)
	}
}

func TestExtensionLandmarks(t *testing.T) {
	e1 := ExtensionIRS(quickCfg())
	relNone := cell(t, e1, "0", 1)
	relBest := cell(t, e1, "80", 1)
	if relBest < relNone+0.2 {
		t.Fatalf("80 dB IRS reliability %g not clearly above no-IRS %g", relBest, relNone)
	}
	e2 := ExtensionHandover(quickCfg())
	ho := cell(t, e2, "handover", 1)
	pin := cell(t, e2, "pinned", 1)
	if ho <= pin+0.1 {
		t.Fatalf("handover reliability %g not clearly above pinned %g", ho, pin)
	}
	if n := cell(t, e2, "handover", 3); n < 1 {
		t.Fatalf("no handovers executed: %g", n)
	}
	e3 := ExtensionRateAdaptation(quickCfg())
	fresh := cell(t, e3, "1", 3)
	stale := cell(t, e3, "80", 3)
	if fresh < 0.7 || fresh > 1.01 {
		t.Fatalf("fresh-CSI adaptive/genie ratio %g", fresh)
	}
	if stale >= fresh {
		t.Fatalf("stale CSI (%g) should cost throughput vs fresh (%g)", stale, fresh)
	}
	e4 := ExtensionMultiUser(quickCfg())
	tdm := cell(t, e4, "tdm", 1)
	naive := cell(t, e4, "naive-spatial", 1)
	aware := cell(t, e4, "aware-spatial", 1)
	if aware <= naive {
		t.Fatalf("aware selection %g not above naive %g", aware, naive)
	}
	if aware <= tdm {
		t.Fatalf("spatial multiplexing %g not above TDM %g", aware, tdm)
	}
	if tdm <= naive {
		t.Fatalf("TDM %g not above naive spatial multiplexing %g", tdm, naive)
	}
	// Interference-aware selection leaves both users decodable, and the
	// multi-beam upgrade keeps every user within its 1 dB tolerance.
	for u := 0; u < 2; u++ {
		s := cell(t, e4, "aware-spatial", 2+u)
		if s < link.OutageThresholdDB {
			t.Fatalf("aware-spatial user %d SINR %g dB below outage threshold", u, s)
		}
		if mb := cell(t, e4, "aware+multibeam", 2+u); mb < s-1 {
			t.Fatalf("multi-beam upgrade dropped user %d from %g to %g dB", u, s, mb)
		}
	}
}

func TestExtensionStationLandmarks(t *testing.T) {
	tb := ExtensionStation(quickCfg())
	rel2 := cell(t, tb, "2", 1)
	rel8 := cell(t, tb, "8", 1)
	if rel2 < 0.9 || rel8 < 0.9 {
		t.Fatalf("serving-cell reliability collapsed: 2 UEs %g, 8 UEs %g", rel2, rel8)
	}
	// The probe budget bounds aggregate overhead: the per-session training
	// share must not grow with the UE count (it can only shrink or hold).
	ov2 := cell(t, tb, "2", 3)
	ov8 := cell(t, tb, "8", 3)
	if ov8 > ov2+1 {
		t.Fatalf("training overhead grew with load: 2 UEs %g%%, 8 UEs %g%%", ov2, ov8)
	}
	// Starvation guard: even the worst-served UE got a nonzero grant share.
	if r := cell(t, tb, "8", 7); r <= 0 {
		t.Fatalf("some session starved at 8 UEs: min/max grant ratio %g", r)
	}
}

func TestExtensionClusterLandmarks(t *testing.T) {
	tb := ExtensionCluster(quickCfg())
	// One cell has nowhere to run from a serving-link blocker: reliability
	// collapses for the blockage dwell. Two cells recover the §7 target
	// through the hot standby.
	serv1 := cell(t, tb, "1", 1)
	div1 := cell(t, tb, "1", 2)
	div2 := cell(t, tb, "2", 2)
	if serv1 >= 0.99 {
		t.Fatalf("1-cell serving reliability %g — the blocker never bit", serv1)
	}
	if div1 != serv1 {
		t.Fatalf("1-cell diversity %g differs from serving %g with no second leg", div1, serv1)
	}
	if div2 < 0.999 {
		t.Fatalf("2-cell diversity reliability %g < 0.999", div2)
	}
	// The standby must also crush the worst blackout, not just the average.
	if out1, divOut2 := cell(t, tb, "1", 3), cell(t, tb, "2", 4); divOut2 >= out1/10 {
		t.Fatalf("2-cell diversity max outage %g ms not well below 1-cell %g ms", divOut2, out1)
	}
	// Handover without ping-pong.
	if ho := cell(t, tb, "2", 5); ho < 1 {
		t.Fatalf("no handovers executed at 2 cells: %g", ho)
	}
	if pp := cell(t, tb, "2", 6); pp != 0 {
		t.Fatalf("%g ping-pongs at 2 cells", pp)
	}
}

func TestExtensionMetroLandmarks(t *testing.T) {
	tb := ExtensionMetro(quickCfg())
	// Doubling the city serves more sessions...
	s4 := cell(t, tb, "4", 2)
	s8 := cell(t, tb, "8", 2)
	if s8 <= s4 {
		t.Fatalf("sessions did not grow with sites: 4 sites %g, 8 sites %g", s4, s8)
	}
	// ...while per-UE physics stays flat: sites are RF-isolated, so the
	// folded serving reliability holds the §5 operating point at both
	// scales instead of degrading with population.
	r4 := cell(t, tb, "4", 3)
	r8 := cell(t, tb, "8", 3)
	if r4 < 0.99 || r8 < 0.99 {
		t.Fatalf("metro serving reliability degraded: 4 sites %g, 8 sites %g", r4, r8)
	}
	// Diversity combining can only help the folded stream.
	if d8 := cell(t, tb, "8", 4); d8 < r8 {
		t.Fatalf("diversity reliability %g below serving %g", d8, r8)
	}
	// Beam-management overhead stays bounded as the city grows (training
	// is per-cell, sessions amortize it).
	if ov8 := cell(t, tb, "8", 7); ov8 <= 0 || ov8 > 25 {
		t.Fatalf("8-site overhead %g%% outside (0, 25]", ov8)
	}
}

func TestExtensionHybridLandmarks(t *testing.T) {
	tb := ExtensionHybrid(quickCfg())
	// The §8 claim: with ≥8 angularly separable UEs the hybrid-SDMA cell
	// multiplies sum throughput over the single-beam TDMA baseline...
	gain := cell(t, tb, "8", 8)
	if gain <= 1.05 {
		t.Fatalf("hybrid sum-throughput gain %g at 8 UEs not above single-beam", gain)
	}
	// ...without giving up the paper's reliability operating point.
	if rel := cell(t, tb, "8", 5); rel < 0.999 {
		t.Fatalf("hybrid reliability %g < 0.999 at 8 UEs", rel)
	}
	// The planner actually grouped — the gain must come from shared slots,
	// not from a degenerate comparison.
	if g := cell(t, tb, "8", 7); g < 1 {
		t.Fatalf("no SDMA groups committed at 8 UEs")
	}
	// Single-beam vs multi-beam is airtime-equal: multi-beam buys
	// reliability/SNR robustness, not sum throughput multiplication, so its
	// sum stays within a factor of the baseline while SDMA pulls away.
	if sm, ss := cell(t, tb, "8", 4), cell(t, tb, "8", 6); ss <= sm {
		t.Fatalf("SDMA sum %g Mbps not above multi-beam TDMA %g Mbps", ss, sm)
	}
}

func TestFig19Landmarks(t *testing.T) {
	tb := Fig19Band60GHz(quickCfg())
	g28 := cell(t, tb, "28GHz", 3)
	g60 := cell(t, tb, "60GHz", 3)
	if g28 < 1.0 {
		t.Fatalf("28 GHz multi-beam gain %g < 1", g28)
	}
	if g60 < 1.0 {
		t.Fatalf("60 GHz multi-beam gain %g < 1", g60)
	}
	if gap := cell(t, tb, "28GHz_vs_60GHz_x", 1); gap <= 1 {
		t.Fatalf("28 GHz should outrate 60 GHz, gap %g", gap)
	}
}
