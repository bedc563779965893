package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestMeanVarStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g", got)
	}
	if got := Var(xs); got != 4 {
		t.Fatalf("Var = %g", got)
	}
	if got := Std(xs); got != 2 {
		t.Fatalf("Std = %g", got)
	}
	if Mean(nil) != 0 || Var([]float64{1}) != 0 {
		t.Fatal("degenerate cases wrong")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("Min/Max wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%g = %g want %g", c.p, got, c.want)
		}
	}
	if Median(xs) != 3 {
		t.Fatal("Median wrong")
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("median of unsorted = %g", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Linspace = %v", got)
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Linspace n=1 = %v", got)
	}
	if Linspace(0, 1, 0) != nil {
		t.Fatal("Linspace n=0 should be nil")
	}
}

func TestPercentileMatchesSortedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// With 1001 samples, P(k/10) should equal s[k*100].
	for k := 0; k <= 10; k++ {
		want := s[k*100]
		if got := Percentile(xs, float64(k)*10); math.Abs(got-want) > 1e-12 {
			t.Fatalf("P%d = %g want %g", k*10, got, want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "scheme", "snr_db")
	tb.AddRow("single", "20.0")
	tb.AddRow(Fmt(1.23456), Fmt(7))
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "scheme") || !strings.Contains(out, "single") {
		t.Fatalf("missing content:\n%s", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Fatalf("float formatting:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}
