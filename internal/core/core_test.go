package core

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestDigestOrderAndWidthSensitive(t *testing.T) {
	a := NewDigest()
	a.Int(1)
	a.Int(2)
	b := NewDigest()
	b.Int(2)
	b.Int(1)
	if a.Sum() == b.Sum() {
		t.Fatalf("digest not order-sensitive: %016x", a.Sum())
	}
	// Slice boundaries fold: [1][2] ≠ [1,2].
	c := NewDigest()
	c.Floats([]float64{1})
	c.Floats([]float64{2})
	d := NewDigest()
	d.Floats([]float64{1, 2})
	if c.Sum() == d.Sum() {
		t.Fatalf("digest not boundary-sensitive: %016x", c.Sum())
	}
	e := NewDigest()
	e.Bools([]bool{true})
	e.Bools([]bool{false})
	f := NewDigest()
	f.Bools([]bool{true, false})
	if e.Sum() == f.Sum() {
		t.Fatalf("bool slices not boundary-sensitive: %016x", e.Sum())
	}
}

// TestDigestWordProperties: over random word sequences, flipping any single
// bit of any folded word changes the sum, and so does swapping any two
// adjacent unequal words.
func TestDigestWordProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sum := func(ws []uint64) uint64 {
		d := NewDigest()
		for _, w := range ws {
			d.Uint64(w)
		}
		return d.Sum()
	}
	for trial := 0; trial < 20; trial++ {
		ws := make([]uint64, 1+rng.Intn(8))
		for i := range ws {
			switch rng.Intn(3) {
			case 0:
				ws[i] = uint64(rng.Intn(4)) // small ints, the common case
			case 1:
				ws[i] = math.Float64bits(rng.NormFloat64())
			default:
				ws[i] = rng.Uint64()
			}
		}
		ref := sum(ws)
		for i := range ws {
			for bit := 0; bit < 64; bit++ {
				ws[i] ^= 1 << bit
				if sum(ws) == ref {
					t.Fatalf("flipping bit %d of word %d of %x leaves the sum %016x", bit, i, ws, ref)
				}
				ws[i] ^= 1 << bit
			}
		}
		for i := 0; i+1 < len(ws); i++ {
			if ws[i] == ws[i+1] {
				continue
			}
			ws[i], ws[i+1] = ws[i+1], ws[i]
			if sum(ws) == ref {
				t.Fatalf("swapping words %d and %d of %x leaves the sum %016x", i, i+1, ws, ref)
			}
			ws[i], ws[i+1] = ws[i+1], ws[i]
		}
	}
}

func TestDigestFoldsFloatBits(t *testing.T) {
	a := NewDigest()
	a.Float64(math.Inf(1))
	b := NewDigest()
	b.Float64(math.MaxFloat64)
	if a.Sum() == b.Sum() {
		t.Fatalf("+Inf and MaxFloat64 fold identically")
	}
	c := NewDigest()
	c.Float64(0)
	d := NewDigest()
	d.Float64(math.Copysign(0, -1))
	if c.Sum() == d.Sum() {
		t.Fatalf("signed zeros fold identically")
	}
	// Same inputs, same sum — the whole point.
	e, f := NewDigest(), NewDigest()
	for _, v := range []float64{1.5, -3, math.Inf(-1)} {
		e.Float64(v)
		f.Float64(v)
	}
	if e.Sum() != f.Sum() {
		t.Fatalf("identical folds disagree: %016x vs %016x", e.Sum(), f.Sum())
	}
}

func TestVersionSmoke(t *testing.T) {
	line := Version("mmtest")
	if !strings.HasPrefix(line, "mmtest ") {
		t.Fatalf("missing program name: %q", line)
	}
	if !strings.Contains(line, runtime.Version()) {
		t.Fatalf("missing toolchain version: %q", line)
	}
}

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name  string
		check FlagCheck
		fail  bool
		want  string // substring of the error message
	}{
		{"clusters ok", IntAtLeast("clusters", 1, 1), false, ""},
		{"clusters zero", IntAtLeast("clusters", 0, 1), true, "-clusters must be ≥ 1 (got 0)"},
		{"shards negative", IntAtLeast("shards", -3, 0), true, "-shards must be ≥ 0 (got -3)"},
		{"workers negative", IntAtLeast("workers", -1, 0), true, "-workers must be ≥ 0 (got -1)"},
		{"budget ok", IntAtLeast("budget", 0, 0), false, ""},
		{"duration zero", FloatPositive("duration", 0), true, "-duration must be > 0 (got 0)"},
		{"duration nan", FloatPositive("duration", math.NaN()), true, "-duration must be > 0"},
		{"churn ok", FloatAtLeast("churn", 0, 0), false, ""},
		{"churn negative", FloatAtLeast("churn", -0.5, 0), true, "-churn must be ≥ 0 (got -0.5)"},
		{"mobile high", FloatInRange("mobile", 1.5, 0, 1), true, "-mobile must be in [0, 1] (got 1.5)"},
		{"mobile ok", FloatInRange("mobile", 1, 0, 1), false, ""},
		{"strict without compare", FlagRequires("strict", true, "compare", false), true, "-strict requires -compare"},
		{"strict with compare", FlagRequires("strict", true, "compare", true), false, ""},
		{"strict unset", FlagRequires("strict", false, "compare", false), false, ""},
	}
	for _, tc := range cases {
		err := CheckFlags("prog", tc.check)
		if tc.fail && err == nil {
			t.Errorf("%s: expected failure, got nil", tc.name)
		}
		if !tc.fail && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.fail && err != nil {
			if !strings.HasPrefix(err.Error(), "prog: ") {
				t.Errorf("%s: missing prog prefix: %v", tc.name, err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: message %q missing %q", tc.name, err, tc.want)
			}
		}
	}
	// First failure wins.
	err := CheckFlags("p", IntAtLeast("a", 0, 1), IntAtLeast("b", 0, 1))
	if err == nil || !strings.Contains(err.Error(), "-a ") {
		t.Fatalf("first failing check should win: %v", err)
	}
}
