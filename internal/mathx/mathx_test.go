package mathx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d)=%d want %d", n, got, want)
		}
	}
}

func TestLog2Floor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1023: 9, 1024: 10}
	for n, want := range cases {
		if got := Log2Floor(n); got != want {
			t.Errorf("Log2Floor(%d)=%d want %d", n, got, want)
		}
	}
}

func TestLog2Relation(t *testing.T) {
	f := func(n uint16) bool {
		v := int(n)
		if v < 2 {
			return true
		}
		fl, ce := Log2Floor(v), Log2Ceil(v)
		if 1<<fl > v || v > 1<<ce {
			return false
		}
		return ce-fl <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestISqrt(t *testing.T) {
	for n := 0; n < 5000; n++ {
		s := ISqrt(n)
		if s*s > n || (s+1)*(s+1) <= n {
			t.Fatalf("ISqrt(%d)=%d", n, s)
		}
	}
}

func TestISqrtLarge(t *testing.T) {
	f := func(x uint32) bool {
		n := int(x)
		s := ISqrt(n)
		return s*s <= n && (s+1)*(s+1) > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9}
	for n, want := range cases {
		if got := BitsFor(n); got != want {
			t.Errorf("BitsFor(%d)=%d want %d", n, got, want)
		}
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean=%v", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138) > 0.01 {
		t.Fatalf("std=%v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty-input conventions violated")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 || Min(xs) != -1 {
		t.Fatal("min/max wrong")
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty-input conventions violated")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 50); p != 5 {
		t.Fatalf("p50=%v", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Fatalf("p100=%v", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0=%v", p)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

// TestNearestRankCeilConvention pins the rule every percentile site in the
// repo shares: rank = ⌈q·n⌉ (nearest-rank), never truncation. The q=0.90,
// n=4 case is the discriminating one — truncation would give index 2,
// ceil gives 3.
func TestNearestRankCeilConvention(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.5, 0},
		{1, 0.5, 0},
		{10, 0, 0},
		{10, 1, 9},
		{10, 1.5, 9},
		{10, -2, 0},
		{10, 0.5, 4},    // ⌈5⌉ = 5 → index 4
		{10, 0.99, 9},   // ⌈9.9⌉ = 10 → index 9
		{4, 0.90, 3},    // ⌈3.6⌉ = 4 → index 3; truncation would say 2
		{3, 0.5, 1},     // ⌈1.5⌉ = 2 → index 1
		{100, 0.99, 98}, // ⌈99⌉ = 99 → index 98
		{101, 0.99, 99}, // ⌈99.99⌉ = 100 → index 99
		{10, 0.001, 0},
	}
	for _, c := range cases {
		if got := NearestRank(c.n, c.q); got != c.want {
			t.Errorf("NearestRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// Percentile must agree with indexing a sorted copy via NearestRank — they
// are the same rule by construction; this guards against the two drifting
// apart again.
func TestPercentileMatchesNearestRank(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 10}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 1, 25, 50, 90, 99, 100} {
		want := sorted[NearestRank(len(sorted), p/100)]
		if got := Percentile(xs, p); got != want {
			t.Errorf("Percentile(xs, %v) = %v, want %v", p, got, want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile must not reorder its input")
	}
}

func TestFitLogNRecoversCoefficients(t *testing.T) {
	var xs, ys []float64
	for n := 8; n <= 8192; n *= 2 {
		xs = append(xs, float64(n))
		ys = append(ys, 3*math.Log2(float64(n))+5)
	}
	fit := FitLogN(xs, ys)
	if math.Abs(fit.A-3) > 1e-9 || math.Abs(fit.B-5) > 1e-9 || fit.R2 < 0.999 {
		t.Fatalf("fit=%+v", fit)
	}
}

func TestFitLinearRecoversCoefficients(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9}
	fit := FitLinear(xs, ys)
	if math.Abs(fit.A-2) > 1e-9 || math.Abs(fit.B-1) > 1e-9 {
		t.Fatalf("fit=%+v", fit)
	}
}

func TestFitSqrt(t *testing.T) {
	var xs, ys []float64
	for n := 1; n <= 1000; n += 37 {
		xs = append(xs, float64(n))
		ys = append(ys, 2*math.Sqrt(float64(n)))
	}
	fit := FitSqrt(xs, ys)
	if math.Abs(fit.A-2) > 1e-9 || fit.R2 < 0.999 {
		t.Fatalf("fit=%+v", fit)
	}
}

func TestFitDegenerateInputs(t *testing.T) {
	if f := FitLinear(nil, nil); f.A != 0 || f.B != 0 {
		t.Fatal("empty fit should be zero")
	}
	// Constant x: slope undefined, fall back to intercept = mean.
	f := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.A != 0 || f.B != 2 {
		t.Fatalf("constant-x fit=%+v", f)
	}
}

func TestGrowthExponent(t *testing.T) {
	xs := []float64{16, 4096}
	linY := []float64{16, 4096}
	sqrtY := []float64{4, 64}
	if e := GrowthExponent(xs, linY); math.Abs(e-1) > 1e-9 {
		t.Fatalf("linear exponent %v", e)
	}
	if e := GrowthExponent(xs, sqrtY); math.Abs(e-0.5) > 1e-9 {
		t.Fatalf("sqrt exponent %v", e)
	}
	if GrowthExponent(nil, nil) != 0 {
		t.Fatal("degenerate growth exponent")
	}
}
