package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Fatal("empty Welford not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.Variance(), 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", w.Variance())
	}
	if !almostEqual(w.StdDev(), 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", w.StdDev())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordSampleVariance(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3} {
		w.Add(x)
	}
	if !almostEqual(w.SampleVariance(), 1, 1e-12) {
		t.Fatalf("SampleVariance = %v, want 1", w.SampleVariance())
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(5)
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		var w Welford
		var sum float64
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs))
		return almostEqual(w.Mean(), mean, 1e-8*(1+math.Abs(mean))) &&
			almostEqual(w.Variance(), naiveVar, 1e-6*(1+naiveVar))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEqualsSequentialProperty(t *testing.T) {
	f := func(a, b []int16) bool {
		var all, wa, wb Welford
		for _, v := range a {
			all.Add(float64(v))
			wa.Add(float64(v))
		}
		for _, v := range b {
			all.Add(float64(v))
			wb.Add(float64(v))
		}
		wa.Merge(wb)
		return wa.N() == all.N() &&
			almostEqual(wa.Mean(), all.Mean(), 1e-8*(1+math.Abs(all.Mean()))) &&
			almostEqual(wa.Variance(), all.Variance(), 1e-6*(1+all.Variance())) &&
			wa.Min() == all.Min() && wa.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDevBatch(t *testing.T) {
	if _, err := Mean(nil); err != ErrNoSamples {
		t.Fatal("Mean(nil) should error")
	}
	if _, err := StdDev(nil); err != ErrNoSamples {
		t.Fatal("StdDev(nil) should error")
	}
	m, err := Mean([]float64{1, 2, 3})
	if err != nil || m != 2 {
		t.Fatalf("Mean = %v, %v", m, err)
	}
	s, err := StdDev([]float64{1, 1, 1})
	if err != nil || s != 0 {
		t.Fatalf("StdDev = %v, %v", s, err)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA claims initialized")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first Add should seed: %v", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
	e.Set(100)
	if e.Value() != 100 {
		t.Fatal("Set did not override")
	}
}

func TestEWMAInvalidGainPanics(t *testing.T) {
	for _, g := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("gain %v did not panic", g)
				}
			}()
			NewEWMA(g)
		}()
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.1)
	for i := 0; i < 500; i++ {
		e.Add(42)
	}
	if !almostEqual(e.Value(), 42, 1e-9) {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, mu, sigma, want float64 }{
		{0, 0, 1, 0.5},
		{1.959963984540054, 0, 1, 0.975},
		{-1.959963984540054, 0, 1, 0.025},
		{10, 10, 5, 0.5},
		{15, 10, 5, 0.8413447460685429},
	}
	for _, c := range cases {
		got := NormalCDF(c.x, c.mu, c.sigma)
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%v,%v,%v) = %v, want %v", c.x, c.mu, c.sigma, got, c.want)
		}
	}
}

func TestNormalCDFDegenerate(t *testing.T) {
	if NormalCDF(1, 2, 0) != 0 || NormalCDF(3, 2, 0) != 1 || NormalCDF(2, 2, 0) != 1 {
		t.Fatal("degenerate CDF wrong")
	}
	if NormalTail(1, 2, 0) != 1 || NormalTail(3, 2, 0) != 0 {
		t.Fatal("degenerate tail wrong")
	}
}

func TestNormalCDFMonotoneSymmetricProperty(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := float64(a)/1000, float64(b)/1000
		if x > y {
			x, y = y, x
		}
		cx, cy := NormalCDF(x, 0, 1), NormalCDF(y, 0, 1)
		if cx > cy+1e-15 {
			return false
		}
		// symmetry: F(x) + F(-x) = 1
		return almostEqual(NormalCDF(x, 0, 1)+NormalCDF(-x, 0, 1), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalTailDeepAccuracy(t *testing.T) {
	// At x=10σ the tail is ~7.6e-24; the naive 1−CDF would return 0.
	tail := NormalTail(10, 0, 1)
	if tail <= 0 || tail > 1e-20 {
		t.Fatalf("deep tail = %v, want ~7.6e-24", tail)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-6, 0.001, 0.025, 0.5, 0.8, 0.975, 0.999999} {
		x := NormalQuantile(p)
		back := NormalCDF(x, 0, 1)
		if !almostEqual(back, p, 1e-10*(1+1/p)) && !almostEqual(back, p, 1e-12) {
			t.Errorf("quantile round-trip p=%v: x=%v back=%v", p, x, back)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("quantile endpoints wrong")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) || !math.IsNaN(NormalQuantile(2)) {
		t.Fatal("out-of-range quantile should be NaN")
	}
}

func TestPhiBehaviour(t *testing.T) {
	// At the mean, P_later = 0.5 so φ = log10(2) ≈ 0.301.
	got := Phi(100, 100, 10)
	if !almostEqual(got, math.Log10(2), 1e-9) {
		t.Fatalf("Phi at mean = %v, want %v", got, math.Log10(2))
	}
	// φ is nondecreasing in t.
	prev := -1.0
	for tt := 0.0; tt < 300; tt += 5 {
		p := Phi(tt, 100, 10)
		if p < prev-1e-12 {
			t.Fatalf("Phi not monotone at t=%v", tt)
		}
		prev = p
	}
	// Extremely late heartbeat: clamped.
	if Phi(1e9, 100, 10) != PhiMax {
		t.Fatal("Phi not clamped at PhiMax")
	}
	// Early times give φ ≈ 0 but never negative.
	if Phi(0, 100, 10) < 0 {
		t.Fatal("Phi negative")
	}
}

func TestPhiInverseRoundTrip(t *testing.T) {
	mu, sigma := 100.0, 12.0
	for _, thr := range []float64{0.5, 1, 2, 4, 8, 12, 16} {
		tt := PhiInverse(thr, mu, sigma)
		back := Phi(tt, mu, sigma)
		if !almostEqual(back, thr, 1e-6*(1+thr)) {
			t.Errorf("PhiInverse round-trip thr=%v: t=%v back=%v", thr, tt, back)
		}
	}
	if PhiInverse(0, 5, 1) != 5 {
		t.Fatal("threshold 0 should give the mean")
	}
}

func TestPhiInverseMonotoneInThreshold(t *testing.T) {
	prev := math.Inf(-1)
	for thr := 0.5; thr <= 16; thr += 0.5 {
		v := PhiInverse(thr, 100, 10)
		if v <= prev {
			t.Fatalf("PhiInverse not strictly increasing at thr=%v", thr)
		}
		prev = v
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)  // underflow
	h.Add(100) // overflow
	if h.Total() != 12 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Underflow() != 1 || h.Overflow() != 1 {
		t.Fatal("under/overflow wrong")
	}
	for i := 0; i < 10; i++ {
		if h.Bin(i) != 1 {
			t.Fatalf("bin %d = %d, want 1", i, h.Bin(i))
		}
	}
	if h.NumBins() != 10 {
		t.Fatal("NumBins wrong")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 100))
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("median = %v, want ~50", med)
	}
	if h.Quantile(0) != h.moments.Min() || h.Quantile(1) != h.moments.Max() {
		t.Fatal("quantile endpoints wrong")
	}
}

func TestHistogramSketch(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if h.Sketch(20) != "(empty)\n" {
		t.Fatal("empty sketch wrong")
	}
	h.Add(1)
	h.Add(1)
	h.Add(7)
	s := h.Sketch(20)
	if len(s) == 0 {
		t.Fatal("sketch empty for nonempty histogram")
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestQuantilesBatch(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	qs, err := Quantiles(xs, 0, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != 1 || qs[1] != 5 || qs[2] != 9 {
		t.Fatalf("quantiles = %v", qs)
	}
	if _, err := Quantiles(nil, 0.5); err != ErrNoSamples {
		t.Fatal("empty Quantiles should error")
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
	if !almostEqual(fit.Predict(10), 21, 1e-12) {
		t.Fatal("Predict wrong")
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err != ErrNoSamples {
		t.Fatal("single point should error")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err != ErrNoSamples {
		t.Fatal("mismatched lengths should error")
	}
	fit, err := FitLine([]float64{5, 5, 5}, []float64{1, 2, 3})
	if err != nil || fit.Slope != 0 || fit.Intercept != 2 {
		t.Fatalf("zero-variance x fit = %+v, %v", fit, err)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Constant series: zero denominator → 0.
	if r, _ := Autocorrelation([]float64{3, 3, 3}, 1); r != 0 {
		t.Fatal("constant series autocorrelation should be 0")
	}
	// Lag 0 of any non-constant series is 1.
	r, err := Autocorrelation([]float64{1, 2, 3, 4}, 0)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("lag-0 = %v, %v", r, err)
	}
	// Alternating series has strongly negative lag-1 autocorrelation.
	alt := make([]float64, 100)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	r, _ = Autocorrelation(alt, 1)
	if r > -0.9 {
		t.Fatalf("alternating lag-1 = %v, want ~-1", r)
	}
	if _, err := Autocorrelation(nil, 0); err != ErrNoSamples {
		t.Fatal("empty should error")
	}
	if _, err := Autocorrelation([]float64{1, 2}, 5); err != ErrNoSamples {
		t.Fatal("lag >= n should error")
	}
}
