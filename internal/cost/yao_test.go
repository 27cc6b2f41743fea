package cost

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// yaoLoop is Yao's formula evaluated factor by factor, O(t): the
// definition, kept as the oracle the closed form is checked against.
func yaoLoop(t, n, m float64) float64 {
	if t <= 0 || n <= 0 || m <= 0 {
		return 0
	}
	if m > n {
		m = n
	}
	if t >= n {
		return m
	}
	perPage := n / m
	ti := int(math.Floor(t))
	frac := t - float64(ti)
	prod := 1.0
	for i := 1; i <= ti; i++ {
		num := n - perPage - float64(i) + 1
		den := n - float64(i) + 1
		if num <= 0 || den <= 0 {
			prod = 0
			break
		}
		prod *= num / den
		if prod < 1e-300 {
			prod = 0
			break
		}
	}
	if frac > 0 && prod > 0 {
		num := n - perPage - float64(ti+1) + 1
		den := n - float64(ti+1) + 1
		if num <= 0 || den <= 0 {
			prod = 0
		} else {
			prod *= math.Pow(num/den, frac)
		}
	}
	return m * (1 - prod)
}

// yaoClose reports whether got matches the oracle within rel, relative to
// max(1, oracle).
func yaoClose(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(1, want)
}

func TestYaoBoundaries(t *testing.T) {
	if got := Yao(0, 100, 10); got != 0 {
		t.Errorf("Yao(0,..) = %g, want 0", got)
	}
	if got := Yao(5, 0, 10); got != 0 {
		t.Errorf("Yao(t,0,m) = %g, want 0", got)
	}
	if got := Yao(5, 100, 0); got != 0 {
		t.Errorf("Yao(t,n,0) = %g, want 0", got)
	}
	// Retrieving all records touches all pages.
	if got := Yao(100, 100, 10); math.Abs(got-10) > 1e-9 {
		t.Errorf("Yao(all) = %g, want 10", got)
	}
	if got := Yao(200, 100, 10); math.Abs(got-10) > 1e-9 {
		t.Errorf("Yao(t>n) = %g, want 10", got)
	}
	// One record from one page per record: exactly 1 page.
	if got := Yao(1, 100, 100); math.Abs(got-1) > 1e-9 {
		t.Errorf("Yao(1,100,100) = %g, want 1", got)
	}
}

func TestYaoKnownValue(t *testing.T) {
	// n=100 records, m=10 pages (10 per page), t=1: expected pages = 1.
	if got := Yao(1, 100, 10); math.Abs(got-1) > 1e-9 {
		t.Errorf("Yao(1,100,10) = %g, want 1", got)
	}
	// t=2: 10*(1 - (90/100)*(89/99)) = 10*(1-0.809090..) = 1.9090...
	want := 10 * (1 - (90.0/100.0)*(89.0/99.0))
	if got := Yao(2, 100, 10); math.Abs(got-want) > 1e-9 {
		t.Errorf("Yao(2,100,10) = %g, want %g", got, want)
	}
}

func TestYaoMatchesLoopOnGrid(t *testing.T) {
	for _, n := range []float64{100, 1000, 12345, 1e5, 1e6} {
		ms := []float64{1, 2, 3, 7, 64, n / 1000, n / 7, n / 3, n / 2, n - 1, n}
		ts := []float64{1, 2, 7, yaoLoopMax - 1, yaoLoopMax, yaoLoopMax + 0.5, 100, 1000.25, n / 3, n - 1.5}
		for _, m := range ms {
			if m < 1 {
				continue
			}
			for _, tt := range ts {
				got, want := Yao(tt, n, m), yaoLoop(tt, n, m)
				if !yaoClose(got, want, 1e-6) {
					t.Errorf("Yao(%g, %g, %g) = %.12g, loop %.12g", tt, n, m, got, want)
				}
			}
		}
	}
}

func TestYaoNoCancellationAtLargeN(t *testing.T) {
	// Two records on two-record pages among 1e7: both pages are distinct
	// to within 2e-7. Four subtracted lnΓ values return 1.788 here.
	if got := Yao(2, 1e7, 5e6); math.Abs(got-2) > 1e-6 {
		t.Errorf("Yao(2, 1e7, 5e6) = %.9g, want 2", got)
	}
	// The same geometry through the closed form.
	for _, tt := range []float64{yaoLoopMax, 1000, 123456.5} {
		got, want := Yao(tt, 1e7, 5e6), yaoLoop(tt, 1e7, 5e6)
		if !yaoClose(got, want, 1e-9) {
			t.Errorf("Yao(%g, 1e7, 5e6) = %.12g, loop %.12g", tt, got, want)
		}
	}
}

func TestYaoProperties(t *testing.T) {
	// 0 <= Yao <= min(t, m); monotone in t.
	f := func(rt, rn, rm uint16) bool {
		tt := float64(rt%1000) + 1
		n := float64(rn%10000) + 1
		m := float64(rm%100) + 1
		got := Yao(tt, n, m)
		if got < 0 || got > math.Min(n, m)+1e-9 || got > tt+1e-9 {
			return false
		}
		return Yao(tt+1, n, m) >= got-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestYaoContinuous(t *testing.T) {
	// Across integer t (the geometric interpolation meets the next
	// factor) and across the loop/closed-form cutoff, a step of 1e-9 in t
	// moves the estimate by no more than a step's worth.
	const n, m, eps = 20000.0, 300.0, 1e-9
	for _, k := range []float64{1, 2, yaoLoopMax - 1, yaoLoopMax, yaoLoopMax + 1, 500, 5000} {
		below, at, above := Yao(k-eps, n, m), Yao(k, n, m), Yao(k+eps, n, m)
		if math.Abs(at-below) > 1e-7 || math.Abs(above-at) > 1e-7 {
			t.Errorf("Yao jumps at t=%g: %.12g, %.12g, %.12g", k, below, at, above)
		}
		if below > at+1e-9 || at > above+1e-9 {
			t.Errorf("Yao not monotone at t=%g: %.12g, %.12g, %.12g", k, below, at, above)
		}
	}
}

func FuzzYao(f *testing.F) {
	f.Add(2.0, 1e7, 5e6)
	f.Add(1000.25, 20000.0, 300.0)
	f.Add(15.5, 100.0, 100.0)
	f.Add(99998.5, 1e5, 3.0)
	f.Fuzz(func(t *testing.T, tt, n, m float64) {
		// The oracle is O(t): bound the record count, and keep the
		// arguments finite.
		if !(tt > 0 && tt <= 2e6) || !(n > 0 && n <= 1e9) || !(m > 0 && m <= 1e9) {
			t.Skip()
		}
		got, want := Yao(tt, n, m), yaoLoop(tt, n, m)
		if !yaoClose(got, want, 1e-6) {
			t.Errorf("Yao(%g, %g, %g) = %.12g, loop %.12g", tt, n, m, got, want)
		}
	})
}

var yaoSink float64

func BenchmarkYao(b *testing.B) {
	for _, tt := range []float64{2, 50, 5000} {
		b.Run(fmt.Sprintf("t=%g", tt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				yaoSink = Yao(tt, 20000, 300)
			}
		})
	}
}
