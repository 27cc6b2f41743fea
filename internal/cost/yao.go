// Package cost implements the analytic cost models of Section 3 of the
// paper: Yao's page-access estimator, the single-record and record-set
// retrieval/maintenance functions CRL, CML, CRT and CMT, B+-tree geometry,
// and the per-organization query and maintenance costs for the MX, MIX and
// NIX index organizations, including the configuration boundary cost of
// Definition 4.2. All costs are expressed in expected page accesses.
package cost

import "math"

// Yao estimates the number of page accesses (npa) needed to retrieve t
// records out of n records uniformly distributed over m pages, using the
// formula of Yao [Comm. ACM 20(4), 1977]:
//
//	npa(t, n, m) = m * (1 - prod_{i=1}^{t} (n - n/m - i + 1) / (n - i + 1))
//
// Boundary behaviour: 0 when t or n or m is non-positive; m when t >= n
// (every page is touched); fractional t (arising from chained expected
// record counts) interpolates the final factor geometrically.
//
// The cost does not depend on t: the product over the integer part of t is
// evaluated in closed form (yaoLogProduct) once it has yaoLoopMax factors
// or more, and by the exact loop below that.
func Yao(t, n, m float64) float64 {
	if t <= 0 || n <= 0 || m <= 0 {
		return 0
	}
	if m > n {
		m = n // cannot spread n records over more than n non-empty pages
	}
	if t >= n {
		return m
	}
	perPage := n / m
	k := math.Floor(t)
	frac := t - k
	// The smallest numerator, n - perPage - k + 1, decides whether the
	// product reaches zero: t records no longer fit on the other pages.
	if n-perPage-k+1 <= 0 {
		return m
	}
	// Fractional t interpolates the next factor geometrically — the
	// factor raised to the fraction, here as a term of the product's
	// logarithm — so that chained estimates (t fed from a lower level's
	// npa) vary continuously.
	var tail float64
	if frac > 0 {
		num := n - perPage - k
		if num <= 0 {
			return m
		}
		tail = frac * math.Log(num/(n-k))
	}
	if k >= yaoLoopMax {
		return m * (1 - math.Exp(yaoLogProduct(n, perPage, k)+tail))
	}
	prod := 1.0
	for i := 1.0; i <= k; i++ {
		prod *= (n - perPage - i + 1) / (n - i + 1)
	}
	if frac > 0 {
		prod *= math.Exp(tail)
	}
	return m * (1 - prod)
}

const (
	// yaoLoopMax is the number of factors from which the closed form is
	// used: below it the loop is exact and costs less than the closed
	// form's three log1p calls and one exp.
	yaoLoopMax = 16
	// stirlingMin is the smallest argument the four-term Stirling
	// correction is evaluated at; its truncation error there is
	// 1/(1188 z^9) < 2e-14.
	stirlingMin = 16
)

// yaoLogProduct returns ln prod_{i=1}^{k} (n - p - i + 1) / (n - i + 1) for
// an integer k >= 1 with n - p - k + 1 > 0, in time independent of k.
//
// The product is a ratio of falling factorials,
// [Γ(A1)/Γ(B1)] / [Γ(A2)/Γ(B2)] with A2 = n+1, A1 = A2-p, B = A-k.
// Subtracting four lnΓ values cancels catastrophically — each is ~n ln n
// while the result is ~k p/n — so Stirling's series
// lnΓ(z) = (z-½) ln z - z + ½ ln 2π + S(z) is differenced term by term:
//
//	lnΓ(A) - lnΓ(B) = k ln A + (B-½) log1p(k/B) - k + S(A) - S(B)
//
// and between the two factorials the k ln A terms combine into one log1p
// and the -k terms vanish. What is left loses about k ulps absolutely,
// the same as the loop's k roundings.
func yaoLogProduct(n, p, k float64) float64 {
	// Stirling's correction needs arguments of stirlingMin or more: peel
	// the trailing factors, whose numerators are the small ones, exactly.
	var lead float64
	for b1 := n - p - k + 1; b1 < stirlingMin && k > 0; b1++ {
		lead += math.Log(b1 / (b1 + p))
		k--
	}
	a2 := n + 1
	a1 := a2 - p
	b1, b2 := a1-k, a2-k
	return lead + k*math.Log1p(-p/a2) +
		(b1-0.5)*math.Log1p(k/b1) - (b2-0.5)*math.Log1p(k/b2) +
		(stirling(a1) - stirling(a2)) - (stirling(b1) - stirling(b2))
}

// stirling is S(z) = 1/(12z) - 1/(360z³) + 1/(1260z⁵) - 1/(1680z⁷), the
// correction series of lnΓ.
func stirling(z float64) float64 {
	r := 1 / z
	r2 := r * r
	return r * (1.0/12 - r2*(1.0/360-r2*(1.0/1260-r2*(1.0/1680))))
}
