// Package core implements the paper's primary contribution (Sections 4–5):
// index configurations for a path and the selection algorithm that finds
// the optimal one. The algorithm consists of three procedures:
//
//	Cost_Matrix  — the processing cost of each of the n(n+1)/2 subpaths
//	               under each index organization (Section 5, Figure 6);
//	Min_Cost     — the per-subpath minimum over organizations;
//	Opt_Ind_Con  — branch-and-bound search over the 2^(n-1) recombinations
//	               of subpaths into a partition of the path.
//
// Two reference implementations — exhaustive enumeration and an O(n^2)
// dynamic program over path prefixes — cross-check the branch-and-bound
// result and serve as baselines for the complexity experiments.
//
// The matrix is stored as a dense triangular array with the Min_Cost
// minima precomputed (see matrix.go), and each search procedure has an
// Into variant that reuses the caller's result buffers, so the search loop
// itself performs no allocations.
package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cost"
	"repro/internal/model"
)

// Assignment is one pair <S_i, X_i> of Definition 4.1: the subpath
// [A..B] (1-based global levels) and the index organization allocated to it.
type Assignment struct {
	A, B int
	Org  cost.Organization
}

// Configuration is an index configuration IC_m(P): a sequence of
// assignments whose subpaths concatenate to the whole path.
type Configuration struct {
	Assignments []Assignment
	Cost        float64
}

// Degree returns m, the number of subpaths in the configuration.
func (c Configuration) Degree() int { return len(c.Assignments) }

// String renders the configuration in the paper's notation, e.g.
// {(C1.A1, MX), (C2.A2.A3.A4, NIX)}.
func (c Configuration) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range c.Assignments {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(S%d-%d, %s)", a.A, a.B, a.Org)
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports whether two configurations allocate the same organizations
// to the same subpaths. Costs are not compared: the same configuration may
// be priced against different statistics.
func (c Configuration) Equal(o Configuration) bool {
	if len(c.Assignments) != len(o.Assignments) {
		return false
	}
	for i, a := range c.Assignments {
		if a != o.Assignments[i] {
			return false
		}
	}
	return true
}

// Validate checks that the assignments partition the 1..n levels.
func (c Configuration) Validate(n int) error {
	if len(c.Assignments) == 0 {
		return fmt.Errorf("core: empty configuration")
	}
	want := 1
	for _, a := range c.Assignments {
		if a.A != want {
			return fmt.Errorf("core: subpath [%d,%d] does not start at level %d", a.A, a.B, want)
		}
		if a.B < a.A {
			return fmt.Errorf("core: subpath [%d,%d] inverted", a.A, a.B)
		}
		want = a.B + 1
	}
	if want != n+1 {
		return fmt.Errorf("core: configuration covers levels up to %d, want %d", want-1, n)
	}
	return nil
}

// SelectionStats reports the work done by a selection procedure.
type SelectionStats struct {
	// Evaluated counts complete configurations whose total cost was
	// computed (the paper reports 4 of 8 for Example 5.1).
	Evaluated int
	// Pruned counts partial configurations cut off by the bound.
	Pruned int
	// TotalConfigurations is 2^(n-1), the size of the search space.
	TotalConfigurations int
}

// Result couples the optimal configuration with selection statistics.
type Result struct {
	Best  Configuration
	Stats SelectionStats
}

// maxStackPath is the longest path whose search scratch fits fixed-size
// stack arrays; longer paths (whose 2^(n-1) search space would be
// intractable anyway) fall back to heap-allocated scratch.
const maxStackPath = 64

// OptIndCon is the Opt_Ind_Con procedure of Section 5: branch-and-bound
// over all recombinations of subpaths. It starts from the degree-1
// configuration {P, minOrg(P)}, then recursively splits the trailing
// subpath, abandoning any prefix whose accumulated cost already reaches
// the best known total.
func (m *Matrix) OptIndCon() Result {
	var res Result
	m.OptIndConInto(&res)
	return res
}

// OptIndConInto is OptIndCon writing into res, reusing res's configuration
// buffer. The search keeps the running prefix as a stack of subpath end
// positions instead of copying assignment slices per node, so repeated
// calls on a fixed matrix do not allocate.
func (m *Matrix) OptIndConInto(res *Result) {
	n := m.N
	minVal, rowStart := m.minVal, m.rowStart
	stats := SelectionStats{TotalConfigurations: 1 << (n - 1)}

	// Degree-1 configuration.
	bestCost := minVal[rowStart[0]+n-1]
	stats.Evaluated = 1

	// ends[d] is the end level of the subpath chosen at depth d of the
	// current prefix; best holds the end levels of the best configuration.
	var endsBuf, bestBuf, startsBuf, hsBuf [maxStackPath]int
	var pcostsBuf [maxStackPath]float64
	ends, best, starts, hs, pcosts := endsBuf[:], bestBuf[:], startsBuf[:], hsBuf[:], pcostsBuf[:]
	if n > maxStackPath {
		ends, best = make([]int, n), make([]int, n)
		starts, hs = make([]int, n), make([]int, n)
		pcosts = make([]float64, n)
	}
	best[0] = n
	bestLen := 1

	// Iterative depth-first traversal of the paper's recursion: the frame
	// at depth d splits the suffix [starts[d]..n] at head end hs[d],
	// carrying the accumulated prefix cost pcosts[d].
	depth := 0
	starts[0], pcosts[0], hs[0] = 1, 0, n-1
	for depth >= 0 {
		start, h := starts[depth], hs[depth]
		if h < start {
			depth--
			continue
		}
		hs[depth]--
		c := minVal[rowStart[start-1]+h-start]
		pc := pcosts[depth]
		if pc+c >= bestCost {
			// Bound: configurations containing this prefix+head cannot
			// beat the best found so far (the paper prunes on >=).
			stats.Pruned++
			continue
		}
		ends[depth] = h
		// Close with the cheapest single index on the remainder [h+1..n].
		total := pc + c + minVal[rowStart[h]+n-h-1]
		stats.Evaluated++
		if total < bestCost {
			bestCost = total
			copy(best[:depth+1], ends[:depth+1])
			best[depth+1] = n
			bestLen = depth + 2
		}
		// Recurse: split the remainder further.
		depth++
		starts[depth] = h + 1
		pcosts[depth] = pc + c
		hs[depth] = n - 1
	}

	asg := res.Best.Assignments[:0]
	a := 1
	for i := 0; i < bestLen; i++ {
		b := best[i]
		ti := rowStart[a-1] + b - a
		asg = append(asg, Assignment{A: a, B: b, Org: m.Orgs[m.minCol[ti]]})
		a = b + 1
	}
	res.Best = Configuration{Assignments: asg, Cost: bestCost}
	res.Stats = stats
}

// Exhaustive enumerates all 2^(n-1) recombinations and returns the true
// optimum. It is the paper's "compute the processing cost of all possible
// recombinations" baseline.
func (m *Matrix) Exhaustive() Result {
	var res Result
	m.ExhaustiveInto(&res)
	return res
}

// ExhaustiveInto is Exhaustive writing into res, reusing res's
// configuration buffer. Candidates are scored as split bitmasks and only
// the winner is materialized, so the enumeration loop does not allocate.
func (m *Matrix) ExhaustiveInto(res *Result) {
	n := m.N
	minVal, rowStart := m.minVal, m.rowStart
	stats := SelectionStats{TotalConfigurations: 1 << (n - 1)}
	bestCost := math.Inf(1)
	bestMask := 0
	for mask := 0; mask < 1<<(n-1); mask++ {
		// Bit i set means a split between level i+1 and i+2.
		var total float64
		a := 1
		for b := 1; b <= n; b++ {
			if b == n || mask&(1<<(b-1)) != 0 {
				total += minVal[rowStart[a-1]+b-a]
				a = b + 1
			}
		}
		stats.Evaluated++
		if total < bestCost {
			bestCost, bestMask = total, mask
		}
	}
	asg := res.Best.Assignments[:0]
	a := 1
	for b := 1; b <= n; b++ {
		if b == n || bestMask&(1<<(b-1)) != 0 {
			ti := rowStart[a-1] + b - a
			asg = append(asg, Assignment{A: a, B: b, Org: m.Orgs[m.minCol[ti]]})
			a = b + 1
		}
	}
	res.Best = Configuration{Assignments: asg, Cost: bestCost}
	res.Stats = stats
}

// DP computes the optimum with an O(n^2) dynamic program over prefixes:
// best(b) = min over a<=b of best(a-1) + minCost(a,b). This extension
// (not in the paper) is provably optimal because subpath costs are
// independent (Proposition 4.2), and cross-checks Opt_Ind_Con.
func (m *Matrix) DP() Result {
	var res Result
	m.DPInto(&res)
	return res
}

// DPInto is DP writing into res, reusing res's configuration buffer.
func (m *Matrix) DPInto(res *Result) {
	n := m.N
	minVal, rowStart := m.minVal, m.rowStart
	stats := SelectionStats{TotalConfigurations: 1 << (n - 1)}
	var bestBuf [maxStackPath + 1]float64
	var fromBuf [maxStackPath + 1]int
	best, from := bestBuf[:n+1], fromBuf[:n+1]
	if n+1 > len(bestBuf) {
		best, from = make([]float64, n+1), make([]int, n+1)
	}
	for b := 1; b <= n; b++ {
		best[b] = math.Inf(1)
		for a := 1; a <= b; a++ {
			c := minVal[rowStart[a-1]+b-a]
			stats.Evaluated++
			if v := best[a-1] + c; v < best[b] {
				best[b] = v
				from[b] = a
			}
		}
	}
	deg := 0
	for b := n; b >= 1; b = from[b] - 1 {
		deg++
	}
	asg := res.Best.Assignments[:0]
	if cap(asg) < deg {
		asg = make([]Assignment, deg)
	} else {
		asg = asg[:deg]
	}
	i := deg - 1
	for b := n; b >= 1; b = from[b] - 1 {
		a := from[b]
		ti := rowStart[a-1] + b - a
		asg[i] = Assignment{A: a, B: b, Org: m.Orgs[m.minCol[ti]]}
		i--
	}
	res.Best = Configuration{Assignments: asg, Cost: best[n]}
	res.Stats = stats
}

// ConfigurationCost prices an explicit configuration against the matrix
// (Proposition 4.2: the sum of its subpath costs, each under its assigned
// organization).
func (m *Matrix) ConfigurationCost(c Configuration) (float64, error) {
	if err := c.Validate(m.N); err != nil {
		return 0, err
	}
	var total float64
	for _, a := range c.Assignments {
		v, ok := m.Cell(a.A, a.B, a.Org)
		if !ok {
			return 0, fmt.Errorf("core: no matrix cell for [%d,%d] %v", a.A, a.B, a.Org)
		}
		total += v
	}
	return total, nil
}

// Select runs the full selection on path statistics: Cost_Matrix, Min_Cost
// and the O(n^2) dynamic program DP, which returns the same optimum as
// Opt_Ind_Con (Proposition 4.2). It returns the optimal configuration, its
// cost, and the matrix for inspection; callers after the paper's
// branch-and-bound trace run OptIndCon on the returned matrix.
func Select(ps *model.PathStats, orgs []cost.Organization) (Result, *Matrix, error) {
	m, err := NewMatrixFromStats(ps, orgs)
	if err != nil {
		return Result{}, nil, err
	}
	return m.DP(), m, nil
}
