package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cost"
	"repro/internal/model"
)

// MatrixEntry is one cell of the cost matrix: the processing cost of a
// subpath under one organization, with its decomposition.
type MatrixEntry struct {
	SC cost.SubpathCost
}

// Matrix is the Cost_Matrix of Section 5: for every subpath [a..b]
// (1-based) the processing cost under each organization.
//
// Storage is a dense upper-triangular array: subpath [a,b] lives at
// triangular index rowStart[a-1]+(b-a), and the cells of one subpath are
// contiguous, one per organization column. The per-subpath minimum
// (Min_Cost) is precomputed at construction, so the selection procedures
// never rescan a row.
type Matrix struct {
	N    int
	Orgs []cost.Organization

	rowStart []int         // rowStart[a-1] = triangular index of [a,a]
	entries  []MatrixEntry // nsub*len(Orgs), grouped by subpath
	totals   []float64     // entries[i].SC.Total(), cached
	minCol   []uint16      // per subpath: column of the cheapest organization
	minVal   []float64     // per subpath: its cost (the Min_Cost value)
	cols     []int16       // organization value -> column, -1 when absent
}

// nsub returns the number of subpaths, n(n+1)/2.
func (m *Matrix) nsub() int { return m.N * (m.N + 1) / 2 }

// newMatrix dimensions an empty matrix for a path of length n over orgs.
func newMatrix(n int, orgs []cost.Organization) *Matrix {
	k := len(orgs)
	nsub := n * (n + 1) / 2
	m := &Matrix{
		N:        n,
		Orgs:     orgs,
		rowStart: make([]int, n),
		entries:  make([]MatrixEntry, nsub*k),
		totals:   make([]float64, nsub*k),
		minCol:   make([]uint16, nsub),
		minVal:   make([]float64, nsub),
	}
	start := 0
	for a := 1; a <= n; a++ {
		m.rowStart[a-1] = start
		start += n - a + 1
	}
	m.cols = make([]int16, int(slices.Max(orgs))+1)
	for i := range m.cols {
		m.cols[i] = -1
	}
	for i, o := range orgs {
		m.cols[o] = int16(i)
	}
	return m
}

// finalize caches per-cell totals and the per-subpath minimum. Ties break
// toward the earlier organization in m.Orgs, i.e. the paper's column order.
func (m *Matrix) finalize() {
	k := len(m.Orgs)
	for ti := 0; ti < m.nsub(); ti++ {
		base := ti * k
		bestCol := 0
		bestV := m.entries[base].SC.Total()
		m.totals[base] = bestV
		for c := 1; c < k; c++ {
			v := m.entries[base+c].SC.Total()
			m.totals[base+c] = v
			if v < bestV {
				bestCol, bestV = c, v
			}
		}
		m.minCol[ti] = uint16(bestCol)
		m.minVal[ti] = bestV
	}
}

// index returns the triangular index of subpath [a,b], or false when the
// bounds are invalid.
func (m *Matrix) index(a, b int) (int, bool) {
	if a < 1 || b < a || b > m.N {
		return 0, false
	}
	return m.rowStart[a-1] + b - a, true
}

// col resolves an organization to its column, -1 when absent.
func (m *Matrix) col(org cost.Organization) int {
	if org < 0 || int(org) >= len(m.cols) {
		return -1
	}
	return int(m.cols[org])
}

// checkOrgs rejects organizations outside the known set and duplicates,
// which would shadow a column.
func checkOrgs(orgs []cost.Organization) error {
	for i, o := range orgs {
		if !slices.Contains(cost.OrganizationsExtended, o) {
			return fmt.Errorf("core: unknown organization %v", o)
		}
		if slices.Contains(orgs[:i], o) {
			return fmt.Errorf("core: organization %v listed twice", o)
		}
	}
	return nil
}

// NewMatrixFromStats computes the full cost matrix of a path from its
// statistics and workload. orgs defaults to the paper's {MX, MIX, NIX}.
// One evaluator prices the cells serially in its own scratch; a cell
// allocates nothing and costs a fraction of a microsecond (MX, MIX) to tens
// of microseconds (a long NIX subpath; DESIGN.md §2). A cell whose cost is
// not finite is an error: a path of +Inf configurations has no optimum.
func NewMatrixFromStats(ps *model.PathStats, orgs []cost.Organization) (*Matrix, error) {
	if len(orgs) == 0 {
		orgs = cost.Organizations
	}
	if err := checkOrgs(orgs); err != nil {
		return nil, err
	}
	sh, err := cost.NewShared(ps)
	if err != nil {
		return nil, err
	}
	m := newMatrix(ps.Len(), orgs)
	k := len(orgs)
	var e cost.Evaluator
	for a := 1; a <= m.N; a++ {
		for b := a; b <= m.N; b++ {
			base := (m.rowStart[a-1] + b - a) * k
			for i, org := range orgs {
				if err := e.Reset(sh, a, b, org); err != nil {
					return nil, fmt.Errorf("core: subpath [%d,%d] %v: %w", a, b, org, err)
				}
				sc := cost.ProcessingCost(&e)
				if t := sc.Total(); math.IsInf(t, 0) || math.IsNaN(t) {
					sub, _ := ps.Path.SubPath(a, b)
					return nil, fmt.Errorf("core: subpath [%d,%d] %s under %v: processing cost %g is not finite: a statistic or load of its levels overflows the cost model", a, b, sub, org, t)
				}
				m.entries[base+i] = MatrixEntry{SC: sc}
			}
		}
	}
	m.finalize()
	return m, nil
}

// NewMatrixFromValues builds a matrix from explicit per-cell costs, as in
// the hypothetical matrix of Figure 6. values maps [a,b] to a cost per
// organization, ordered like orgs.
func NewMatrixFromValues(n int, orgs []cost.Organization, values map[[2]int][]float64) (*Matrix, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: path length %d", n)
	}
	if len(orgs) == 0 {
		orgs = cost.Organizations
	}
	if err := checkOrgs(orgs); err != nil {
		return nil, err
	}
	m := newMatrix(n, orgs)
	for a := 1; a <= n; a++ {
		for b := a; b <= n; b++ {
			vs, ok := values[[2]int{a, b}]
			if !ok {
				return nil, fmt.Errorf("core: missing costs for subpath [%d,%d]", a, b)
			}
			if len(vs) != len(orgs) {
				return nil, fmt.Errorf("core: subpath [%d,%d] has %d costs for %d organizations", a, b, len(vs), len(orgs))
			}
			base := m.rowStart[a-1] + b - a
			for i, v := range vs {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("core: invalid cost %g for subpath [%d,%d]", v, a, b)
				}
				m.entries[base*len(orgs)+i] = MatrixEntry{SC: cost.SubpathCost{A: a, B: b, Org: orgs[i], Query: v}}
			}
		}
	}
	m.finalize()
	return m, nil
}

// Cell returns the cost of subpath [a..b] under org.
func (m *Matrix) Cell(a, b int, org cost.Organization) (float64, bool) {
	ti, ok := m.index(a, b)
	if !ok {
		return 0, false
	}
	c := m.col(org)
	if c < 0 {
		return 0, false
	}
	return m.totals[ti*len(m.Orgs)+c], true
}

// Entry returns the full matrix entry of subpath [a..b] under org.
func (m *Matrix) Entry(a, b int, org cost.Organization) (MatrixEntry, bool) {
	ti, ok := m.index(a, b)
	if !ok {
		return MatrixEntry{}, false
	}
	c := m.col(org)
	if c < 0 {
		return MatrixEntry{}, false
	}
	return m.entries[ti*len(m.Orgs)+c], true
}

// MinCost is the Min_Cost procedure: the cheapest organization for subpath
// [a..b] and its cost (the underlined value in Figure 6), precomputed at
// construction. Ties break toward the earlier organization in m.Orgs, i.e.
// the paper's column order.
func (m *Matrix) MinCost(a, b int) (cost.Organization, float64) {
	ti, ok := m.index(a, b)
	if !ok {
		panic(fmt.Sprintf("core: Min_Cost of invalid subpath [%d,%d] for path of length %d", a, b, m.N))
	}
	return m.Orgs[m.minCol[ti]], m.minVal[ti]
}

// Rows returns all subpath bounds in the matrix, in the paper's order
// (shorter starting positions first).
func (m *Matrix) Rows() [][2]int {
	out := make([][2]int, 0, m.nsub())
	for a := 1; a <= m.N; a++ {
		for b := a; b <= m.N; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}
