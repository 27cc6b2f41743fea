package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/raceflag"
)

// goldenPaths are the paths whose matrices are pinned bit for bit: the 64
// shapes of the advise pool (pool[0] is Figure 7, whose matrix is the
// paper's Figure 8), then Figure 7 with range-priced queries and Figure 7
// with a Rho on every class, so that the range probe table is in the hash.
func goldenPaths(tb testing.TB) []*model.PathStats {
	tb.Helper()
	paths := advisePool(tb)
	sel := model.Figure7Stats()
	sel.Selectivity = 0.05
	rho := model.Figure7Stats()
	for l := range rho.Levels {
		for x := range rho.Levels[l].Loads {
			rho.Levels[l].Loads[x].Rho = 0.01 * float64(1+l+x)
		}
	}
	return append(paths, sel, rho)
}

// matrixHash is an FNV-64a over the bits of every cell's Query, Maint and
// CMD, in Rows x Orgs order.
func matrixHash(tb testing.TB, ps *model.PathStats, orgs []cost.Organization) uint64 {
	tb.Helper()
	m, err := core.NewMatrixFromStats(ps, orgs)
	if err != nil {
		tb.Fatal(err)
	}
	h := fnv.New64a()
	var buf [24]byte
	for _, ab := range m.Rows() {
		for _, org := range orgs {
			e, ok := m.Entry(ab[0], ab[1], org)
			if !ok {
				tb.Fatalf("missing cell %s", cellName(ab[0], ab[1], org))
			}
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(e.SC.Query))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.SC.Maint))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(e.SC.CMD))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestMatrixCellsGolden pins every cell of every golden path, over the
// advise workload's columns and over the extended set, to the bits the
// cost model produced before its cells were restructured (PR 19: the table
// in golden_table_test.go was generated on the parent commit). A mismatch
// means a cost changed in some bit — a reordered sum, a different descent
// — and with it, possibly, a selection: it is never fixed by regenerating
// the table without saying so in DESIGN.md §2.
func TestMatrixCellsGolden(t *testing.T) {
	paths := goldenPaths(t)
	if len(goldenHashes) != len(paths) {
		t.Fatalf("golden table has %d rows for %d paths", len(goldenHashes), len(paths))
	}
	for i, ps := range paths {
		got := [2]uint64{matrixHash(t, ps, poolOrgs), matrixHash(t, ps, cost.OrganizationsExtended)}
		if got != goldenHashes[i] {
			t.Errorf("path %d (%s): hashes {%#x, %#x}, golden {%#x, %#x}", i, ps.Path, got[0], got[1], goldenHashes[i][0], goldenHashes[i][1])
		}
	}
}

// TestSelectPoolAllocBudget bounds the allocations of one core.Select,
// averaged over a pass of the advise pool: the level table, the matrix and
// the result — no cell allocates (429 per Select before PR 19).
func TestSelectPoolAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	pool := advisePool(t)
	perPass := testing.AllocsPerRun(5, func() {
		for _, ps := range pool {
			if _, _, err := core.Select(ps, poolOrgs); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perSelect := perPass / float64(len(pool)); perSelect > 130 {
		t.Errorf("%.1f allocs per Select, budget 130", perSelect)
	}
}
