package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/btree"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/storage"
)

// treesOf lists the B+-trees of one index structure.
func treesOf(ix index.PathIndex, p *schema.Path) []*btree.Tree {
	a, b := ix.Bounds()
	var out []*btree.Tree
	switch x := ix.(type) {
	case *index.NestedInheritedIndex:
		out = append(out, x.PrimaryTree(), x.AuxTree())
	case *index.MultiInheritedIndex:
		for l := a; l <= b; l++ {
			out = append(out, x.LevelIndex(l).Tree())
		}
	case *index.MultiIndex:
		for l := a; l <= b; l++ {
			for _, cn := range p.HierarchyAt(l) {
				out = append(out, x.ClassIndex(l, cn).Tree())
			}
		}
	case *index.PathIndexPX:
		out = append(out, x.Tree())
	}
	return out
}

// structureShape is everything about an index structure that depends on
// the order its maintenance ran in: how many pages it holds, the shape of
// each tree, and every page access made so far.
type structureShape struct {
	Pages  int
	Trees  [][3]int // height, leaf pages, keys
	Access storage.Stats
}

// shapeOf covers every structure of a configuration.
func shapeOf(c *IndexSet, p *schema.Path) []structureShape {
	var out []structureShape
	for _, ix := range c.Indexes() {
		sh := structureShape{Access: ix.Stats()}
		for _, t := range treesOf(ix, p) {
			sh.Pages = t.Pager().NumPages() // one pager per structure
			sh.Trees = append(sh.Trees, [3]int{t.Height(), t.LeafPages(), t.Len()})
		}
		out = append(out, sh)
	}
	return out
}

// TestMaintenanceIsDeterministic builds the same generated store twice and
// drives the same operations through it: page counts, tree shapes and the
// access counters must come out identical. Maintenance visits keys in byte
// order and references in the object's own order, never in map order — so
// a benchmark's page counts repeat from run to run.
func TestMaintenanceIsDeterministic(t *testing.T) {
	ps := smallStats(t)
	type arm struct {
		name  string
		build func(g *gen.Generated) *IndexSet
	}
	var arms []arm
	for _, cfg := range configurations(ps.Len()) {
		arms = append(arms, arm{cfg.String(), func(g *gen.Generated) *IndexSet {
			c, err := NewIndexSet(g.Store, g.Path, cfg, 256, nil)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}})
	}
	for ai, a := range arms {
		seed := int64(500 + ai)
		var shapes [2][]structureShape
		for run := range shapes {
			g, err := gen.Generate(ps, 0.4, seed)
			if err != nil {
				t.Fatal(err)
			}
			c := a.build(g)
			m := newOpMixer(g, seed)
			for i := 0; i < 300; i++ {
				m.apply(t, c)
			}
			shapes[run] = shapeOf(c, g.Path)
		}
		if !reflect.DeepEqual(shapes[0], shapes[1]) {
			t.Errorf("%s: two identical histories left different structures:\n  %s\n  %s",
				a.name, fmt.Sprint(shapes[0]), fmt.Sprint(shapes[1]))
		}
	}
}
