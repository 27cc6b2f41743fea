package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/schema"
)

// ValidationRow compares the analytic cost model against page accesses
// measured on a working index structure for one organization/operation.
type ValidationRow struct {
	Org       cost.Organization
	Operation string
	Predicted float64 // analytic expected page accesses
	Measured  float64 // average page accesses on the working index
	Ratio     float64 // Measured / Predicted
}

// ValidationReport is experiment V1: the analytic model of Section 3
// versus the running structures, on a database generated to match the
// statistics the model is fed.
type ValidationReport struct {
	Rows []ValidationRow
	// ObjectCount documents the scale of the generated database.
	ObjectCount int
}

// validationStats is a materializable path-stats shape used by V1.
func validationStats() *model.PathStats {
	p := schema.PaperPathOwnsManDivsName()
	ps := model.NewPathStats(p, model.PaperParams())
	ps.MustSet(1, model.ClassStats{Class: "Person", N: 2000, D: 400, NIN: 1}, model.Load{Alpha: 1})
	ps.MustSet(2, model.ClassStats{Class: "Vehicle", N: 300, D: 60, NIN: 2}, model.Load{Alpha: 1})
	ps.MustSet(2, model.ClassStats{Class: "Bus", N: 150, D: 30, NIN: 2}, model.Load{})
	ps.MustSet(2, model.ClassStats{Class: "Truck", N: 150, D: 30, NIN: 2}, model.Load{})
	ps.MustSet(3, model.ClassStats{Class: "Company", N: 60, D: 60, NIN: 2}, model.Load{})
	ps.MustSet(4, model.ClassStats{Class: "Division", N: 60, D: 60, NIN: 1}, model.Load{Alpha: 1})
	return ps
}

// measureStats re-derives PathStats from the materialized database so the
// analytic model is fed the true cardinalities rather than the design
// targets.
func measureStats(g *gen.Generated, params model.Params) *model.PathStats {
	ps := model.NewPathStats(g.Path, params)
	for l := 1; l <= g.Path.Len(); l++ {
		attr := g.Path.Attr(l)
		for _, cn := range g.Path.HierarchyAt(l) {
			oids := g.ByClass[cn]
			distinct := make(map[string]bool)
			var valueCount int
			for _, oid := range oids {
				obj, _ := g.Store.Peek(oid)
				for _, v := range obj.Values(attr) {
					distinct[v.String()] = true
					valueCount++
				}
			}
			n := float64(len(oids))
			cs := model.ClassStats{Class: cn, N: n, D: float64(len(distinct)), NIN: 1}
			if n > 0 {
				cs.NIN = float64(valueCount) / n
			}
			if cs.D == 0 {
				cs.D = 1
			}
			ps.MustSet(l, cs, model.Load{})
		}
	}
	return ps
}

// RunValidation executes experiment V1: generates the database, builds each
// organization over the full path, and compares predicted versus measured
// page accesses for queries and maintenance.
func RunValidation(seed int64) (ValidationReport, error) {
	design := validationStats()
	g, err := gen.Generate(design, 1, seed)
	if err != nil {
		return ValidationReport{}, err
	}
	measured := measureStats(g, design.Params)
	n := measured.Len()
	rep := ValidationReport{ObjectCount: g.Store.Len()}

	builders := []struct {
		org   cost.Organization
		build func() (index.PathIndex, error)
	}{
		{cost.MX, func() (index.PathIndex, error) { return index.NewMultiIndex(g.Path, 1, n, design.Params.PageSize) }},
		{cost.MIX, func() (index.PathIndex, error) {
			return index.NewMultiInheritedIndex(g.Path, 1, n, design.Params.PageSize)
		}},
		{cost.NIX, func() (index.PathIndex, error) {
			return index.NewNestedInheritedIndex(g.Path, 1, n, design.Params.PageSize)
		}},
		{cost.PX, func() (index.PathIndex, error) {
			return index.NewPathIndexPX(g.Store, g.Path, 1, n, design.Params.PageSize)
		}},
	}
	for _, b := range builders {
		ix, err := b.build()
		if err != nil {
			return rep, err
		}
		if err := loadIndex(g, ix); err != nil {
			return rep, err
		}
		ev, err := cost.NewEvaluator(measured, 1, n, b.org)
		if err != nil {
			return rep, err
		}

		// Query with respect to the starting class.
		predQ, err := ev.Query(1, "Person")
		if err != nil {
			return rep, err
		}
		ix.ResetStats()
		sc := index.NewScratch()
		queries := 0
		for _, v := range g.EndValues {
			if queries >= 30 {
				break
			}
			if _, err := ix.LookupInto(v, "Person", false, nil, sc); err != nil {
				return rep, err
			}
			queries++
		}
		measQ := float64(ix.Stats().Accesses()) / float64(queries)
		rep.Rows = append(rep.Rows, row(b.org, "query Person", predQ, measQ))

		// Insertion of a Person.
		predI, err := ev.Insert(1, "Person")
		if err != nil {
			return rep, err
		}
		vehPool := g.ByClass["Vehicle"]
		ix.ResetStats()
		inserts := 20
		for i := 0; i < inserts; i++ {
			oid, err := g.Store.Insert("Person", map[string][]oodb.Value{
				"owns": {oodb.RefV(vehPool[i%len(vehPool)])},
			})
			if err != nil {
				return rep, err
			}
			obj, _ := g.Store.Peek(oid)
			if err := ix.OnInsert(obj); err != nil {
				return rep, err
			}
		}
		measI := float64(ix.Stats().Accesses()) / float64(inserts)
		rep.Rows = append(rep.Rows, row(b.org, "insert Person", predI, measI))

		// In-place update of a Person: re-linked to another vehicle. The
		// model has no update operation of its own; a workload's updates
		// enter its load as half an insertion plus half a deletion
		// (stats.MergeObserved), and that is the price quoted here.
		predPD, err := ev.Delete(1, "Person")
		if err != nil {
			return rep, err
		}
		perPool := g.ByClass["Person"]
		ix.ResetStats()
		updates := 20
		for i := 0; i < updates; i++ {
			old, upd, err := g.Store.Update(perPool[i%len(perPool)], map[string][]oodb.Value{
				"owns": {oodb.RefV(vehPool[(i+len(vehPool)/2)%len(vehPool)])},
			})
			if err != nil {
				return rep, err
			}
			if err := ix.OnUpdates([]index.Pair{{Old: old, New: upd}}); err != nil {
				return rep, err
			}
		}
		measU := float64(ix.Stats().Accesses()) / float64(updates)
		rep.Rows = append(rep.Rows, row(b.org, "update Person", (predI+predPD)/2, measU))

		// Deletion of a Vehicle.
		predD, err := ev.Delete(2, "Vehicle")
		if err != nil {
			return rep, err
		}
		ix.ResetStats()
		deletes := 20
		for i := 0; i < deletes; i++ {
			oid := g.ByClass["Vehicle"][len(g.ByClass["Vehicle"])-1-i]
			obj, _ := g.Store.Peek(oid)
			if err := ix.OnDelete(obj); err != nil {
				return rep, err
			}
		}
		measD := float64(ix.Stats().Accesses()) / float64(deletes)
		rep.Rows = append(rep.Rows, row(b.org, "delete Vehicle", predD, measD))

		// Rebuild state for the next organization: vehicles were removed
		// from this index only, not the store, so the store is re-generated.
		g, err = gen.Generate(design, 1, seed)
		if err != nil {
			return rep, err
		}
		measured = measureStats(g, design.Params)
	}
	return rep, nil
}

func row(org cost.Organization, op string, pred, meas float64) ValidationRow {
	r := ValidationRow{Org: org, Operation: op, Predicted: pred, Measured: meas}
	if pred > 0 {
		r.Ratio = meas / pred
	}
	return r
}

func loadIndex(g *gen.Generated, ix index.PathIndex) error {
	for l := g.Path.Len(); l >= 1; l-- {
		for _, cn := range g.Path.HierarchyAt(l) {
			for _, oid := range g.ByClass[cn] {
				obj, _ := g.Store.Peek(oid)
				if err := ix.OnInsert(obj); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Render returns the report text.
func (r ValidationReport) Render() string {
	t := NewTable(fmt.Sprintf("Cost-model validation — analytic vs measured page accesses (%d objects)", r.ObjectCount),
		"org", "operation", "predicted", "measured", "measured/predicted")
	for _, row := range r.Rows {
		t.AddRow(row.Org.String(), row.Operation, row.Predicted, row.Measured, row.Ratio)
	}
	var b strings.Builder
	b.WriteString(t.Render())
	b.WriteString("\nThe model predicts expected page accesses; agreement within a small constant factor\n")
	b.WriteString("validates the ranking the selection algorithm relies on (see DESIGN.md §6).\n")
	return b.String()
}
