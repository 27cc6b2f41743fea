package experiments

import (
	"fmt"
	"strings"

	"repro/internal/oodb"
)

// Experiment E3 — measured index maintenance cost. The paper's selection
// objective balances retrieval cost against maintenance cost, and the
// advisor literature (AIM, CoPhy) warns that index recommendations are
// only trustworthy when write amplification is measured rather than
// modeled. E3 closes that loop for the update path: the harness's one
// worker (maintenance cost per operation is the object of measurement;
// writes under concurrency are the benchmark's durable_write workload)
// runs mixed read/update workloads — point queries interleaved with
// in-place reference re-links and ending-value changes — against the
// served database's three arms at several read fractions, and splits
// pages/op by operation kind so the maintenance half of the paper's
// objective is visible on its own. The query results themselves are
// covered by the differential maintenance tests.

func runMaintain(rep *Report) error {
	rep.Workload = "reads: 2/3 Person + 1/3 Division point queries; writes: 1/2 Vehicle.man re-links + 1/2 Division.name value changes"
	arms, err := servedArms(rep.Seed)
	if err != nil {
		return err
	}
	rep.Workload += "; optimal = " + arms[0].cfg.String()
	var cells []Arm
	for _, arm := range arms {
		for _, readPct := range []int{90, 50, 10} {
			cells = append(cells, Arm{
				Labels: labels("config", arm.name, "read%", readPct),
				Ops:    arm.ops(rep.Ops),
				Open:   func() (System, error) { return openMaintain(arm, rep.Seed, readPct) },
			})
		}
	}
	if err := rep.Measure(cells...); err != nil {
		return err
	}
	// Report the page totals per operation of their kind.
	for i := range rep.Cells {
		c := &rep.Cells[i]
		for k := range c.Extras {
			m := &c.Extras[k]
			if kind, ok := strings.CutSuffix(m.Name, "_pages"); ok {
				m.Name += "_per_op"
				if n := c.Extra(kind + "_ops"); n > 0 {
					m.Value /= n
				}
			}
		}
	}
	return nil
}

func openMaintain(arm servedArm, seed int64, readPct int) (System, error) {
	s, err := openServed(arm, seed)
	if err != nil {
		return System{}, err
	}
	g := s.g
	vehicles := append(append(append([]oodb.OID(nil), g.ByClass["Vehicle"]...),
		g.ByClass["Bus"]...), g.ByClass["Truck"]...)
	companies, divisions := g.ByClass["Company"], g.ByClass["Division"]
	if len(vehicles) == 0 || len(companies) == 0 || len(divisions) == 0 {
		return System{}, fmt.Errorf("generated store too small for the maintain mix")
	}
	// Cumulative operation and page counts by kind.
	var ops, pages [2]float64
	var buf []oodb.OID
	return System{
		Pages: s.pages,
		Op: func(i int) (err error) {
			v := g.EndValues[(i*7919)%len(g.EndValues)]
			before := s.pages()
			kind := 0
			switch {
			case (i*131)%1000 >= readPct*10: // deterministic interleave matching the read fraction
				kind = 1
				// The new value also advances with the number of times the
				// object has come round (i/len): the populations are small
				// and their sizes share factors with the strides, so without
				// it every revisit would write back the value already there
				// and cost the indexes nothing.
				if i%2 == 0 {
					err = s.update(vehicles[(i*31)%len(vehicles)], map[string][]oodb.Value{
						"man": {oodb.RefV(companies[(i*17+i/len(vehicles))%len(companies)])}})
				} else {
					err = s.update(divisions[(i*13)%len(divisions)], map[string][]oodb.Value{
						"name": {g.EndValues[(i*7919+i/len(divisions))%len(g.EndValues)]}})
				}
			case i%3 == 0:
				buf, err = s.query(buf, v, "Division")
			default:
				buf, err = s.query(buf, v, "Person")
			}
			ops[kind]++
			pages[kind] += float64(s.pages() - before)
			return err
		},
		Counters: func() []Metric {
			// updates_recorded is what the engine's own workload recorder
			// saw — the evidence the drift gauge is computed from.
			var recorded uint64
			if s.e != nil {
				for _, c := range s.e.WorkloadSnapshot().Classes {
					recorded += c.Updates
				}
			}
			return []Metric{{"query_ops", ops[0]}, {"update_ops", ops[1]},
				{"query_pages", pages[0]}, {"update_pages", pages[1]},
				{"updates_recorded", float64(recorded)}}
		},
		Gauges: func() []Metric {
			drift := 0.0
			if s.e != nil {
				drift = s.e.Drift()
			}
			return []Metric{{"drift_after_traffic", drift}}
		},
	}, nil
}
