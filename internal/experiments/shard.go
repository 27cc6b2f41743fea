package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Experiment E4 — sharded serving throughput (DESIGN.md §7.5). A
// serving tier's mix — runs of value probes, by-OID gets, routed
// writes — against OID-hash-partitioned deployments of 1, 2, 4 and 8
// shards, with a direct single-engine baseline at every worker count,
// all serving the identical logical dataset (see nCohorts). By-OID gets
// and writes route to exactly one shard (and each shard has its own
// write lock — the axis that scales with cores); value probes have no
// OID to hash, so they fan out to every shard and pay one index descent
// per non-matching shard.

// shardBatch is how many probes (or by-OID gets) one timed operation
// carries.
const shardBatch = 8

// nCohorts is the fixed partition granularity of E4's dataset: the same
// cohorts (same seeds, so identical contents) are laid down in every
// deployment — all in one store for the engine baseline, round-robin
// across N stores for N shards — so measured differences are deployment
// effects, not dataset effects; the probe_mass extra records it. Must
// be a multiple of every measured shard count.
const nCohorts = 8

func runShard(rep *Report) error {
	rep.Workload = fmt.Sprintf("60%% point-probe runs (3:1 Person:Division) / 30%% by-OID gets / 5%% insert / 5%% delete, batch=%d", shardBatch)
	// The optimal configuration for the collected statistics under the
	// Example 5.1 workload — the same selection E2 serves.
	arms, err := servedArms(rep.Seed)
	if err != nil {
		return err
	}
	cfg := *arms[0].cfg
	var cells []Arm
	for _, nShards := range []int{0, 1, 2, 4, 8} { // 0: the direct engine baseline
		for _, workers := range []int{1, 2, 4, 8} {
			cells = append(cells, shardArm(rep.Seed, cfg, nShards, workers, rep.Ops))
		}
	}
	if err := rep.Measure(cells...); err != nil {
		return err
	}
	rep.AddRelative("vs_engine", func(c *Cell) *Cell {
		return rep.Cell("config", "engine", "workers", c.Label("workers"))
	})
	return nil
}

// shardArm declares one (deployment, workers) cell; nShards 0 is the
// single engine.
func shardArm(seed int64, cfg core.Configuration, nShards, workers, opsPerWorker int) Arm {
	config, shards := "sharded", nShards
	if nShards == 0 {
		config, shards = "engine", 1
	}
	return Arm{
		Labels:  labels("config", config, "shards", shards, "workers", workers),
		Workers: workers,
		Ops:     max(opsPerWorker/shardBatch, 20),
		Open:    func() (System, error) { return openShardDeployment(seed, cfg, nShards) },
	}
}

// cohortStats returns one cohort's statistics: the Figure 7 shape with
// per-class cardinalities divided by the cohort count and distinct
// counts capped at what the smaller population admits.
func cohortStats() *model.PathStats {
	part := model.Figure7Stats()
	for l := 1; l <= part.Len(); l++ {
		ls := part.Level(l)
		for i := range ls.Classes {
			cs := &ls.Classes[i]
			cs.N /= float64(nCohorts)
			if inst := cs.N * cs.NIN; cs.D > inst {
				cs.D = inst
			}
		}
	}
	return part
}

// generateCohorts lays the nCohorts cohorts down across the given
// stores round-robin (cohort j into store j mod len(stores)), returning
// the probe-value domain and the Person population.
func generateCohorts(stores []*oodb.Store, seed int64) ([]oodb.Value, []oodb.OID, error) {
	part := cohortStats()
	var values []oodb.Value
	var persons []oodb.OID
	for j := 0; j < nCohorts; j++ {
		g, err := gen.GenerateShardIn(stores[j%len(stores)], part, serveScale, seed+int64(j), nCohorts)
		if err != nil {
			return nil, nil, err
		}
		if len(g.EndValues) > len(values) {
			values = g.EndValues // every cohort draws from this same full-width domain
		}
		persons = append(persons, g.ByClass["Person"]...)
	}
	return values, persons, nil
}

// shardServer is what E4 drives: satisfied by the engine and by shard.DB.
type shardServer interface {
	Query(value oodb.Value, targetClass string, hierarchy bool) ([]oodb.OID, error)
	Insert(class string, attrs map[string][]oodb.Value) (oodb.OID, error)
	Delete(oodb.OID) error
	IndexStats() storage.Stats
}

// openShardDeployment lays the cohorts down in one store behind an
// engine (nShards 0) or across nShards stores behind the shard.DB
// facade, and returns the system serving E4's mix.
func openShardDeployment(seed int64, cfg core.Configuration, nShards int) (System, error) {
	ps := model.Figure7Stats()
	if nCohorts%max(nShards, 1) != 0 {
		return System{}, fmt.Errorf("shard count %d does not divide the %d-cohort dataset", nShards, nCohorts)
	}
	stores, err := shard.NewStores(ps.Path.Schema(), ps.Params.PageSize, max(nShards, 1))
	if err != nil {
		return System{}, err
	}
	values, persons, err := generateCohorts(stores, seed)
	if err != nil {
		return System{}, err
	}
	var srv shardServer
	get := func(oid oodb.OID) error { _, err := stores[0].Get(oid); return err }
	if nShards == 0 {
		srv, err = engine.New(stores[0], ps.Path, cfg, ps.Params.PageSize, engine.Options{})
	} else {
		var db *shard.DB
		db, err = shard.Open(stores, ps.Path, cfg, ps.Params.PageSize, shard.Options{})
		srv, get = db, func(oid oodb.OID) error { _, err := db.Get(oid); return err }
	}
	if err != nil {
		return System{}, err
	}
	// The fairness check: one whole-path probe per domain value; the
	// summed result sizes must be equal across deployments.
	mass := 0
	for _, v := range values {
		r, err := srv.Query(v, "Person", false)
		if err != nil {
			return System{}, err
		}
		mass += len(r)
	}
	return System{
		Pages: func() uint64 {
			total := srv.IndexStats().Accesses()
			for _, st := range stores {
				total += st.Pager().Stats().Accesses()
			}
			return total
		},
		Gauges: func() []Metric { return []Metric{{"probe_mass", float64(mass)}} },
		// 60% of iterations issue a run of shardBatch point probes (3:1
		// Person whole-path to Division ending-level, fanned across
		// shards), 30% a run of shardBatch by-OID gets (each routed to one
		// shard), 5% insert, 5% delete. Probes, gets and writes each count
		// as one operation and wait the wall time of the run they rode.
		Start: func(w int) (Driver, error) {
			var pending []oodb.OID
			return Driver{Op: func(i int, rec *Recorder) (err error) {
				v := values[(w*7919+i)%len(values)]
				n := shardBatch
				t0 := time.Now()
				switch r := i % 20; {
				case r == 9: // 5% inserts
					var oid oodb.OID
					if oid, err = srv.Insert("Division", map[string][]oodb.Value{"name": {v}}); err == nil {
						pending = append(pending, oid)
					}
					n = 1
				case r == 19 && len(pending) > 0: // 5% deletes
					err = srv.Delete(pending[len(pending)-1])
					pending = pending[:len(pending)-1]
					n = 1
				case r%3 == 0: // ~30% by-OID get runs, routed per OID
					for j := 0; j < shardBatch && err == nil; j++ {
						err = get(persons[(w*7919+i*shardBatch+j)%len(persons)])
					}
				default: // ~60% point-probe runs, fanned across shards
					for j := 0; j < shardBatch && err == nil; j++ {
						target := "Person"
						if j%4 == 3 {
							target = "Division"
						}
						_, err = srv.Query(values[(w*7919+i*shardBatch+j)%len(values)], target, false)
					}
				}
				rec.Done(t0, n)
				return err
			}}, nil
		},
	}, nil
}
