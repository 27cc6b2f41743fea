package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/wal"
)

// Experiment E5 — durability cost (DESIGN.md §8.5). A durable
// deployment pays two costs the in-memory experiments cannot show: the
// fsync traffic of the write-ahead log and the recovery work of
// replaying it. Three curves on the disk-backed engine:
//
//  1. fsync-policy: the same write workload under SyncAlways (one fsync
//     per operation), SyncGroup (fsyncs amortized over a commit window)
//     and SyncNever (OS page cache only).
//  2. recovery: checkpointing disabled, the process abandoned after w
//     operations, the reopen timed — the cell's one operation, so its
//     p50 is the recovery time. Replay cost grows with the log, which is
//     exactly what checkpoints bound.
//  3. cold-cache: point queries over the value domain against a pool
//     far smaller than the population, indexed or naive. The cold arms
//     reopen the store before every pass, so each sweep pays a
//     checksummed disk read for every pool miss; the warm arms keep it
//     open. The index's page-access advantage persists when misses cost
//     real I/O, which is the cost model's original premise.

// durableDriver issues a mixed write workload (inserts of
// Company/Vehicle/Person tree nodes, renames, re-links, deletes) against
// a durable engine, tracking the live population for valid references.
type durableDriver struct {
	rng       *rand.Rand
	vals      []oodb.Value
	companies []oodb.OID
	cars      []oodb.OID
	persons   []oodb.OID
}

func newDurableDriver(seed int64) *durableDriver {
	d := &durableDriver{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 64; i++ {
		d.vals = append(d.vals, oodb.StrV(fmt.Sprintf("dur-val-%02d", i)))
	}
	return d
}

func (d *durableDriver) val() oodb.Value { return d.vals[d.rng.Intn(len(d.vals))] }

func (d *durableDriver) step(e *engine.Engine) error {
	r := d.rng.Intn(100)
	switch {
	case r < 25 || len(d.companies) == 0:
		oid, err := e.Insert("Company", map[string][]oodb.Value{"name": {d.val()}})
		if err != nil {
			return err
		}
		d.companies = append(d.companies, oid)
	case r < 45:
		ref := d.companies[d.rng.Intn(len(d.companies))]
		oid, err := e.Insert("Vehicle", map[string][]oodb.Value{"man": {oodb.RefV(ref)}})
		if err != nil {
			return err
		}
		d.cars = append(d.cars, oid)
	case r < 65 && len(d.cars) > 0:
		ref := d.cars[d.rng.Intn(len(d.cars))]
		oid, err := e.Insert("Person", map[string][]oodb.Value{"owns": {oodb.RefV(ref)}})
		if err != nil {
			return err
		}
		d.persons = append(d.persons, oid)
	case r < 85:
		oid := d.companies[d.rng.Intn(len(d.companies))]
		return e.Update(oid, map[string][]oodb.Value{"name": {d.val()}})
	default:
		if len(d.persons) == 0 {
			oid := d.companies[d.rng.Intn(len(d.companies))]
			return e.Update(oid, map[string][]oodb.Value{"name": {d.val()}})
		}
		i := d.rng.Intn(len(d.persons))
		oid := d.persons[i]
		d.persons[i] = d.persons[len(d.persons)-1]
		d.persons = d.persons[:len(d.persons)-1]
		return e.Delete(oid)
	}
	return nil
}

func runDurable(rep *Report) error {
	rep.Workload = "seeded write mix (inserts, renames, deletes); cold-cache sweeps on 256 B pages with a 4-page pool"
	p := schema.PaperPathOwnsManName()
	root, err := os.MkdirTemp("", "ixbench-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	// open opens, or recovers, the whole-path-NIX engine in root/dir.
	open := func(dir string, pageSize int, opts engine.DurableOptions) (*engine.Engine, error) {
		return engine.OpenDurable(filepath.Join(root, dir), p.Schema(), p, wholePathNIX(p), pageSize, opts)
	}
	// fill runs the first n operations of the seeded write workload.
	fill := func(e *engine.Engine, n int) (*durableDriver, error) {
		d := newDurableDriver(rep.Seed)
		for i := 0; i < n; i++ {
			if err := d.step(e); err != nil {
				return nil, fmt.Errorf("fill op %d: %w", i, err)
			}
		}
		return d, nil
	}
	const pageSize = 1024
	var arms []Arm

	// Curve 1. Counters are read before Close, so its checkpoint fsyncs —
	// shutdown, not workload — stay out.
	for _, pol := range []wal.Policy{wal.SyncAlways, wal.SyncGroup, wal.SyncNever} {
		arms = append(arms, Arm{Labels: labels("curve", "fsync-policy", "policy", pol), Ops: rep.Ops,
			Open: func() (System, error) {
				e, err := open("policy-"+pol.String(), pageSize, engine.DurableOptions{Policy: pol})
				if err != nil {
					return System{}, err
				}
				d := newDurableDriver(rep.Seed)
				return System{
					Start: each(func(_, _ int) error { return d.step(e) }),
					Counters: func() []Metric {
						ds := e.DurabilityStats()
						return []Metric{{"fsyncs", float64(ds.Fsyncs)}, {"wal_bytes", float64(ds.WALBytes)}}
					},
					Close: e.Close,
				}, nil
			}})
	}

	// Curve 2. Before each pass a fresh directory is filled and the engine
	// abandoned (its file handles leak until process exit, as a kill's
	// would), so the whole state rides the WAL into the timed reopen.
	for _, w := range []int{max(rep.Ops/4, 1), rep.Ops, 4 * rep.Ops} {
		arms = append(arms, Arm{Labels: labels("curve", "recovery", "wal_ops", w), Ops: 1,
			Open: func() (System, error) {
				var reopened *engine.Engine
				var walBytes int64
				closeReopened := func() error {
					if reopened == nil {
						return nil
					}
					e := reopened
					reopened = nil
					return e.Close()
				}
				pass := 0
				return System{
					Start: func(int) (Driver, error) {
						if err := closeReopened(); err != nil {
							return Driver{}, err
						}
						dir := fmt.Sprintf("recovery-%d-%d", w, pass)
						pass++
						e, err := open(dir, pageSize, engine.DurableOptions{Policy: wal.SyncNever, CheckpointBytes: -1})
						if err != nil {
							return Driver{}, err
						}
						if _, err := fill(e, w); err != nil {
							return Driver{}, err
						}
						walBytes = e.WALSize()
						return each(func(_, _ int) (err error) {
							reopened, err = open(dir, pageSize, engine.DurableOptions{})
							return err
						})(0)
					},
					Gauges: func() []Metric {
						return []Metric{{"wal_bytes", float64(walBytes)}, {"replayed", float64(reopened.Replayed())}}
					},
					Close: closeReopened,
				}, nil
			}})
	}

	// Curve 3. Populate and close; small pages and a 4-page pool make the
	// population exceed the pool at any workload size, so the sweeps
	// genuinely miss to disk.
	const coldPageSize = 256
	e, err := open("cold", coldPageSize, engine.DurableOptions{Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	d, err := fill(e, rep.Ops)
	if err != nil {
		return err
	}
	if err := e.Close(); err != nil {
		return err
	}
	for _, backend := range []string{"optimal", "naive"} {
		for _, phase := range []string{"cold", "warm"} {
			arms = append(arms, Arm{Labels: labels("curve", "cold-cache", "backend", backend, "phase", phase), Ops: len(d.vals),
				Open: func() (System, error) {
					var e *engine.Engine
					reopen := func() (err error) {
						if e != nil {
							if err := e.Close(); err != nil {
								return err
							}
						}
						e, err = open("cold", coldPageSize, engine.DurableOptions{Policy: wal.SyncNever, PoolPages: 4})
						return err
					}
					if err := reopen(); err != nil {
						return System{}, err
					}
					sweep := each(func(_, i int) (err error) {
						if v := d.vals[i%len(d.vals)]; backend == "optimal" {
							_, err = e.Query(v, "Person", true)
						} else {
							_, err = exec.NaiveQuery(e.Store(), p, v, "Person", true)
						}
						return err
					})
					return System{
						Start: func(w int) (Driver, error) {
							if phase == "cold" {
								if err := reopen(); err != nil {
									return Driver{}, err
								}
							}
							return sweep(w)
						},
						// disk_reads are store pages fetched from the page file
						// (pool misses, each a checksummed ReadAt); pool_hits
						// were served from memory.
						Counters: func() []Metric {
							st := e.Store().Pager().Stats()
							return []Metric{{"disk_reads", float64(st.Reads)}, {"pool_hits", float64(st.Hits)}}
						},
						Close: func() error { return e.Close() },
					}, nil
				}})
		}
	}
	if err := rep.Measure(arms...); err != nil {
		return err
	}
	rep.AddRatio("group_commit_over_sync_always", rep.Cell("policy", "group"), rep.Cell("policy", "always"))
	rep.AddRatio("no_sync_over_sync_always", rep.Cell("policy", "never"), rep.Cell("policy", "always"))
	return nil
}
