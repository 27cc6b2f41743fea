package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/shard"
)

// The shard-equivalence differential test: one mixed
// insert/update/delete/query trace is replayed against a single engine
// and against a sharded deployment, and every query must return the
// same logical result set. OIDs differ between the systems by design
// (the sharded stores mint strided OIDs), so the trace tracks a logical
// id per inserted object and compares results through the id
// translation; equality of the translated sorted sets is equality of
// the results up to the OID renaming — the strongest statement
// available when the two systems cannot share an OID sequence.

const diffShards = 3

// tracer replays one logical trace against both systems.
type tracer struct {
	t      *testing.T
	rng    *rand.Rand
	single *engine.Engine
	db     *shard.DB

	// sOID/dOID map logical ids to each system's OIDs; back maps invert
	// them for result translation. live tracks undeleted ids by kind.
	sOID, dOID   []oodb.OID
	sBack, dBack map[oodb.OID]int
	class        []string
	dead         []bool
}

func newTracer(t *testing.T, seed int64, cfg core.Configuration) *tracer {
	s := schema.PaperSchema()
	p := schema.PaperPathOwnsManName()
	st, err := oodb.NewStore(s, 1024)
	if err != nil {
		t.Fatal(err)
	}
	single, err := engine.New(st, p, cfg, 1024, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := shard.New(s, p, cfg, 1024, diffShards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &tracer{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		single: single,
		db:     db,
		sBack:  make(map[oodb.OID]int),
		dBack:  make(map[oodb.OID]int),
	}
}

func (tr *tracer) values() []oodb.Value {
	out := make([]oodb.Value, 20)
	for i := range out {
		out[i] = oodb.StrV(fmt.Sprintf("v%02d", i))
	}
	return out
}

// insert applies the same logical insert to both systems and registers
// the logical id. attrsFor builds the per-system attribute map from the
// system's own OID translation.
func (tr *tracer) insert(class string, attrsFor func(oidOf func(int) oodb.OID) map[string][]oodb.Value) int {
	sAttrs := attrsFor(func(lid int) oodb.OID { return tr.sOID[lid] })
	dAttrs := attrsFor(func(lid int) oodb.OID { return tr.dOID[lid] })
	so, errS := tr.single.Insert(class, sAttrs)
	do, errD := tr.db.Insert(class, dAttrs)
	if (errS == nil) != (errD == nil) {
		tr.t.Fatalf("insert %s: single err %v, sharded err %v", class, errS, errD)
	}
	if errS != nil {
		return -1
	}
	lid := len(tr.sOID)
	tr.sOID = append(tr.sOID, so)
	tr.dOID = append(tr.dOID, do)
	tr.sBack[so] = lid
	tr.dBack[do] = lid
	tr.class = append(tr.class, class)
	tr.dead = append(tr.dead, false)
	return lid
}

// liveOf returns the live logical ids of a class (or any class when
// class is empty), optionally restricted to one shard of the sharded
// system.
func (tr *tracer) liveOf(class string, inShard int) []int {
	var out []int
	for lid := range tr.sOID {
		if tr.dead[lid] {
			continue
		}
		if class != "" && tr.class[lid] != class {
			continue
		}
		if inShard >= 0 && tr.db.ShardOf(tr.dOID[lid]) != inShard {
			continue
		}
		out = append(out, lid)
	}
	return out
}

func (tr *tracer) pick(ids []int) (int, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	return ids[tr.rng.Intn(len(ids))], true
}

// translate maps a result OID set to sorted logical ids.
func translate(t *testing.T, back map[oodb.OID]int, oids []oodb.OID, system string) []int {
	out := make([]int, 0, len(oids))
	for _, o := range oids {
		lid, ok := back[o]
		if !ok {
			t.Fatalf("%s returned unknown OID %d", system, o)
		}
		out = append(out, lid)
	}
	// Results are sorted by OID; logical ids need their own order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (tr *tracer) compareResults(label string, sres, dres []oodb.OID, errS, errD error) {
	if (errS == nil) != (errD == nil) {
		tr.t.Fatalf("%s: single err %v, sharded err %v", label, errS, errD)
	}
	if errS != nil {
		return
	}
	sl := translate(tr.t, tr.sBack, sres, "single")
	dl := translate(tr.t, tr.dBack, dres, "sharded")
	if len(sl) != len(dl) {
		tr.t.Fatalf("%s: single %d results %v, sharded %d results %v", label, len(sl), sl, len(dl), dl)
	}
	for i := range sl {
		if sl[i] != dl[i] {
			tr.t.Fatalf("%s: result %d differs: single lid %d, sharded lid %d", label, i, sl[i], dl[i])
		}
	}
}

// step performs one random trace operation on both systems.
func (tr *tracer) step(values []oodb.Value) {
	v := values[tr.rng.Intn(len(values))]
	switch op := tr.rng.Intn(100); {
	case op < 14: // insert a Company (no refs: round-robin vs sequential)
		tr.insert("Company", func(func(int) oodb.OID) map[string][]oodb.Value {
			return map[string][]oodb.Value{"name": {v}}
		})
	case op < 28: // insert a vehicle referencing one company
		cls := []string{"Vehicle", "Bus", "Truck"}[tr.rng.Intn(3)]
		if lid, ok := tr.pick(tr.liveOf("Company", -1)); ok {
			tr.insert(cls, func(oidOf func(int) oodb.OID) map[string][]oodb.Value {
				return map[string][]oodb.Value{"man": {oodb.RefV(oidOf(lid))}}
			})
		}
	case op < 40: // insert a Person owning 1-2 co-located vehicles
		sh := tr.rng.Intn(diffShards)
		var vehicles []int
		for _, cls := range []string{"Vehicle", "Bus", "Truck"} {
			vehicles = append(vehicles, tr.liveOf(cls, sh)...)
		}
		if len(vehicles) == 0 {
			return
		}
		own := []int{vehicles[tr.rng.Intn(len(vehicles))]}
		if other, ok := tr.pick(vehicles); ok && tr.rng.Intn(2) == 0 && other != own[0] {
			own = append(own, other)
		}
		tr.insert("Person", func(oidOf func(int) oodb.OID) map[string][]oodb.Value {
			refs := make([]oodb.Value, len(own))
			for i, lid := range own {
				refs[i] = oodb.RefV(oidOf(lid))
			}
			return map[string][]oodb.Value{"owns": refs}
		})
	case op < 50: // rename a company in place
		if lid, ok := tr.pick(tr.liveOf("Company", -1)); ok {
			errS := tr.single.Update(tr.sOID[lid], map[string][]oodb.Value{"name": {v}})
			errD := tr.db.Update(tr.dOID[lid], map[string][]oodb.Value{"name": {v}})
			tr.compareErr("update company", errS, errD)
		}
	case op < 58: // re-link a vehicle to a company in its shard
		for _, cls := range []string{"Vehicle", "Bus", "Truck"} {
			lid, ok := tr.pick(tr.liveOf(cls, -1))
			if !ok {
				continue
			}
			sh := tr.db.ShardOf(tr.dOID[lid])
			target, ok := tr.pick(tr.liveOf("Company", sh))
			if !ok {
				return
			}
			errS := tr.single.Update(tr.sOID[lid], map[string][]oodb.Value{"man": {oodb.RefV(tr.sOID[target])}})
			errD := tr.db.Update(tr.dOID[lid], map[string][]oodb.Value{"man": {oodb.RefV(tr.dOID[target])}})
			tr.compareErr("re-link vehicle", errS, errD)
			return
		}
	case op < 66: // delete (dangling references are the paper's model)
		if lid, ok := tr.pick(tr.liveOf("", -1)); ok {
			errS := tr.single.Delete(tr.sOID[lid])
			errD := tr.db.Apply([]exec.Write{{Kind: exec.WriteDelete, OID: tr.dOID[lid]}})[0]
			tr.compareErr("delete", errS, errD)
			if errS == nil {
				tr.dead[lid] = true
				delete(tr.sBack, tr.sOID[lid])
				delete(tr.dBack, tr.dOID[lid])
			}
		}
	case op < 72: // batched updates through both batch paths
		tr.updateBatch(values)
	case op < 82: // point query
		target, hier := tr.randTarget()
		sres, errS := tr.single.Query(v, target, hier)
		dres, errD := tr.db.Query(v, target, hier)
		tr.compareResults(fmt.Sprintf("query %v/%s", v, target), sres, dres, errS, errD)
	case op < 90: // range query
		lo := tr.rng.Intn(len(values) - 1)
		hi := lo + 1 + tr.rng.Intn(len(values)-lo-1)
		target, hier := tr.randTarget()
		sres, errS := tr.single.QueryRange(values[lo], values[hi], target, hier)
		dres, errD := tr.db.QueryRange(values[lo], values[hi], target, hier)
		tr.compareResults(fmt.Sprintf("range [%v,%v)/%s", values[lo], values[hi], target), sres, dres, errS, errD)
	default: // a run of point probes, each answered through Query
		for i := 0; i < 6; i++ {
			target, hier := tr.randTarget()
			v := values[tr.rng.Intn(len(values))]
			sres, errS := tr.single.Query(v, target, hier)
			dres, errD := tr.db.Query(v, target, hier)
			tr.compareResults(fmt.Sprintf("run probe %d %v/%s", i, v, target), sres, dres, errS, errD)
		}
	}
}

func (tr *tracer) compareErr(label string, errS, errD error) {
	if (errS == nil) != (errD == nil) {
		tr.t.Fatalf("%s: single err %v, sharded err %v", label, errS, errD)
	}
}

func (tr *tracer) randTarget() (string, bool) {
	switch tr.rng.Intn(4) {
	case 0:
		return "Person", false
	case 1:
		return "Vehicle", true
	case 2:
		return "Company", false
	default:
		return "Bus", false
	}
}

// updateBatch builds a small batch of renames — one Company renamed twice,
// so same-OID updates must apply in batch order on every shard — plus one
// update of a missing OID at a random position, and applies it through
// both systems' batch paths: the missing OID fails in place without
// failing the rest, and the twice-renamed Company ends on its second name.
func (tr *tracer) updateBatch(values []oodb.Value) {
	var sUps, dUps []exec.Update
	rename := func(lid int) {
		v := values[tr.rng.Intn(len(values))]
		sUps = append(sUps, exec.Update{OID: tr.sOID[lid], Attrs: map[string][]oodb.Value{"name": {v}}})
		dUps = append(dUps, exec.Update{OID: tr.dOID[lid], Attrs: map[string][]oodb.Value{"name": {v}}})
	}
	twice, ok := tr.pick(tr.liveOf("Company", -1))
	if !ok {
		return
	}
	rename(twice)
	for i := 0; i < 4; i++ {
		if lid, ok := tr.pick(tr.liveOf("Company", -1)); ok && lid != twice {
			rename(lid)
		}
	}
	rename(twice)
	last := sUps[len(sUps)-1].Attrs["name"]
	// A deliberately missing OID, far past both sequences.
	miss := tr.rng.Intn(len(sUps) + 1)
	missing := exec.Update{OID: oodb.OID(1 << 40), Attrs: map[string][]oodb.Value{"name": {values[0]}}}
	sUps = slices.Insert(sUps, miss, missing)
	dUps = slices.Insert(dUps, miss, missing)
	sErrs := tr.single.UpdateBatch(sUps)
	dErrs := tr.db.Apply(dUps)
	for i := range sErrs {
		if (sErrs[i] == nil) != (dErrs[i] == nil) {
			tr.t.Fatalf("update batch entry %d: single err %v, sharded err %v", i, sErrs[i], dErrs[i])
		}
		if (i == miss) != (sErrs[i] != nil) {
			tr.t.Fatalf("update batch entry %d (missing OID at %d): err %v", i, miss, sErrs[i])
		}
	}
	if !errors.Is(sErrs[miss], oodb.ErrNotFound) || !errors.Is(dErrs[miss], oodb.ErrNotFound) {
		tr.t.Fatalf("update batch: missing OID reported %v / %v, want ErrNotFound", sErrs[miss], dErrs[miss])
	}
	sObj, sOK := tr.single.Store().Peek(tr.sOID[twice])
	dObj, dOK := tr.db.Store(tr.db.ShardOf(tr.dOID[twice])).Peek(tr.dOID[twice])
	if !sOK || !dOK || !oodb.ValuesEqual(sObj.Values("name"), last) || !oodb.ValuesEqual(dObj.Values("name"), last) {
		tr.t.Fatalf("update batch: the twice-renamed Company holds %v (single) and %v (sharded), want the second name %v",
			sObj.Values("name"), dObj.Values("name"), last)
	}
}

// sweep compares every value against every target on both systems —
// the full-state equivalence check run between trace phases.
func (tr *tracer) sweep(values []oodb.Value) {
	for _, v := range values {
		for _, target := range []struct {
			class string
			hier  bool
		}{{"Person", false}, {"Vehicle", true}, {"Company", false}, {"Truck", false}} {
			sres, errS := tr.single.Query(v, target.class, target.hier)
			dres, errD := tr.db.Query(v, target.class, target.hier)
			tr.compareResults(fmt.Sprintf("sweep %v/%s", v, target.class), sres, dres, errS, errD)
		}
	}
}

// TestShardEquivalence is the differential acceptance gate for the
// sharded engine: the same logical trace produces identical translated
// results on a single engine and a 3-shard deployment, under several
// configurations.
func TestShardEquivalence(t *testing.T) {
	configs := []core.Configuration{
		{Assignments: []core.Assignment{{A: 1, B: 3, Org: cost.NIX}}},
		{Assignments: []core.Assignment{{A: 1, B: 1, Org: cost.MX}, {A: 2, B: 3, Org: cost.NIX}}},
		{Assignments: []core.Assignment{{A: 1, B: 2, Org: cost.NIX}, {A: 3, B: 3, Org: cost.MX}}},
		{Assignments: []core.Assignment{{A: 1, B: 1, Org: cost.MIX}, {A: 2, B: 2, Org: cost.MX}, {A: 3, B: 3, Org: cost.NIX}}},
	}
	steps := 400
	if testing.Short() {
		steps = 120
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			tr := newTracer(t, int64(1000+ci), cfg)
			values := tr.values()
			for i := 0; i < steps; i++ {
				tr.step(values)
				if i%100 == 99 {
					tr.sweep(values)
				}
			}
			tr.sweep(values)
			if tr.db.Len() == 0 || tr.single.Store().Len() != tr.db.Len() {
				t.Fatalf("population mismatch: single %d, sharded %d", tr.single.Store().Len(), tr.db.Len())
			}
			// The trace must actually have spread data across shards.
			populated := 0
			for i := 0; i < tr.db.NumShards(); i++ {
				if tr.db.Store(i).Len() > 0 {
					populated++
				}
			}
			if populated < 2 {
				t.Fatalf("trace left %d shards populated; want at least 2", populated)
			}
		})
	}
}
