package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/oodb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// Sharded durability. A durable sharded database is a directory holding
// one SHARDS manifest plus one subdirectory per shard, each a complete
// durable engine (its own WAL, checkpoint snapshot, manifest and page
// file — see internal/engine's durability layer):
//
//	SHARDS        — JSON: shard count and page size, written once at
//	                creation via temporary-plus-rename
//	shard-0000/   — shard 0's engine directory
//	shard-0001/   — shard 1's engine directory
//	...
//
// Because the shards partition both the OID space and the write traffic,
// they also partition the durability state: every shard logs, commits,
// checkpoints and recovers independently, with no cross-shard ordering
// to reconstruct. Recovery therefore parallelizes perfectly —
// OpenShardedDurable recovers every shard concurrently — and a
// checkpoint on one shard never stalls writers on another. Each shard's
// engine manifest persists its own active configuration and predicate
// mix, so per-shard selection divergence — and the planner evidence
// behind it — survives restarts exactly as it arose.

// shardsName is the top-level manifest naming the directory's geometry.
const shardsName = "SHARDS"

// DurableOptions tune a durable sharded database.
type DurableOptions struct {
	// Engine is applied to every shard's durable engine. FirstOID and
	// OIDStride are overridden per shard — the facade owns the strided
	// OID allocation — and must be left zero.
	Engine engine.DurableOptions
}

// shardsManifest is the JSON SHARDS contents.
type shardsManifest struct {
	Version  int `json:"version"`
	Shards   int `json:"shards"`
	PageSize int `json:"page_size"`
}

// shardDirName returns shard i's subdirectory name.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// OpenShardedDurable opens (or creates) a durable n-shard database in
// dir, recovering every shard in parallel. A fresh directory starts
// empty with every shard on cfg; on reopen each shard's persisted
// configuration wins over cfg (per-shard divergence survives restarts),
// and the directory's shard count and page size must match the
// caller's — a mismatched geometry is refused, since OID routing depends
// on it.
func OpenShardedDurable(dir string, s *schema.Schema, p *schema.Path, cfg core.Configuration, pageSize, n int, opts DurableOptions) (*DB, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if p == nil {
		return nil, fmt.Errorf("shard: nil path")
	}
	if opts.Engine.FirstOID != 0 || opts.Engine.OIDStride != 0 {
		return nil, fmt.Errorf("shard: DurableOptions.Engine.FirstOID/OIDStride are owned by the facade; leave them zero")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Crash leftover: a temporary never renamed into place is garbage.
	os.Remove(filepath.Join(dir, shardsName+".tmp"))
	if m, ok, err := readShardsManifest(dir); err != nil {
		return nil, err
	} else if ok {
		if m.Shards != n {
			return nil, fmt.Errorf("shard: %s was created with %d shards, opened with %d", dir, m.Shards, n)
		}
		if m.PageSize != pageSize {
			return nil, fmt.Errorf("shard: %s was created with page size %d, opened with %d", dir, m.PageSize, pageSize)
		}
	} else if err := writeShardsManifest(dir, shardsManifest{Version: 1, Shards: n, PageSize: pageSize}, opts.Engine.OpenFile); err != nil {
		return nil, err
	}

	// Recover every shard concurrently: the shards share no durable state,
	// so recovery time is the slowest shard, not the sum.
	engines := make([]*engine.Engine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eo := opts.Engine
			eo.FirstOID = uint64(i)
			if i == 0 {
				eo.FirstOID = uint64(n) // zero is never a valid OID
			}
			eo.OIDStride = uint64(n)
			engines[i], errs[i] = engine.OpenDurable(filepath.Join(dir, shardDirName(i)), s, p, cfg, pageSize, eo)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, e := range engines {
				if e != nil {
					e.Close() //nolint:errcheck // already failing; first error wins
				}
			}
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
	}

	stores := make([]*oodb.Store, n)
	for i, e := range engines {
		stores[i] = e.Store()
	}
	// Summaries are in-memory only: recovery replays the stores, and they
	// are rebuilt from the recovered contents.
	return assemble(p, stores, engines), nil
}

func readShardsManifest(dir string) (shardsManifest, bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, shardsName))
	if errors.Is(err, os.ErrNotExist) {
		return shardsManifest{}, false, nil
	}
	if err != nil {
		return shardsManifest{}, false, err
	}
	var m shardsManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return shardsManifest{}, false, fmt.Errorf("shard: corrupt manifest in %s: %w", dir, err)
	}
	return m, true, nil
}

// writeShardsManifest publishes SHARDS through the engines' OpenFile seam:
// written to a temporary, fsynced, then renamed, so a crash during the
// first open leaves no SHARDS or a complete one.
func writeShardsManifest(dir string, m shardsManifest, open func(string) (storage.File, error)) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	err = storage.WriteFileAtomic(open, filepath.Join(dir, shardsName), func(f storage.File) error {
		_, err := f.WriteAt(raw, 0)
		return err
	})
	if err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	return nil
}

// Checkpoint checkpoints every shard concurrently — flush, snapshot,
// manifest, WAL truncation, per shard. The first error in shard order is
// returned, but every shard is attempted: a failing shard is condemned
// by its own engine, not by its neighbors. A no-op on an in-memory
// database.
func (db *DB) Checkpoint() error {
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i, e := range db.shards {
		wg.Add(1)
		go func(i int, e *engine.Engine) {
			defer wg.Done()
			errs[i] = e.Checkpoint()
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close quiesces and closes every shard — including any background
// reconfiguration goroutines their drift checks spawned. All shards are
// closed regardless of individual failures; the first error in shard
// order is returned. An in-memory database has no files to release but
// still joins its background work.
func (db *DB) Close() error {
	var first error
	for i, e := range db.shards {
		if err := e.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// DurabilityErr returns the first latched durability failure across
// shards (shard order), or nil. A condemned shard refuses writes routed
// to it while the others keep serving — the error surfaces here so
// operators notice before the divergence matters.
func (db *DB) DurabilityErr() error {
	for i, e := range db.shards {
		if err := e.DurabilityErr(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// DurabilityStats sums the durability counters (WAL bytes, fsyncs)
// across shards. Zero-valued on an in-memory database.
func (db *DB) DurabilityStats() storage.Stats {
	var total storage.Stats
	for _, e := range db.shards {
		s := e.DurabilityStats()
		total.Fsyncs += s.Fsyncs
		total.WALBytes += s.WALBytes
	}
	return total
}
