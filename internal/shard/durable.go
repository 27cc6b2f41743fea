package shard

import (
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
// one subdirectory per shard, each a complete durable engine (its own WAL,
// checkpoint and page file — see internal/engine's durability layer):
//
//	shard-0000/   — shard 0's engine directory
//	shard-0001/   — shard 1's engine directory
//	...
//
// The geometry lives in the shards' own checkpoints: shard i runs the OID
// sequence i (mod n) with stride n, and its checkpoint trailer records
// both and the page size, so shard 0's trailer is the shard-count check.
// Existing shard directories recover concurrently; a missing one is
// created only once shard 0 has opened, so a refused open creates nothing.
// The shards partition the OID space and the write traffic, so each logs,
// commits, checkpoints and recovers on its own, with no cross-shard
// ordering to reconstruct, and each checkpoint persists its own
// configuration and predicate mix: per-shard divergence survives restarts.

// syncDir is the storage.SyncDir OpenShardedDurable makes a new root's
// entry durable with: a variable so this package's tests can observe the
// call.
var syncDir = storage.SyncDir

// shardDirName returns shard i's subdirectory name.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// OpenShardedDurable opens (or creates) a durable n-shard database in
// dir. A fresh directory starts empty with every shard on cfg; on reopen
// each shard's persisted configuration wins over cfg (per-shard
// divergence survives restarts), and the directory's shard count and
// page size must match the caller's — a mismatched geometry is refused,
// since OID routing depends on it. opts applies to every shard's engine;
// its FirstOID and OIDStride are set per shard and must be left zero.
func OpenShardedDurable(dir string, s *schema.Schema, p *schema.Path, cfg core.Configuration, pageSize, n int, opts engine.DurableOptions) (*DB, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if p == nil {
		return nil, fmt.Errorf("shard: nil path")
	}
	if opts.FirstOID != 0 || opts.OIDStride != 0 {
		return nil, fmt.Errorf("shard: DurableOptions.FirstOID/OIDStride are owned by the facade; leave them zero")
	}
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		// A new root's own entry is durable before any shard in it.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return nil, err
		}
	}

	engines := make([]*engine.Engine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	open := func(i int) {
		defer wg.Done()
		eo := opts
		eo.FirstOID = uint64(i)
		if i == 0 {
			eo.FirstOID = uint64(n) // zero is never a valid OID
		}
		eo.OIDStride = uint64(n)
		engines[i], errs[i] = engine.OpenDurable(filepath.Join(dir, shardDirName(i)), s, p, cfg, pageSize, eo)
	}
	// Shard 0 and every existing shard recover concurrently; the missing
	// ones are created once those have opened — shard 0's checkpoint
	// vouching for the geometry.
	var missing []int
	for i := 0; i < n; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardDirName(i))); i > 0 && errors.Is(err, os.ErrNotExist) {
			missing = append(missing, i)
			continue
		}
		wg.Add(1)
		go open(i)
	}
	wg.Wait()
	if errors.Join(errs...) == nil {
		for _, i := range missing {
			wg.Add(1)
			go open(i)
		}
		wg.Wait()
	}
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

// Checkpoint checkpoints every shard in shard order — each publishes its
// snap.ckpt, then resets its WAL. The first error in shard order is
// returned, but every shard is attempted: a failing shard is condemned
// by its own engine, not by its neighbors. A no-op on an in-memory
// database.
func (db *DB) Checkpoint() error {
	var first error
	for i, e := range db.shards {
		if err := e.Checkpoint(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
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
