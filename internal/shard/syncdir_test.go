package shard

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/schema"
)

// TestShardedRootEntryIsSynced: the root directory a fresh sharded open
// creates is itself an entry of its parent, and it is durable only once
// the parent is fsynced — before any shard is created in it. A reopen
// creates nothing and syncs nothing.
func TestShardedRootEntryIsSynced(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "db")
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	var synced []string
	syncDir = func(d string) error {
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("parent synced with the root holding %d entries (%v), want an empty root", len(entries), err)
		}
		synced = append(synced, d)
		return orig(d)
	}
	s, p := schema.PaperSchema(), schema.PaperPathOwnsManName()
	cfg := core.Configuration{Assignments: []core.Assignment{{A: 1, B: p.Len(), Org: cost.NIX}}}
	open := func() {
		db, err := OpenShardedDurable(dir, s, p, cfg, 1024, 2, engine.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open()
	if !slices.Equal(synced, []string{parent}) {
		t.Fatalf("fresh open synced %q, want the root's parent [%q]", synced, parent)
	}
	synced = nil
	open()
	if len(synced) != 0 {
		t.Fatalf("reopen synced %q, want nothing", synced)
	}
}
