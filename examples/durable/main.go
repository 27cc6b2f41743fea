// Command durable demonstrates crash recovery: a disk-backed database is
// killed mid-workload — the process's simulated death leaves a torn
// write-ahead log tail — and a reopen recovers exactly the acknowledged
// operations.
//
// The durable engine write-ahead logs every Insert, Update and Delete
// and fsyncs per the commit policy before acknowledging; checkpoints
// bound the log: a snapshot in the log's own frames — one insert record
// per live object, then a trailer with the geometry and configuration —
// fsynced and atomically renamed into place, then the WAL truncated. On
// reopen, recovery applies the checkpoint's records, replays the WAL
// over them — truncating a torn or corrupt tail rather
// than replaying it — and rebuilds the active configuration's indexes
// from the recovered objects.
//
// This program plays both the victim and the survivor: it populates a
// database, records what was acknowledged, simulates a kill by simply
// abandoning the engine (no Close, so no shutdown checkpoint — the WAL
// alone carries the tail of the state), corrupts the log's final bytes
// the way a torn sector would, and then reopens. The recovered database
// must hold every acknowledged-and-synced operation and nothing else.
//
// Run from the repository root:
//
//	go run ./examples/durable
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	ooindex "repro"
)

const pageSize = 1024

func main() {
	dir, err := os.MkdirTemp("", "ooindex-durable-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	p := ooindex.PaperPath() // Person.owns.man.name
	cfg := ooindex.Configuration{Assignments: []ooindex.Assignment{
		{A: 1, B: 3, Org: ooindex.NIX},
	}}

	// Phase 1: the victim. SyncAlways means every acknowledged operation
	// has been fsynced — the strongest contract, and the one that makes
	// "acknowledged" and "recoverable" the same set.
	db, err := ooindex.OpenDurable(dir, p, cfg, pageSize, ooindex.DurableOptions{
		Policy: ooindex.SyncAlways,
	})
	if err != nil {
		log.Fatal(err)
	}
	values := []ooindex.Value{ooindex.StrV("ford"), ooindex.StrV("volvo"), ooindex.StrV("fiat")}
	var owners int
	for i := 0; i < 30; i++ {
		co, err := db.Insert("Company", map[string][]ooindex.Value{"name": {values[i%len(values)]}})
		if err != nil {
			log.Fatal(err)
		}
		car, err := db.Insert("Vehicle", map[string][]ooindex.Value{"man": {ooindex.RefV(co)}})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := db.Insert("Person", map[string][]ooindex.Value{"owns": {ooindex.RefV(car)}}); err != nil {
			log.Fatal(err)
		}
		owners++
	}
	acked := db.Store().Len()
	walSize := db.WALSize()
	fmt.Printf("victim:    %d objects acknowledged (%d owners), WAL %d bytes\n",
		acked, owners, walSize)

	// The kill: no Close, no checkpoint. And worse — the last sector of
	// the log is torn, as a power cut mid-write would leave it. The file
	// is extended ahead of the log, so the tear is at the log's end.
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:walSize-3], 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kill:      process abandoned, WAL tail torn (%d of %d bytes survive)\n",
		walSize-3, walSize)

	// Phase 2: the survivor. Recovery replays the intact prefix and
	// truncates the torn record — the torn record's operation was never
	// acknowledged as synced past that point, so losing it keeps the
	// contract: everything acknowledged-and-fsynced is here.
	db2, err := ooindex.OpenDurable(dir, p, cfg, pageSize, ooindex.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	fmt.Printf("recovery:  %d WAL records replayed, %d objects recovered\n",
		db2.Replayed(), db2.Store().Len())
	if got := db2.Store().Len(); got != acked-1 {
		log.Fatalf("recovered %d objects, want %d (all acknowledged minus the torn tail record)", got, acked-1)
	}

	// The recovered indexes answer queries over the recovered state.
	for _, v := range values {
		hits, err := db2.Query(v, "Person", true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query:     owners of a %s-made vehicle: %d\n", v.Str, len(hits))
	}

	// And the survivor keeps writing: the OID sequence continues past
	// everything recovered, and a clean Close checkpoints so the next open
	// replays nothing.
	if _, err := db2.Insert("Company", map[string][]ooindex.Value{"name": {values[0]}}); err != nil {
		log.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		log.Fatal(err)
	}
	db3, err := ooindex.OpenDurable(dir, p, cfg, pageSize, ooindex.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer db3.Close()
	fmt.Printf("clean:     after checkpointed close, reopen replays %d records (%d objects)\n",
		db3.Replayed(), db3.Store().Len())
}
