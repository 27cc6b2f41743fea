package ooindex

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/netclient"
	"repro/internal/netserver"
	"repro/internal/oodb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Re-exported schema types: classes, attributes, paths (Definition 2.1).
type (
	// Schema is an OO database schema: classes with attributes, inheritance
	// and aggregation hierarchies.
	Schema = schema.Schema
	// Class is one class of a schema.
	Class = schema.Class
	// Attribute describes a class attribute.
	Attribute = schema.Attribute
	// Path is a path C1.A1...An over the aggregation hierarchy.
	Path = schema.Path
)

// Attribute kinds.
const (
	// Atomic marks a primitive-domain attribute.
	Atomic = schema.Atomic
	// Ref marks a reference attribute (part-of relationship).
	Ref = schema.Ref
)

// Re-exported statistics and workload types (Section 3).
type (
	// Params are the physical storage parameters.
	Params = model.Params
	// ClassStats are one class's statistics for its path attribute.
	ClassStats = model.ClassStats
	// Load is the (query, insert, delete) frequency triplet of a class.
	Load = model.Load
	// PathStats couples a path with per-level statistics and workload.
	PathStats = model.PathStats
)

// Re-exported cost and selection types (Sections 4–5).
type (
	// Organization is an index organization (MX, MIX, NIX, NONE).
	Organization = cost.Organization
	// Assignment pairs a subpath with an organization.
	Assignment = core.Assignment
	// Configuration is an index configuration IC_m(P).
	Configuration = core.Configuration
	// Matrix is the per-subpath, per-organization cost matrix.
	Matrix = core.Matrix
	// Result couples the optimal configuration with search statistics.
	Result = core.Result
)

// Index organizations.
const (
	// MX is the multi-index organization.
	MX = cost.MX
	// MIX is the multi-inherited index organization.
	MIX = cost.MIX
	// NIX is the nested inherited index organization.
	NIX = cost.NIX
	// NoIndex leaves a subpath unindexed (the Section 6 extension).
	NoIndex = cost.NONE
	// PathIndexOrg is the path index of [6] (Section 6 incorporation),
	// with both an analytic cost model and a working implementation.
	PathIndexOrg = cost.PX
	// NestedIndexOrg is the nested index of [1] (Section 6 incorporation):
	// a priced cost column only, as the paper describes it — selection runs
	// over it, no working structure is built and Open rejects it.
	NestedIndexOrg = cost.NX
)

// Re-exported working-database types.
type (
	// Store is the paged object store.
	Store = oodb.Store
	// OID identifies a stored object.
	OID = oodb.OID
	// Value is an attribute value (integer, string or reference).
	Value = oodb.Value
	// Object is a stored object.
	Object = oodb.Object
	// Database is the lifecycle-managed engine: a store coupled with the
	// working indexes of the active configuration, a live workload
	// recorder, and online reconfiguration (Advise, Reconfigure,
	// WorkloadSnapshot). Queries are never blocked by a reconfiguration
	// in flight.
	Database = engine.Engine
	// EngineOptions tune the engine's reconfiguration loop (assumed
	// baseline, evidence floor, automatic check cadence).
	EngineOptions = engine.Options
	// Advice is the outcome of one online re-selection pass.
	Advice = engine.Advice
	// ReconfigureReport describes one applied (or skipped) swap.
	ReconfigureReport = engine.Report
	// Workload is a point-in-time view of the recorded live traffic.
	Workload = stats.Workload
	// Write is one entry of a write batch passed to Database.Apply (or
	// ShardedDB.Apply): an in-place update of OID's named attributes (an
	// empty value slice removes the attribute; unnamed attributes keep
	// their values), the insert of a new object of Class, whose OID Apply
	// fills in, or the delete of OID, by Kind.
	Write = exec.Write
	// WriteKind says what a Write does; the zero value is an update.
	WriteKind = exec.WriteKind
	// Update is a Write by the name Database.UpdateBatch callers use: a
	// literal naming only OID and Attrs is an update.
	Update = exec.Update
	// Generated is a synthetic database materialized from statistics.
	Generated = gen.Generated
	// ShardedDB is an OID-hash-partitioned database: N independent
	// lifecycle engines behind one facade. Writes route to the shard
	// owning the OID (one modulo, no directory); value queries fan out
	// and merge answers bit-identically to a single engine; selection
	// and reconfiguration run per shard, so each partition settles on
	// the configuration its own traffic justifies. See OpenSharded.
	ShardedDB = shard.DB
	// ShardDriftView aggregates per-shard drift (worst shard and
	// traffic-weighted mean) for a sharded database.
	ShardDriftView = shard.DriftView
	// DurableOptions tune a durable engine: WAL commit policy, automatic
	// checkpoint threshold, buffer-pool capacity. The embedded
	// EngineOptions keep their in-memory meaning.
	DurableOptions = engine.DurableOptions
	// WALPolicy selects when the write-ahead log fsyncs: on every commit,
	// on a group-commit window, or never.
	WALPolicy = wal.Policy
)

// WAL commit policies for DurableOptions.Policy.
const (
	// SyncAlways fsyncs the WAL on every commit — full durability, one
	// fsync per write operation.
	SyncAlways = wal.SyncAlways
	// SyncGroup fsyncs at most once per group window (default 2ms),
	// amortizing the fsync over a burst of commits; a crash can lose the
	// last window's acknowledged operations.
	SyncGroup = wal.SyncGroup
	// SyncNever leaves syncing to the OS page cache — fastest, weakest.
	SyncNever = wal.SyncNever
)

// Write kinds for Write.Kind.
const (
	WriteUpdate = exec.WriteUpdate
	WriteInsert = exec.WriteInsert
	WriteDelete = exec.WriteDelete
)

// ErrCrossShard reports an insert or update whose references span
// shards; a path instance must stay within one shard (see ShardedDB).
var ErrCrossShard = shard.ErrCrossShard

// Re-exported serving-tier types: the TCP server, its client, and the
// wire-level error. The protocol is a length-prefixed, CRC-framed
// binary format; see internal/wire and DESIGN.md §10.
type (
	// NetServer serves a Database or ShardedDB over TCP, coalescing
	// concurrently-arriving requests into windows: a run of inserts,
	// updates and deletes becomes one Apply, identical predicate trees one
	// planner descent, and a
	// window's answers one write per connection, so the zero-allocation
	// read path and the group-commit fsync amortization survive the
	// socket boundary.
	NetServer = netserver.Server
	// NetServerOptions configure the server: the served path (predicate
	// path id 1), the coalescing window cap (1 is the per-request control
	// arm for benchmarks), and the dispatcher, queue and write bounds.
	NetServerOptions = netserver.Options
	// NetBackend is what a NetServer serves: one read method, QueryHops,
	// which answers point, range and predicate requests alike, plus one
	// write method, Apply; *Database and *ShardedDB both satisfy it. A
	// Database's store backs the server's naive predicate fallback, and
	// the backend, not the server, counts the workload.
	NetBackend = netserver.Backend
	// NetClient is the pipelining client: synchronous calls mirror the
	// Database methods, Go-prefixed calls return a NetCall future so many
	// requests share one round trip. Predicate and PredicateValues ship
	// Predicate trees, their leaves named by path id, to the server's
	// planner.
	NetClient = netclient.Client
	// NetCall is one in-flight pipelined request; Wait blocks for its
	// response.
	NetCall = netclient.Call
	// RemoteError is a server-side error delivered over the wire; the
	// connection remains usable after one.
	RemoteError = netclient.RemoteError
)

// NewNetServer wraps a backend in a TCP server; start it with Listen
// and stop it with Shutdown, which drains every request already read
// from a socket before returning.
func NewNetServer(be NetBackend, opts NetServerOptions) *NetServer {
	return netserver.New(be, opts)
}

// DialNet connects to a NetServer (or a running ixserved).
func DialNet(addr string) (*NetClient, error) { return netclient.Dial(addr) }

// WireEq builds the leaf predicate "path id's ending attribute = v" for a
// client: the leaf names a server-registered path id instead of a *Path,
// so a client needs no schema to query. Combine leaves with And and Or
// and ship the tree with NetClient.Predicate (OIDs) or
// NetClient.PredicateValues (ending-attribute projection). The server
// resolves ids through NetServer.RegisterPath, plans each distinct tree
// once per coalesced window, and answers errors per request — a bad
// tree never takes down the connection.
func WireEq(pathID uint16, v Value) Predicate { return wire.EqPred(pathID, v) }

// WireRange builds the leaf predicate "path id's ending attribute IN
// [lo, hi)" for a client, as WireEq.
func WireRange(pathID uint16, lo, hi Value) Predicate { return wire.RangePred(pathID, lo, hi) }

// Re-exported planner types: conjunctive predicates over several
// registered paths, compiled to selectivity-ordered probe plans.
type (
	// Planner compiles And/Or/Eq/Range predicate trees over registered
	// paths into cost-ordered physical plans; its Query method is the
	// one-call entry (plan, execute, record). Register each path with the
	// index source that serves it (a Database or a ShardedDB).
	Planner = plan.Planner
	// Predicate is a boolean combination of path predicates, built with
	// Eq, Range, And and Or. It is also the tree a NetClient ships, its
	// leaves built with WireEq and WireRange.
	Predicate = plan.Predicate
	// QueryPlan is one compiled physical plan: Execute returns OIDs,
	// ExecuteValues projects an ending attribute, Explain renders the
	// chosen probe order and residual filters.
	QueryPlan = plan.Plan
	// PredicateSource is anything that can answer a probe group for a
	// registered path: a disjunction of Hops — point and range leaves —
	// as one chain, optionally within a sorted candidate set, reporting
	// how many OIDs the chain produced; Database and ShardedDB both
	// satisfy it.
	PredicateSource = plan.Source
	// Hop is one first hop of a PredicateSource probe: the path's ending
	// attribute equals Lo, or — Ranged — falls in [Lo, Hi).
	Hop = exec.Hop
)

// NewPlanner returns an empty planner over the store; register paths
// with (*Planner).Register, then Plan or Query predicates. Residual
// conjuncts — leaves whose path has no registered index — are verified
// against the store by navigation.
func NewPlanner(st *Store) *Planner { return plan.NewPlanner(st) }

// Eq builds the predicate "path's ending attribute = v".
func Eq(p *Path, v Value) Predicate { return plan.Eq(p, v) }

// Range builds the predicate "path's ending attribute IN [lo, hi)".
func Range(p *Path, lo, hi Value) Predicate { return plan.Range(p, lo, hi) }

// And conjoins predicates (nested Ands flatten).
func And(preds ...Predicate) Predicate { return plan.And(preds...) }

// Or disjoins predicates (nested Ors flatten).
func Or(preds ...Predicate) Predicate { return plan.Or(preds...) }

// IntV, StrV and RefV construct attribute values.
func IntV(v int64) Value  { return oodb.IntV(v) }
func StrV(v string) Value { return oodb.StrV(v) }
func RefV(o OID) Value    { return oodb.RefV(o) }

// NewSchema returns an empty schema.
func NewSchema() *Schema { return schema.New() }

// NewPath builds and validates a path from a starting class through the
// named attributes (Definition 2.1).
func NewPath(s *Schema, start string, attrs ...string) (*Path, error) {
	return schema.NewPath(s, start, attrs...)
}

// NewPathStats builds a statistics skeleton for a path; fill it with
// (*PathStats).MustSet or SetClass/SetLoad.
func NewPathStats(p *Path, params Params) *PathStats { return model.NewPathStats(p, params) }

// DefaultParams returns 4 KiB-page physical parameters.
func DefaultParams() Params { return model.DefaultParams() }

// PaperParams returns the 1 KiB-page parameters calibrated to reproduce
// the paper's Example 5.1 (see DESIGN.md §6).
func PaperParams() Params { return model.PaperParams() }

// PaperSchema returns the Figure 1 schema (Person/Vehicle/Bus/Truck/
// Company/Division).
func PaperSchema() *Schema { return schema.PaperSchema() }

// PaperPath returns P_e = Person.owns.man.name (Example 2.1).
func PaperPath() *Path { return schema.PaperPathOwnsManName() }

// Figure7Stats returns the Example 5.1 path with the Figure 7 statistics
// and workload.
func Figure7Stats() *PathStats { return model.Figure7Stats() }

// Organizations is the paper's organization set {MX, MIX, NIX}.
var Organizations = cost.Organizations

// OrganizationsWithNoIndex adds the no-index extension column.
var OrganizationsWithNoIndex = cost.OrganizationsWithNone

// OrganizationsExtended is the full column set: the paper's three plus the
// Section 6 incorporations (PX, NX) and the no-index option.
var OrganizationsExtended = cost.OrganizationsExtended

// NaiveQueryRange evaluates A_n IN [lo, hi) by forward navigation.
func NaiveQueryRange(st *Store, p *Path, lo, hi Value, targetClass string, hierarchy bool) ([]OID, error) {
	return exec.NaiveQueryRange(st, p, lo, hi, targetClass, hierarchy)
}

// CollectStats derives PathStats from a live store by scanning each class
// once: cardinalities, distinct value counts and fan-outs per level.
// Workload frequencies are left zero (they describe future operations);
// fill them with SetLoad or stats helpers before selecting.
func CollectStats(st *Store, p *Path, params Params) (*PathStats, error) {
	return stats.Collect(st, p, params)
}

// CostMatrix computes the Cost_Matrix of Section 5 for a path's statistics
// under the given organizations (nil means {MX, MIX, NIX}).
func CostMatrix(ps *PathStats, orgs []Organization) (*Matrix, error) {
	return core.NewMatrixFromStats(ps, orgs)
}

// Select runs the full selection — Cost_Matrix, Min_Cost and the O(n^2)
// dynamic program, which finds the optimum Opt_Ind_Con finds — returning
// the optimal configuration, the search statistics, and the matrix for
// inspection; OptIndCon on the matrix gives the paper's branch-and-bound
// trace.
func Select(ps *PathStats, orgs []Organization) (Result, *Matrix, error) {
	return core.Select(ps, orgs)
}

// SubpathCost prices one subpath [a..b] under one organization
// (Proposition 4.2's per-subpath term).
func SubpathCost(ps *PathStats, a, b int, org Organization) (float64, error) {
	sc, err := cost.SubpathProcessingCost(ps, a, b, org)
	if err != nil {
		return 0, err
	}
	return sc.Total(), nil
}

// NewStore creates an empty object store over the schema.
func NewStore(s *Schema, pageSize int) (*Store, error) { return oodb.NewStore(s, pageSize) }

// Generate materializes a synthetic database matching ps scaled by scale.
func Generate(ps *PathStats, scale float64, seed int64) (*Generated, error) {
	return gen.Generate(ps, scale, seed)
}

// Open builds the working index structures of a configuration over a
// store's current contents and returns the lifecycle-managed database:
// Query, Insert, Update and Delete keep the indexes maintained and feed
// the workload recorder; Advise, Reconfigure and WorkloadSnapshot close
// the measure–select–reconfigure loop online. With the zero options the
// engine never reconfigures on its own; see OpenWithOptions.
func Open(st *Store, p *Path, cfg Configuration, pageSize int) (*Database, error) {
	return engine.New(st, p, cfg, pageSize, engine.Options{})
}

// OpenWithOptions is Open with explicit engine options: the check
// cadence for automatic background reconfiguration, the assumed workload
// baseline, and the evidence floor below which drift reads zero.
func OpenWithOptions(st *Store, p *Path, cfg Configuration, pageSize int, opts EngineOptions) (*Database, error) {
	return engine.New(st, p, cfg, pageSize, opts)
}

// OpenSharded creates an empty OID-hash-partitioned database: nShards
// independent engines (each with its own store, index set, workload
// recorder and drift-triggered re-selection under opts) composed behind
// one facade. Shard i's store only mints OIDs congruent to i mod
// nShards, so OID-keyed operations route with one modulo; value queries
// fan out across shards and merge. Populate through Insert (routed by
// reference locality, round-robin for reference-free roots) or InsertAt
// (explicit co-location); drive per-shard selection with Advise,
// Reconfigure and Shard(i). To shard pre-populated stores, build them
// with shard.NewStores and open with shard.Open.
func OpenSharded(p *Path, cfg Configuration, pageSize, nShards int, opts EngineOptions) (*ShardedDB, error) {
	return shard.New(p.Schema(), p, cfg, pageSize, nShards, shard.Options{Engine: opts})
}

// OpenDurable opens (or creates) a disk-backed database in dir: a
// lifecycle engine whose writes are write-ahead logged and fsynced per
// the commit policy, whose pages live behind a checksummed file-backed
// buffer pool, and which checkpoints (snapshot + WAL truncation)
// automatically as the log grows. Reopening the directory recovers —
// checkpoint, then WAL replay, then index rebuild — so acknowledged
// operations survive crashes; the persisted configuration wins over cfg
// on reopen. Call Close for a clean shutdown (empty WAL on
// the next open).
func OpenDurable(dir string, p *Path, cfg Configuration, pageSize int, opts DurableOptions) (*Database, error) {
	return engine.OpenDurable(dir, p.Schema(), p, cfg, pageSize, opts)
}

// OpenShardedDurable opens (or creates) a disk-backed sharded database
// in dir: nShards durable engines in per-shard subdirectories, each with
// its own WAL, checkpoints and recovery, recovered in parallel on
// reopen. The directory's shard count and page size are persisted and
// must match on reopen — OID routing depends on them. opts applies to
// every shard's engine; leave its FirstOID and OIDStride zero.
func OpenShardedDurable(dir string, p *Path, cfg Configuration, pageSize, nShards int, opts DurableOptions) (*ShardedDB, error) {
	return shard.OpenShardedDurable(dir, p.Schema(), p, cfg, pageSize, nShards, opts)
}

// NaiveQuery evaluates a nested predicate by forward navigation, without
// indexes — the baseline the paper's introduction motivates indexing with.
func NaiveQuery(st *Store, p *Path, value Value, targetClass string, hierarchy bool) ([]OID, error) {
	return exec.NaiveQuery(st, p, value, targetClass, hierarchy)
}

// MultiPlan is the result of selecting configurations for several paths
// (the Section 6 "further research" extension): per-path configurations
// plus the deduplicated set of physical subpath indexes, where paths
// sharing a structurally identical indexed subpath share one structure.
type MultiPlan = core.MultiPlan

// SelectMulti selects configurations for several paths and merges
// structurally identical indexed subpaths. Paths must share a schema.
// The per-path selections run one after another on the calling goroutine
// (concurrency over many paths is the caller's); the merge is deterministic
// in input order.
func SelectMulti(pss []*PathStats, orgs []Organization) (MultiPlan, error) {
	return core.SelectMulti(pss, orgs)
}

// SelectMultiWeighted is SelectMulti weighted by a recorded workload
// snapshot: per-path load triplets are re-derived from the observed class
// counters and predicate mix (normalized fleet-wide, so paths keep their
// relative traffic), a residual-heavy path earns an index on its cost
// merits, and a path the workload never touched sheds its indexes to the
// explicit NONE assignment when NONE is among the candidate
// organizations. With a zero-valued snapshot the result is bit-identical
// to SelectMulti — the degradation contract the weighted-equivalence
// property suite enforces.
func SelectMultiWeighted(pss []*PathStats, orgs []Organization, w Workload) (MultiPlan, error) {
	return core.SelectMultiWeighted(pss, orgs, w)
}
