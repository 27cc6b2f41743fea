// Package ooindex selects optimal index configurations for paths in
// object-oriented databases, reproducing "On the Selection of Optimal
// Index Configuration in OO Databases" (Choenni, Bertino, Blanken, Chang;
// ICDE 1994).
//
// A database operation against a nested predicate processes a path
// P = C1.A1.A2...An through the aggregation hierarchy. Indexing the whole
// path with a single organization is often suboptimal: the paper's idea is
// to split the path into subpaths and allocate the cheapest index
// organization — multi-index (MX), multi-inherited index (MIX) or nested
// inherited index (NIX) — to each subpath, minimizing the workload's total
// page accesses. This package provides:
//
//   - the schema and path model (Definition 2.1), with the paper's Figure 1
//     example schema built in;
//   - the statistics and workload model of Section 3.2;
//   - the analytic cost models of Section 3 (Yao's function, CRL/CML/CRT/
//     CMT, per-organization query and maintenance costs, the Definition 4.2
//     boundary cost);
//   - the selection algorithm of Section 5 (cost matrix, per-subpath
//     minima, branch-and-bound over the 2^(n-1) recombinations) plus
//     exhaustive and dynamic-programming baselines;
//   - working implementations of the paper's five index organizations
//     (SIX, IIX, MX, MIX, NIX with primary and auxiliary structures) and
//     of the path index PX over a paged object store and B+-tree, with
//     page-access accounting; NX and NONE are cost columns only;
//   - an executor that runs queries and updates through a configuration,
//     and a synthetic database generator;
//   - the paper's extensions (Section 6): a no-index option and greedy
//     selection across multiple paths;
//   - a lifecycle engine that closes the selection loop online: it records
//     the live workload, detects drift, re-selects and reconfigures the
//     running database without blocking queries;
//   - a sharded engine (OpenSharded) that partitions the OID space across
//     N independent lifecycle engines, routes writes by OID hash, fans
//     value queries out and merges, and re-selects per shard;
//   - durable deployments (OpenDurable, OpenShardedDurable): a disk-backed
//     buffer pool, a write-ahead log with selectable fsync policy, and
//     checkpoint-based crash recovery, gated by fault-injection tests;
//   - a conjunctive-predicate planner (NewPlanner) that compiles
//     And/Or/Eq/Range trees over several registered paths into
//     selectivity-ordered probe plans, intersecting candidate OID sets
//     with a galloping zero-allocation kernel.
//
// # Quick start
//
//	ps := ooindex.Figure7Stats()            // path + statistics + workload
//	res, matrix, err := ooindex.Select(ps, nil)
//	if err != nil { ... }
//	fmt.Println(res.Best)                   // {(S1-2, NIX), (S3-4, MX)}
//	_ = matrix                              // inspect per-subpath costs
//
// # Performance
//
// The selection engine is built for throughput. The cost matrix is a
// dense triangular array — Cell and MinCost are O(1) array loads, with
// the per-subpath minima precomputed at construction — and the search
// procedures (OptIndCon, Exhaustive, DP) are iterative and
// allocation-free over a fixed matrix: their Into variants reuse the
// caller's result buffers and report 0 allocs/op under -benchmem.
// Matrix construction is where a selection spends its time, so the cells
// are what is made cheap: Yao's formula is evaluated in closed form, in
// time independent of the record count, and a per-path level table holds
// everything that depends on the level alone, so that an MX or MIX cell is
// a sum over table entries and only NIX, PX and NX cells evaluate cost
// functions. Select and SelectMulti serve the O(n^2) dynamic
// program's optimum; OptIndCon on the returned matrix gives the paper's
// branch-and-bound trace. On the reference 2-CPU container a Figure 7
// matrix builds in about 21 µs and a selection over a path of length 12
// with five organizations in about 350 µs.
//
// SelectMulti selects several paths one after another on the calling
// goroutine; concurrency over many paths is the caller's, around Select,
// which shares nothing between calls. The storage pager behind the
// working indexes is an access counter: a dense table of page pointers
// indexed by page ID, striped atomic counters, and — where a buffer pool
// is modelled — an LRU ring threaded through the pages themselves, so
// concurrent readers do not serialize on bookkeeping. See DESIGN.md for
// measured numbers.
//
// # Engine
//
// The paper selects a configuration once, from assumed workload
// frequencies; Open returns a lifecycle-managed engine that keeps
// selecting. Every query, insert and delete is counted per class by a
// lock-free recorder on the execution paths. When the observed operation
// mix drifts from the mix the active configuration was selected for by a
// total-variation distance of 0.25 or more over the Section 3.2 load
// triplets, the engine re-collects statistics from the live store,
// merges the observed frequencies in, re-runs the Section 5 selection,
// and swaps configurations online: only the subpath indexes absent from
// the old configuration are built — unchanged assignments keep their
// live, continuously maintained structures — and the new index set is
// published atomically. Queries take a read-locked snapshot of the active
// set, so they are never blocked by a reconfiguration and never observe a
// half-built configuration. Drive the loop manually (Advise,
// Reconfigure, ApplyConfiguration) or let the engine check drift every
// CheckEvery operations and retune in the background; see
// examples/selftuning.
//
// # Throughput
//
// The serving path is built for GOMAXPROCS-parallel readers: queries
// take no locks beyond the active set's read-locked snapshot — the
// pager's page table is an array of atomic pointers read without a lock,
// its counters striped and cache-line-padded, the workload recorder is
// per-cell padded atomics, and every layer exposes an Into-style kernel
// (Database.QueryInto down through btree.GetInto) that appends into
// caller buffers. A steady-state point
// query through the Example 5.1 optimal configuration runs with 0
// allocs/op (test-enforced), at ~12 µs/op on the 2-CPU build container
// (BenchmarkServe, which also reports the 1→8 goroutine ops/sec scaling
// curve on multi-core hosts). Between the hops of a
// Proposition 4.1 chain the OID sets are united in a bit set over the
// index's OID window (oodb.OIDSet): each OID sets its bit as it is
// decoded off the index records, and the set is read back once, sorted
// and deduplicated; a hop sparser than one OID per eight words of its
// window is sorted by comparison instead. A comparison sort of every hop
// used to take 70 % of a whole-path query: on the repository benchmark's
// embedded whole-path workload (benchmark/, embed_path; 2-CPU container)
// the linear union took it from 35k to about 150k queries/sec at
// identical page counts (DESIGN.md §4.2). A hop of the chain hands the next index a sorted OID set, and
// that set sweeps each B+-tree once — every node on the keys' paths read
// once, as Section 3.1's CRT prices it, instead of a descent per key —
// and a NIX record is opened once: the same workload reads 26.3 index
// pages per query where it read 58.2. Read concurrency is the
// caller's: nothing below the network server spawns a goroutine to answer
// a query, and every indexed read — a point or range query, a predicate
// leaf on an indexed path — is one Database.QueryHops chain (Query and
// QueryRange are its one-hop calls). The benchmark's embed_path workload
// measures this read path's ops/sec, p50/p99 latency and pages/op. The
// timed experiments of ixbench (E3, E5, E6, E9) time one operation per
// iteration on one worker, measure each cell as a warm-up plus three
// passes, report medians, and append one JSON line per run to the
// history file BENCH_experiments.jsonl.
//
// # Updates
//
// The write path is complete CRUD: Database.Update applies in-place
// attribute changes and reference re-links, returning the database to a
// state indistinguishable from a fresh index build (enforced by a
// differential test that interleaves thousands of random inserts, updates
// and deletes). Maintenance is incremental per organization — MX/MIX diff
// the changed values and touch only the records whose membership moves;
// NIX repairs the affected primary records with a numchild cascade in
// both directions (cascadeRemove for keys left, cascadeAdd re-keying the
// ancestor chain for keys gained, through the auxiliary index rather than
// the database); PX re-derives affected entries by navigation, the
// trade-off its cost model charges for. An update that does not touch
// the indexed path attribute costs zero index page accesses.
// Database.UpdateBatch applies a batch in input order (the batch
// serializes with configuration swaps, and commits, as a group), reporting
// per-update errors. Updates are recorded as
// their own operation kind, surface in WorkloadSnapshot, and enter drift
// and re-selection as half an insertion plus half a deletion — so an
// update-heavy shift in the mix retunes the configuration like any other
// drift. Experiment E3 (ixbench -run maintain) measures realized
// maintenance cost — pages/op by operation kind and ops/sec at mixed
// read/write ratios; DESIGN.md §5 records the per-organization formulas
// and the measured shape.
//
// # Sharding
//
// OpenSharded composes N independent engines into one OID-hash-
// partitioned database — a capacity and isolation step past a single
// engine (N stores, write locks, logs and recoveries), not a
// read-throughput one. Shard i's store only mints OIDs congruent to i mod N, so
// routing any OID-keyed operation — Get, Update, Delete, every entry of
// an UpdateBatch — is one modulo: a pure function of the OID, stable for
// the object's lifetime, with no directory to maintain. Value queries
// have no OID to hash; they visit, in shard order on the calling
// goroutine, every shard whose value summary admits the probe and merge
// the per-shard answers, which are
// disjoint sorted runs, into exactly the result a single engine holding
// all the objects would return — enforced by a differential test that
// replays mixed traces against both deployments. A planner over a
// ShardedDB goes one step further: it runs a whole predicate tree once
// per shard and merges only the tree's answers. Because the paper's
// model navigates forward references (queries chain through them, NIX
// and PX maintenance walk them), an object's references must live in its
// shard: Insert routes a referencing object to the shard owning its
// references, reference-free roots place round-robin or explicitly with
// InsertAt, and references spanning shards are rejected (ErrCrossShard)
// — the co-location contract of partitioned relational stores.
//
// Each shard is a full lifecycle engine with its own store, index set,
// workload recorder and drift tracking, so the Section 5 cost model
// applies per partition: Advise and Reconfigure re-select every shard
// independently, and because reads spread across the shards while
// writes partition, skewed write traffic drives shards to genuinely
// different configurations (see examples/sharded). A shard's class
// counters count the probes that shard executed. Each shard's engine
// is the one home of its workload: a planner leaf recorded against the
// ShardedDB lands on every shard, so each prices the mix the database
// served.
// WorkloadSnapshot rolls the per-shard recorders up; Drift reports
// per-shard, worst-shard and traffic-weighted aggregates. The
// benchmark's net_pred workload serves two shards behind the network
// server and traces what a sharded read costs (shard.query_us) and how
// many shard probes the summaries prune (shard.pruned_frac);
// TestShardedQueryEquivalence pins a sharded backend's answers and
// prune counters against the embedded calls. DESIGN.md §7 records the
// architecture and the measured shape.
//
// # Durability
//
// OpenDurable opens a disk-backed engine in a directory: every Insert,
// Update and Delete appends a CRC-framed record to a write-ahead log and
// commits per the configured policy — SyncAlways (fsync per operation:
// acknowledged means durable), SyncGroup (fsyncs amortized over a
// commit window) or SyncNever — before the operation returns, and store
// pages live behind a checksummed file-backed buffer pool, so a pool
// miss is a real, torn-write-detected disk read. Checkpoints (automatic
// past a WAL-size threshold, plus every configuration swap and Close)
// snapshot the object population and the active configuration via
// atomic renames and truncate the log. Reopening the directory recovers
// — snapshot, then WAL replay (a torn or corrupt tail is truncated,
// never replayed), then index rebuild — so the recovered database holds
// exactly the acknowledged operations, the active configuration
// survives restarts, and the OID sequence continues where it stopped. A
// failed append, fsync or write-back fails the operation that needed
// it and condemns the engine (DurabilityErr); reads keep serving the
// in-memory state. The contract is enforced by a differential crash
// gate: hundreds of randomized kill points (including mid-checkpoint
// and mid-reconfiguration) driven through a fault-injecting file layer,
// each recovered and compared — count, OID sequence, content
// fingerprint, index answers — against a reference store replaying the
// acknowledged prefix. OpenShardedDurable gives every shard its own
// WAL and checkpoints under one directory and recovers shards in
// parallel; per-shard configuration divergence and predicate mix persist. Experiment E5
// (ixbench -run durable) measures fsync-policy throughput, recovery
// time vs WAL length and cold-cache serving; DESIGN.md §8 records the
// protocol and the crash matrix. See
// examples/durable for a kill-and-recover walkthrough.
//
// # Planning
//
// The paper prices one path expression; real predicates conjoin several
// (age = 30 AND owns.man.name = "Ford"). NewPlanner returns a planner
// over a store; Register binds each path to whatever answers its probes
// — a Database or a ShardedDB. Eq, Range, And and Or build predicate
// trees; Planner.Query (or Plan + Execute, with Explain for the chosen
// shape) compiles a tree into a physical plan
// that probes indexed conjuncts cheapest-first — ordered by a live
// estimate of each leaf's result cardinality, fed back from every
// executed probe, falling back to the analytic model's uniform-value
// estimate when cold — and narrows the candidate set: a later indexed
// conjunct's chain keeps only the candidates it already has, any other
// later conjunct is intersected by a galloping, allocation-free
// sorted-OID intersection. Conjuncts whose path has no
// registered index become residual post-filters: each surviving
// candidate is verified against the store by forward navigation.
// Disjuncts on one path run as one chain through its index, entered
// through every disjunct's value or range at once; disjuncts on
// different paths merge through a k-way tournament merge. Executed plans
// record their predicate mix (point/range/residual per path), which
// surfaces in WorkloadSnapshot next to the per-class counters.
//
// Against a ShardedDB the planner evaluates the whole tree once per
// shard, in shard order on the calling goroutine, and merges the
// per-shard answers once: a path instance never spans shards, so every
// leaf's answer is the disjoint union of the shards' answers and And and
// Or distribute over them. Each shard's conjunctions short-circuit on
// their own, and no leaf's answer is merged across shards. Executed
// plans are accounted for once: a leaf any shard ran is recorded, and a
// probe every shard ran feeds the estimates its summed answer size. The
// planner also composes with summary pruning: each
// shard maintains min/max bounds plus a Bloom filter over its resident
// ending-attribute values, so value probes skip shards that provably
// cannot match — sound because a path instance never spans shards, and
// maintained incrementally on the facade's write path (deletions only
// loosen the summary; Reconfigure re-tightens it). Experiment E6
// (ixbench -run plan) measures both effects — selectivity ordering vs
// the worst fixed order vs naive scanning, and the pruned fan-out on a
// skewed sharded workload; DESIGN.md §9 records the design. See
// examples/planner for an end-to-end program.
//
// # Selection feedback
//
// The recorded workload feeds back into selection — the loop the
// paper's design-time load triplets leave open. SelectMultiWeighted
// takes a Workload snapshot and re-derives every path's query/update
// frequencies from it before selecting: class counters normalize over
// the fleet-wide evidence total (so paths keep their relative traffic
// through the shared-subpath cost merge),
// recorded range probes move query mass to range pricing, and residual
// predicate leaves — conjuncts served by store navigation for lack of
// an index — enter as root-class query load, so a residual-heavy path
// earns an index on its cost merits and a never-probed path sheds its
// own (an explicit whole-path NONE assignment when NONE is among the
// candidates). A zero-valued snapshot degrades to the unweighted
// selection bit for bit. The engines consume the same derivation:
// Advise and Reconfigure weigh the live snapshot (a sharded facade
// records each planner leaf on every shard, so each shard's advice sees
// the mix), a durable engine's predicate mix survives Close and reopen
// in its checkpoint, and because drift measures against what
// the same derivation writes the loop reaches a fixed point in one step — re-driving
// the mix an adopted configuration was selected from measures ~zero
// drift and advises no further change. Experiment E9 (ixbench -run
// feedback) measures workload-fed against static selection under a
// skewed recorded mix; DESIGN.md §12 records the model.
//
// # Serving over the network
//
// NewNetServer puts any backend with the engine's serving surface — a
// Database or a ShardedDB — behind a TCP server
// speaking a pipelined binary protocol, and DialNet returns a client
// for it. Frames are length-prefixed and CRC-framed exactly like the
// WAL's records: a corrupt, truncated or oversized frame fails the
// connection cleanly, never the server (fuzz-enforced). Responses carry
// the request id, so a client keeps many calls in flight on one
// connection — Query/Insert/Update/Delete block for one round trip;
// GoQuery and friends return a Call future whose Wait collects later.
//
// The server is where the serving path survives the socket boundary:
// per-connection readers decode into pooled request slots and feed
// dispatchers (each connection pinned to one, so its requests are
// served in arrival order); a dispatcher drains whatever has
// concurrently accumulated — the coalescing window, self-sized because
// the drain happens after the previous batch's execution — and serves
// update runs with one UpdateBatch, so on a durable backend group commit
// amortizes WAL fsyncs across connections; point queries are answered one
// by one on the dispatcher. A batch's responses are bundled into one
// framed write per connection. The steady-state dispatch path holds a
// fixed per-batch allocation budget (test-enforced). The server keeps
// no workload counts of its own: every request becomes a backend call,
// which the backend's engines record as they record an embedded one, so
// a served engine retunes itself exactly like an embedded one.
// cmd/ixserved is the standalone server (durable or
// in-memory, sharded or single, graceful drain on SIGINT/SIGTERM:
// every request already read is answered, then the engines checkpoint
// and the process exits 0); cmd/ixstress drives read/write mixes over
// many connections. The benchmark's net_point workload measures point
// queries over loopback, tracing the round trip (netclient.rtt_us,
// netclient.sync_query_us) and the coalescing (netserver.batch_size,
// netserver.coalesced_frac); ixstress against ixstress -sync, and a
// server started with ixserved -maxbatch 1, give what pipelining and
// coalescing buy. DESIGN.md §10 records the protocol and the measured
// shape. See examples/netclient.
//
// # Planning over the network
//
// The planner's predicate tree is also the wire's: WireEq and WireRange
// build leaves that name paths by server-registered id (the served path,
// NetServerOptions.Path, is id 1; NetServer.RegisterPath binds others) —
// a remote caller needs no schema — And and Or combine them as they
// combine Eq and Range, and the server fills each leaf's path from its id
// table in place before planning the tree it decoded. NetClient.Predicate or
// PredicateValues (with GoPredicate/GoPredicateValues futures) execute
// it server-side through the full §Planning machinery: selectivity
// ordering, galloping intersection, residual filters, shard pruning.
// The encoding is canonical (decode-or-error under fuzz, re-encoding
// byte-identical) with depth and node caps enforced at decode, so a
// hostile tree fails its connection, never the process. The dispatcher
// extends coalescing to predicates by dedup: identical trees arriving
// in one window cost one planner descent whose answer fans back to
// every caller, which is why parameterized query pools serve at batch
// rates over the wire. The benchmark's net_pred workload sends pooled
// trees and traces the planner descents per request
// (netserver.descents_per_req); DESIGN.md §11 records the encoding and
// the measured dividend.
//
// See README.md for the repository map, the examples/ directory for
// end-to-end programs, and DESIGN.md for the system inventory and the
// paper-versus-measured experiment index.
package ooindex
