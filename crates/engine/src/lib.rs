//! # `esm-engine` — a concurrent, transactional bidirectional database
//! engine over entangled sessions.
//!
//! The paper models a bidirectional transformation as two entangled
//! stateful interfaces over one shared hidden state. That is exactly the
//! shape of a database serving live views: the hidden state is the base
//! table, each client's view is an entangled window onto it, and every
//! view write is a lens `put` whose effect every other view observes.
//! This crate scales that idea from a single-threaded session to a real
//! engine: snapshot transactions, a write-ahead log, materialized
//! views, and key-range shards that commit in parallel.
//!
//! ## Architecture
//!
//! One engine holds the state: [`ShardedEngineServer`], whose one-shard
//! case ([`EngineServer`]) is the plain in-process engine. Clients never
//! see its shape — they see the [`Engine`] trait. Handles
//! ([`EntangledView`]) and per-client state ([`Session`]) are written
//! against `dyn Engine`, so the same client code (and the same
//! conformance suite, [`testkit`]) runs against one shard or many, a
//! read replica, and — via the `esm-net` crate's
//! `RemoteEngine`/`NetServer` pair — an engine on the far side of a
//! socket:
//!
//! ```text
//!   client state                 the one trait            hosts
//!  ┌────────────────┐    ┌───────────────────────┐   ┌──────────────────────────┐
//!  │ Session        │    │ Engine                │   │ ShardedEngineServer      │
//!  │  ├ view handles├───▶│  transact             │◀──┤  ├ ShardRouter (ranges)  │
//!  │  ├ retry policy│    │  define_view / view   │   │  ├ Shard ×N: db + wal +  │──▶ shard-<id>/
//!  │  └ commit stamp│    │  read_view            │   │  │   stamp index each    │    wal-*.seg
//!  ├────────────────┤    │  write_view           │   │  ├ views: DeltaLens +    │    checkpoint-*.ckpt
//!  │ EntangledView  ├───▶│  edit_view_delta      │   │  │   per-shard windows   │──▶ topology.esm
//!  │  .get/.put     │    │  metrics / checkpoint │   │  ├ ShardCoordinator (2PC)│
//!  │  .edit(f)      │    │  snapshot / sync_wal  │   │  └ rebalance split/merge │
//!  └────────────────┘    └───────────┬───────────┘   ├──────────────────────────┤
//!                                    │               │ ReplicaEngine            │
//!        the same handles, over ─────┘               │  mirrored log → a one-   │
//!        a wire (esm-net):                           │  shard serving engine    │
//!  ┌────────────────┐  frames   ┌────────────────┐   ├──────────────────────────┤
//!  │ RemoteEngine   ├─[len|crc|─▶ NetServer      │   │ RemoteEngine (esm-net)   │
//!  │ impl Engine    │  payload] │  poller+workers├──▶│  window-delta edits and  │
//!  └────────────────┘◀──────────┤  Session/conn  │   │  delta transactions      │
//!                               └────────────────┘   └──────────────────────────┘
//! ```
//!
//! ### The [`Engine`] trait and [`Session`]s
//!
//! [`Engine`] is object safe (`Arc<dyn Engine>` is the working
//! currency): view handles hold one, a [`Session`] adds per-client
//! state on top — cached view registrations, the client's last commit
//! stamp, and its optimistic retry policy — and the network server
//! creates one `Session` per accepted connection, so "per-client"
//! means the same thing in-process and on a socket.
//! [`Engine::transact`] commits multi-table snapshot transactions
//! atomically on every host: chained WAL record groups within a shard,
//! per-key routing with two-phase commit across shards, and
//! client-driven pre-image validation over the wire.
//!
//! ### Sharding ([`shard`])
//!
//! [`shard::ShardedEngineServer`] partitions every table across N
//! [`shard::Shard`]s by primary-key range ([`shard::ShardRouter`]): each
//! shard owns its own committed database piece, in-memory WAL and
//! (optionally) durable segment log under `base-dir/shard-<id>/`, so
//! disjoint traffic shares neither a lock nor a commit pipeline. With
//! one shard every commit takes the fast path below.
//!
//! * **Single-shard fast path**: a transaction whose keys route to one
//!   shard validates first-committer-wins against that shard's WAL
//!   alone and commits under its lock — no coordination.
//! * **Cross-shard 2PC**: the [`shard::ShardCoordinator`] write-locks
//!   every participant in index order, appends each shard's delta chain
//!   terminated by a `!prepare <gtx>` marker (fsynced), then appends
//!   `!resolve commit <gtx>` and applies. Recovery settles a
//!   coordinator crash deterministically: if *any* shard's log holds a
//!   commit resolution the transaction commits everywhere, otherwise it
//!   is presumed aborted everywhere — all-or-nothing on every shard.
//!   The missing resolutions are appended during recovery, so the logs
//!   self-heal.
//! * **Online rebalancing**: [`shard::ShardedEngineServer::split_shard`]
//!   drains a key range into a fresh shard under a brief write fence
//!   (new shard's genesis checkpoint = the moved rows; the donor logs a
//!   deletion delta), `merge_shards` fuses adjacent ranges; the
//!   `topology.esm` manifest is rewritten atomically and recovery prunes
//!   whatever a mid-rebalance crash left out of place.
//! * **Routing-oblivious clients**: `define_view` hands out the same
//!   [`EntangledView`] handles whatever the shard count; `get`/`put`/
//!   `edit` read consistent cross-shard windows and coordinate writes
//!   per key automatically.
//!
//! ### Materialized views (the read path)
//!
//! Views are first-class materialized objects, not queries re-run per
//! read. The lifecycle has four phases:
//!
//! 1. **Register** ([`shard::ShardedEngineServer::define_view`]): the
//!    [`ViewDef` pipeline](esm_relational::ViewDef) compiles to a
//!    [`esm_lens::DeltaLens`] — `get`/`put` as ever, plus `get_delta`
//!    mapping a committed base [`esm_store::Delta`] to the view's
//!    coordinates (select filters the delta's rows, project maps them,
//!    rename passes them through). This is the one sanctioned full
//!    lens `get`: registration materializes one window per shard.
//! 2. **Maintain** (`read_view`): each window remembers the WAL
//!    position it reflects. A read drains the committed records past
//!    that cursor, translates them through `get_delta`, and folds the
//!    view deltas into the window in place — O(changes since the last
//!    read), never a whole-base `get` or a whole-database assembly. On
//!    a sharded engine the drain honours the 2PC transaction structure
//!    (prepared chains count only at their commit resolution), and all
//!    consulted shard read locks are held together so no cross-shard
//!    transaction is ever observed half-applied.
//! 3. **Prune** (more than one shard): the view definition's base-schema
//!    selects imply bounds on the key
//!    ([`esm_relational::ViewDef::key_bounds`] →
//!    [`esm_store::Predicate::value_bounds`]); the router maps them to
//!    the contiguous shard run the window can touch
//!    ([`shard::ShardRouter::shards_in_value_range`]). Reads consult
//!    only that run; writes, puts included, go through the one edit loop
//!    and lock only the shards owning the keys they touch. Untouched
//!    shards are never locked, drained or cloned.
//! 4. **Rebuild** (the escape hatch): a delta the lens cannot translate
//!    ([`esm_lens::DeltaOutcome::Rebuild`]), or a topology change
//!    (split/merge bumps the epoch the windows were built against),
//!    re-runs the lens `get` against the live base — correctness never
//!    depends on propagation. [`metrics::ViewStats`] counts
//!    materialized reads, deltas applied, rebuilds and shards pruned;
//!    in steady state `rebuilds` stays flat at its registration value
//!    (asserted by the suites, and by the incremental/recompute
//!    equivalence proptest in `tests/view_maintenance.rs`).
//!
//! ### Subscriptions ([`sub`]): subscribe → commit → drain → push
//!
//! Materialized views also serve *push* consumers. The engine side of
//! the story is two primitives, both O(changes) like `read_view`:
//!
//! * **Commit notification** ([`Engine::commit_notifier`] →
//!   [`CommitNotifier`]): every committed transaction publishes its
//!   commit stamp on a shared condvar. A push loop parks
//!   in `CommitNotifier::wait_past(seen, timeout)` and wakes exactly
//!   when there is something it has not yet fanned out — no polling of
//!   table contents, no wakeups on idle databases. Engines without a
//!   notifier (the trait default returns `None`) still work; callers
//!   fall back to a coarse tick.
//! * **Cursor drains** ([`Engine::view_deltas_since`] →
//!   [`ViewDeltas`]): given a view name and the commit stamp the
//!   consumer last saw, return the settled base-table deltas past that
//!   stamp translated through the view's lens — the same `get_delta`
//!   machinery `read_view` uses, so a drain costs O(deltas in the gap),
//!   not O(window), on any shard count. Each shard indexes the stamps it
//!   committed against its WAL positions, so a stamp maps to a position
//!   in every shard's log. Three answers are possible: a **delta batch**
//!   (`resync: None`, apply in order), an **empty batch** (cursor is
//!   current), or a **resync** (`resync: Some(window)`) when the cursor
//!   predates the truncated WAL prefix or the last split/merge, falls
//!   outside the live window, or is the explicit `u64::MAX`
//!   force-resync sentinel — the consumer replaces its replica
//!   wholesale and resumes from `to_seq`.
//!   Unsettled trailing transactions (an open chain, an unresolved 2PC
//!   prepare) are never handed out; the cursor simply does not advance
//!   past them.
//!
//! The esm-net crate composes these into the wire protocol's
//! SUBSCRIBE/PUSH verbs: its push pump waits on the notifier, drains
//! each subscribed view once per commit burst (one drain shared by
//! every subscriber at the same cursor), and writes PUSH frames with
//! per-connection backpressure. The lifecycle rustdoc on `esm-net`
//! covers the socket half; the invariant the engine half guarantees is
//! that a consumer applying every delta batch in `from_seq` order —
//! resyncing when told to — holds a replica identical to
//! `read_view` at the same stamp.
//!
//! ### Transaction atomicity in the WAL
//!
//! The WAL is an op log ([`wal::WalOp`]): delta records carry a *chain*
//! flag linking multi-record transactions (`k - 1` chained records + a
//! terminator), and 2PC writes `!prepare`/`!resolve` marker records.
//! The durability unit is the whole transaction: recovery
//! ([`durable::resolve_transactions`]) applies complete chains, holds
//! prepared chains in doubt for the sharded recovery to settle, and
//! discards (and truncates) an unterminated trailing chain — a
//! multi-table commit can never recover as a prefix.
//!
//! ### Transaction lifecycle
//!
//! [`ShardedEngineServer::transact`] snapshots the participant shards
//! under their read locks together; the body works on a private copy;
//! the commit diffs every table with [`esm_store::Delta::between`],
//! validates **first-committer-wins** per shard (a commit conflicts iff
//! a WAL record newer than its snapshot touches one of the same primary
//! keys), then appends the deltas to the WAL and publishes them.
//! Disjoint concurrent commits rebase cleanly; overlapping ones retry
//! and finally abort with [`EngineError::Conflict`]. The wire's checked
//! commit skips the snapshot: it validates the client's pre-images
//! against the live piece under the shard lock.
//!
//! A transaction's snapshot and working copy are not deep copies.
//! Tables keep their rows and indexes in copy-on-write chunks
//! ([`esm_store::CowMap`]: sorted vectors of at most 256 entries, each
//! row stored once and ordered by its key cells in place), so a
//! snapshot or the body's working copy costs O(tables) pointer copies,
//! a write copies the chunk pointers of its map and the one chunk it
//! touches, and the diff skips every chunk the two copies still share:
//! a one-row transaction costs O(chunks + delta), not O(rows). The same holds for a view edit's
//! copy of its window, a `read_view` window, a checkpoint capture and
//! each replayed WAL record, which applies in place. The price moves to
//! the writer: while any reader holds a snapshot, the next write to a
//! chunk it shares copies that chunk (at most 256 entries). A
//! transaction releases its own snapshot before its commit applies, so
//! it never pays that copy on its own account.
//!
//! ### WAL format ([`wal`])
//!
//! An append-only sequence of `(seq, table, delta)` records, one per
//! committed table change, with one schema-free binary codec
//! ([`esm_store::codec`]: type-tagged cells, length-prefixed strings).
//! [`Wal::replay`] applies the records to the database the log started
//! from and reproduces the live state exactly. Sequence numbers must
//! strictly increase; duplicates are rejected with the typed
//! [`EngineError::DuplicateSeq`] instead of being silently re-applied.
//!
//! Each shard holds **one copy** of its data, the live piece, so the
//! **replay law** is a statement about the log that is actually
//! replayed: recovering a durable engine's directory gives its live
//! state ([`testkit::recovered_snapshot`] checks it on a copy).
//!
//! The in-memory log is **bounded**: an append that takes a shard's log
//! past [`WAL_RETAINED_RECORDS`] drops, under the same write lock, the
//! oldest records up to a settled transaction boundary
//! ([`Wal::settled_prefix_end`]) and their stamp-index entries. Neither
//! idle views nor the durable checkpoint hold it. Readers below the new
//! start fall back: a view window rebuilds from the live piece, a
//! subscription resyncs, and an older snapshot conflicts and retries.
//!
//! ### Durability ([`durable`], [`segment`], [`checkpoint`])
//!
//! In-memory is the default; pass a [`DurabilityConfig`] to
//! [`ShardedEngineServer::with_durability`] and every commit is
//! *written ahead* to an on-disk log before it is applied. The base
//! directory holds the `topology.esm` manifest and one log directory
//! per shard:
//!
//! ```text
//! base-dir/shard-0/
//!   checkpoint-00000000000000000000.ckpt   genesis snapshot (seq 0)
//!   checkpoint-00000000000000000256.ckpt   newest checkpoint
//!   wal-00000000000000000201.seg           segment: records 201..=262
//!   wal-00000000000000000263.seg           active segment (tail)
//! ```
//!
//! **Segments** (`wal-<first seq, zero-padded>.seg`) hold consecutive
//! records, each wrapped in one binary CRC frame:
//!
//! ```text
//! frame: [0xB5][payload len: u32 LE][crc32(payload): u32 LE][payload]
//!        payload = tag byte, seq u64 LE, then length-prefixed fields
//!        and deltas in the esm-store binary codec
//! ```
//!
//! A frame that does not start with `0xB5` is corrupt (a crash only
//! shortens a file; it cannot rewrite a frame's first byte). The active
//! segment rotates to a fresh file past
//! [`DurabilityConfig::segment_bytes`], so compaction can drop whole
//! files. **Checkpoints** (`checkpoint-<seq>.ckpt`) and the
//! `topology.esm` manifest are each one *sealed* file,
//! `[magic][body len: u32 LE][crc32(body): u32 LE][body]`, written
//! atomically (temp file → fsync → rename → directory fsync). A
//! checkpoint's body is its `seq` followed by the database in the
//! [`esm_store::codec`] form. The log keeps no database of its own: a
//! checkpoint serializes a chunk-sharing clone of the shard's live
//! piece, captured under the shard's write lock at the log's end, so a
//! checkpoint never replays anything.
//! Compaction retains the newest **two** checkpoints (fallback if the
//! newest proves unreadable) and deletes every segment fully covered by
//! the older retained one.
//!
//! **Group commit**: appends buffer and one fsync covers up to
//! [`DurabilityConfig::group_commit`] records. With `group_commit = 1`
//! every acknowledged commit is durable before the call returns; with
//! `n > 1`, a crash may drop up to `n - 1` acknowledged records — but
//! always to a clean *transaction* boundary, never a torn state or a
//! prefix of a multi-record chain. Frames carry a CRC32, so mid-stream
//! bit rot is detected (and refused) rather than mistaken for a torn
//! tail. Checkpoints and compaction run on a background maintenance
//! thread, never on a committing thread.
//!
//! **Cross-session group commit** (`durable::GroupCommit`): under
//! `group_commit = 1`, concurrent committers share fsyncs instead of
//! queueing one behind another's. A commit appends its record under
//! the WAL write lock, *releases the lock*, then parks on the gate's
//! condvar with its record's seq:
//!
//! 1. If the gate already shows `durable_seq >= seq`, return — some
//!    leader's fsync covered this record.
//! 2. If another leader's fsync is in flight, wait on the condvar:
//!    that fsync began *after* this record was appended, so its
//!    completion covers it.
//! 3. Otherwise become the leader: re-take the engine lock, read the
//!    WAL's `last_seq` (the batch accumulated while waiting — every
//!    session that appended before this instant rides along), fsync
//!    once, publish the new `durable_seq`, and wake all waiters.
//!
//! N sessions committing concurrently cost ~1 fsync instead of N; a
//! failed leader fsync poisons the gate (fail-stop — the log's tail is
//! unknowable), and every current and future waiter gets the error.
//!
//! **Recovery** ([`ShardedEngineServer::recover`]) runs, per shard, a
//! four-step state machine — *checkpoint scan* (newest valid checkpoint; torn ones are
//! skipped), *segment scan* (decode each segment's longest
//! complete-record prefix; [`segment::decode_segment_prefix`] tolerates
//! tails cut mid-line or mid-code-point), *plan*
//! ([`durable::plan_recovery`]: skip stale/duplicate records, require
//! the rest to extend the checkpoint contiguously, reject gaps as
//! corruption), and *repair* (truncate torn tails, resume the log on a
//! fresh segment). `tests/crash_recovery.rs` drives this at **every byte
//! offset** of a recorded multi-segment run and asserts the recovered
//! state equals the live state at the longest durable prefix — the
//! paper's replayed-state ≡ live-state equivalence, checked exhaustively
//! under crashes.
//!
//! ### Replication and the shard fleet ([`repl`])
//!
//! A durable sharded primary already writes everything a replica needs:
//! self-delimiting WAL segments and atomically-renamed checkpoints, per
//! shard. Replication *ships those files* rather than inventing a
//! second log. The lifecycle:
//!
//! ```text
//! primary ──ship──▶ mirror dir ──recover/replay──▶ replica ──promote──▶ primary
//! ```
//!
//! 1. **Ship** ([`repl::shipper`]): a [`WalSource`] exposes the
//!    primary's log as a manifest of `(path, len)` plus ranged reads —
//!    [`DirWalSource`] reads the directory locally,
//!    [`ShardedEngineServer::repl_source`] serves a live engine, and
//!    esm-net's `RemoteWalSource` carries the same two calls over the
//!    wire (`repl_manifest` / `repl_fetch`), so a replica never needs
//!    shared disk. Within one manifest snapshot only the *last* segment
//!    per shard can be torn, which is exactly the tail tolerance
//!    recovery already has.
//! 2. **Apply** ([`repl::replica`]): [`ReplicaEngine`] appends shipped
//!    bytes to a local mirror (fsynced only when bytes arrived) and
//!    re-runs recovery over it — replay *is* the apply path, so a
//!    replica can crash anywhere and come back consistent. It serves
//!    the full [`Engine`] read surface behind [`ReplicaEngine::serving`];
//!    writes return [`EngineError::NotPrimary`] carrying the primary's
//!    advertised address for client redirect. Lag is observable per
//!    shard ([`ReplStats::lag`](crate::metrics::ReplStats), the
//!    `repl_lag_records` gauge, and the Prometheus rendering).
//! 3. **Promote** ([`repl::promote`]): when the primary dies,
//!    [`repl::most_caught_up`] elects the replica with the highest
//!    applied seq, and [`ReplicaEngine::promote`] replays its final
//!    tail and settles in-doubt 2PC marks all-or-nothing (presume abort
//!    before the commit point, finish after) — the same state machine
//!    as crash recovery, because promotion *is* recovery on another
//!    machine. Every commit acked under `group_commit = 1` survives.
//! 4. **Rebalance** ([`repl::policy`]): [`RebalancePolicy`] folds
//!    per-shard commit-rate EWMAs ([`ShardStats`]) each tick and
//!    splits a shard whose rate exceeds the coldest by a configured
//!    skew (at its median key, [`ShardedEngineServer::median_split_key`]),
//!    or merges adjacent cold shards — `tests/replication.rs` drives a
//!    skewed stream until per-shard commit rates level within 2x.
//!
//! ### Observability ([`esm_obs`])
//!
//! Every engine owns an [`esm_obs::Telemetry`] registry — one lock-free
//! log-bucketed histogram per instrumented [`Phase`] plus a trace
//! store. A timed region is one [`esm_obs::PhaseGuard`]
//! ([`esm_obs::Telemetry::start`]): commit snapshot acquire, FCW
//! validate and shard-lock hold, WAL append and fsync, the 2PC
//! prepare/resolve/fsync trio, view drain/fold/rebuild, subscription
//! drain, and replica ship/apply. When the guard drops it records the
//! phase histogram (one relaxed atomic add) and, inside a trace, files
//! a span under the phase's name, so every phase reaches both export
//! surfaces from one line of code. [`Engine::telemetry`] returns a
//! mergeable [`esm_obs::TelemetrySnapshot`], renderable as
//! Prometheus-style text ([`esm_obs::render_prometheus`]) and fetchable
//! over the wire via the esm-net `STATS` verb. The WAL append and fsync
//! phases are timed inside [`segment::SegmentWriter`] — the one place
//! the two costs are separable — so a slow disk is distinguishable from
//! a fat record, and from lock contention, by histogram alone.
//!
//! Histograms aggregate; **causal traces** explain. [`Session`] offers
//! every operation to the engine's registry for head sampling
//! (1-in-N, [`esm_obs::Telemetry::set_trace_sample_every`]); an elected
//! request mints an [`esm_obs::TraceId`] and every phase below attaches
//! an [`esm_obs::SpanRecord`] to it via a thread-local context, with
//! the WAL append's frame bytes. Four trace-only spans have no
//! histogram: the group-commit wait (tagged `leader`/`follower`), the
//! `twopc` umbrella, one `twopc_participant` umbrella per shard over
//! its prepare/fsync/resolve children, and the client's
//! `net_round_trip`. Finished traces land in bounded rings (all recent,
//! plus a tail-capture ring for traces crossing
//! [`esm_obs::Telemetry::set_slow_threshold_ns`]) read via
//! [`Engine::traces`] and rendered as a causally indented tree
//! ([`esm_obs::render_trace`]). Untraced operations pay one
//! thread-local read and allocate nothing. Over the wire, the trace
//! context rides binary request frames, so one `TraceId` spans client,
//! server and fsync (the esm-net `TRACE` verb fetches the server's
//! rings).
//!
//! ### Index maintenance
//!
//! The engine builds no index: a base table carries the secondary
//! indexes its seed database gave it
//! ([`esm_store::Table::create_index`]), and every insert/upsert/delete
//! maintains them incrementally. A split carries a table's indexes over
//! to the moved piece, and a merge adds the donor's rows to the
//! survivor's indexes. A write that leaves an indexed column's value
//! alone touches no chunk of that index. Reads never need one: a view's
//! window is maintained from committed deltas, and registering or
//! rebuilding it is one pass of [`esm_store::Table::select`], which
//! seeks when the view bounds the leading key column, probes an index
//! only when the table carries one, and otherwise scans, deciding every
//! row with the predicate bound to the schema once. An index probe
//! costs about 20–40 times as much per candidate as a scan does per row
//! (16k–65k rows on a shared 2-vCPU VM), so indexing a base table pays
//! only for views that select less than about 1/90 of it.
//!
//! ### Concurrency
//!
//! The shard is the lock: reads take its read lock, commits its write
//! lock, and traffic on different shards never shares one. Every view
//! write is one edit loop on every host (`engine::edit_view_with`):
//! read the maintained window, run the edit on a chunk-sharing clone,
//! diff the two, and commit the window delta
//! ([`Engine::edit_view_delta`]), re-reading on a conflict. An
//! optimistic edit ([`ShardedEngineServer::edit_view_optimistic`]) runs
//! its closure and retries up to a budget (first-committer-wins); the
//! paper's `set` ([`ShardedEngineServer::write_view`]) is the edit
//! "replace the window" and retries until it lands (last-writer-wins).
//! Both report the base-table [`esm_store::Delta`] they committed.
//!
//! To commit a window delta, the engine takes the base rows at the keys
//! it touches, checks its pre-images against their view, runs the lens
//! `put` over just those rows — every view stage keeps the base key and
//! puts key by key, so that equals the whole-window `put` there — and
//! commits the base delta with the same pre-image check as
//! [`Engine::commit_checked`]. An edit or a put therefore costs its
//! delta, not its window, in process and over the wire.
//!
//! ## Quickstart
//!
//! ```
//! use esm_engine::EngineServer;
//! use esm_relational::ViewDef;
//! use esm_store::{row, Database, Operand, Predicate, Schema, Table, ValueType};
//!
//! let schema = Schema::build(
//!     &[("id", ValueType::Int), ("dept", ValueType::Str)], &["id"],
//! ).unwrap();
//! let mut db = Database::new();
//! db.create_table(
//!     "staff",
//!     Table::from_rows(schema, vec![row![1, "research"], row![2, "ops"]]).unwrap(),
//! ).unwrap();
//!
//! let engine = EngineServer::new(db.clone()); // a chunk-sharing clone
//! let research = engine.define_view(
//!     "research", "staff",
//!     &ViewDef::base().select(Predicate::eq(Operand::col("dept"), Operand::val("research"))),
//! ).unwrap();
//!
//! // Each client edit is a transaction; the returned delta says what the
//! // write did to the hidden base table.
//! let delta = research.edit(|v| Ok(v.upsert(row![3, "research"]).map(|_| ())?)).unwrap();
//! assert_eq!(delta.inserted, vec![row![3, "research"]]);
//! // The replay law: the WAL replayed over the seed is the live state.
//! assert_eq!(engine.shard_wals()[0].replay(&db).unwrap(), engine.snapshot());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod durable;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod repl;
pub mod segment;
pub mod session;
pub mod shard;
pub mod sub;
pub mod testkit;
pub mod view;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use durable::{
    plan_recovery, resolve_transactions, scan_segments, DurabilityConfig, DurableWal,
    InDoubtChains, RecoveryReport, ResolvedLog, ScannedSegment,
};
pub use engine::{
    apply_deltas_checked, apply_table_delta_checked, ArcEngine, CommitReceipt, Engine,
    SnapshotChanges, SnapshotSince, DEFAULT_OPTIMISTIC_ATTEMPTS,
};
pub use error::EngineError;
pub use esm_obs::{
    render_prometheus, Histogram, HistogramSnapshot, Phase, Telemetry, TelemetrySnapshot,
};
pub use metrics::{
    Metrics, MetricsSnapshot, ReplStats, ReplicaLag, ShardLoad, ShardStats, ViewStats, WalStats,
};
pub use repl::{
    DirWalSource, FileEntry, PolicyConfig, PolicyHandle, PrimaryWalSource, RebalancePolicy,
    ReplManifest, ReplicaConfig, ReplicaEngine, ShardManifest, WalSource,
};
pub use segment::{
    crc32, decode_segment_prefix, encode_framed_binary, SegmentFile, SegmentPrefix, SegmentWriter,
    SimFile, BINARY_FRAME_MAGIC,
};
pub use session::{RetryPolicy, Session};
pub use shard::{FailPoint, Shard, ShardRecoveryReport, ShardRouter, ShardedEngineServer};
pub use sub::{CommitNotifier, ViewDeltas};
pub use view::EntangledView;

/// The engine under its in-process name: [`ShardedEngineServer::new`]
/// builds its one-shard case.
pub type EngineServer = ShardedEngineServer;
pub use wal::{reserved_table_name, Wal, WalOp, WalRecord, WAL_RETAINED_RECORDS};
