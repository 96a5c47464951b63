//! Model-based concurrency testing: random interleavings of
//! `edit_view_optimistic` / `write_view` across 4 threads, checked
//! against a single-threaded oracle `Database`.
//!
//! Each thread executes a seeded random script of logical operations —
//! contended counter bumps through the whole-table view (optimistic
//! path) and disjoint inserts through its own shard view (pessimistic
//! path). Every committed write tags its row with `(thread, op index)`,
//! so the WAL is a total serialization order over the logical ops. The
//! oracle then re-executes the *logical* operations (not the recorded
//! deltas) single-threadedly in WAL order and must land on exactly the
//! live state, record by record: any lost update, double-apply or torn
//! interleaving diverges.

//! A second run drives a **sharded** engine with cross-shard transfers:
//! every committed transaction carries a commit stamp taken while all
//! its participant shard locks were held, so sorting the workload by
//! stamp is a serialization order — the oracle re-executes it
//! single-threadedly and must land on the live state exactly.
//!
//! Both runs additionally race **reader** threads against the writers:
//! every read is served from a maintained materialized view window, and
//! each must be a consistent committed state — counters never run
//! backwards between successive reads (unsharded), and the money
//! invariant holds in every snapshot (sharded: bumps add 1000, transfer
//! amounts are < 1000, so a half-applied cross-shard transfer would be
//! visible as `sum % 1000 != initial`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use esm_engine::{EngineServer, ShardRouter, ShardedEngineServer};
use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Row, Schema, Table, Value, ValueType};
use rand::{rngs::StdRng, Rng, SeedableRng};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 40;
const COUNTERS: i64 = 3;

/// One logical operation a thread performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Increment shared counter `cid` by 1 (read-modify-write through
    /// the whole-table view, optimistic).
    Bump { cid: i64 },
    /// Insert a fresh row with this id/value into the thread's own shard
    /// (read + whole-window write through the shard view, pessimistic).
    Own { id: i64, val: i64 },
}

fn scripts(seed: u64) -> Vec<Vec<Op>> {
    (0..THREADS)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
            (0..OPS_PER_THREAD)
                .map(|j| {
                    if rng.gen_range(0..100u32) < 55 {
                        Op::Bump {
                            cid: rng.gen_range(0..COUNTERS),
                        }
                    } else {
                        Op::Own {
                            id: 1_000 * (t as i64 + 1) + j as i64,
                            val: rng.gen_range(0..1_000i64),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

fn baseline() -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("shard", ValueType::Str),
            ("owner", ValueType::Str),
            ("balance", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let mut rows: Vec<Row> = (0..COUNTERS)
        .map(|c| row![c, "shared", "init", 0])
        .collect();
    rows.push(row![500, "t0", "seed", 1]);
    let mut db = Database::new();
    db.create_table(
        "accounts",
        Table::from_rows(schema, rows).expect("valid rows"),
    )
    .expect("fresh");
    db
}

fn tag(t: usize, j: usize) -> String {
    format!("t{t}:op{j}")
}

fn parse_tag(owner: &str) -> Option<(usize, usize)> {
    let rest = owner.strip_prefix('t')?;
    let (t, j) = rest.split_once(":op")?;
    Some((t.parse().ok()?, j.parse().ok()?))
}

/// Apply the logical op to the oracle, returning the row it must have
/// written.
fn oracle_apply(oracle: &mut Database, t: usize, j: usize, op: Op) -> Row {
    let table = oracle.table_mut("accounts").expect("exists");
    let written = match op {
        Op::Bump { cid } => {
            let cur = table.get_by_key(&row![cid]).expect("counter exists")[3]
                .as_int()
                .expect("int balance");
            row![cid, "shared", tag(t, j), cur + 1]
        }
        Op::Own { id, val } => row![id, format!("t{t}"), tag(t, j), val],
    };
    table.upsert(written.clone()).expect("fits");
    written
}

#[test]
fn random_interleavings_match_the_single_threaded_oracle() {
    // Several seeds = several distinct schedules and scripts; the OS
    // scheduler supplies fresh interleavings on every run besides.
    for seed in [11, 42, 2026] {
        let scripts = scripts(seed);
        let engine = EngineServer::new(baseline());
        engine
            .define_view("all", "accounts", &ViewDef::base())
            .expect("compiles");
        for t in 0..THREADS {
            engine
                .define_view(
                    format!("shard_{t}"),
                    "accounts",
                    &ViewDef::base().select(Predicate::eq(
                        Operand::col("shard"),
                        Operand::val(format!("t{t}")),
                    )),
                )
                .expect("compiles");
        }

        // Readers race the writers: every view read is served from the
        // maintained window and must be a consistent committed state —
        // counters never run backwards between successive reads.
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = engine.clone();
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    let mut floors = vec![0i64; COUNTERS as usize];
                    let mut reads = 0u64;
                    loop {
                        let view = engine.read_view("all").expect("readable");
                        for cid in 0..COUNTERS {
                            let seen = view.get_by_key(&row![cid]).expect("counter")[3]
                                .as_int()
                                .expect("int");
                            assert!(
                                seen >= floors[cid as usize],
                                "counter {cid} ran backwards: {seen} < {}",
                                floors[cid as usize]
                            );
                            floors[cid as usize] = seen;
                        }
                        reads += 1;
                        if done.load(Ordering::Relaxed) {
                            break reads;
                        }
                    }
                })
            })
            .collect();

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = engine.clone();
                let script = scripts[t].clone();
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xF00D ^ t as u64);
                    for (j, op) in script.into_iter().enumerate() {
                        match op {
                            Op::Bump { cid } => {
                                let owner = tag(t, j);
                                engine
                                    .edit_view_optimistic("all", u32::MAX, |v| {
                                        let cur = v.get_by_key(&row![cid]).expect("counter exists")
                                            [3]
                                        .as_int()
                                        .expect("int");
                                        v.upsert(row![cid, "shared", owner.as_str(), cur + 1])?;
                                        Ok(())
                                    })
                                    .expect("eventually commits");
                            }
                            Op::Own { id, val } => {
                                let view_name = format!("shard_{t}");
                                let mut v = engine.read_view(&view_name).expect("readable");
                                v.upsert(row![id, format!("t{t}"), tag(t, j), val])
                                    .expect("fits");
                                engine.write_view(&view_name, v).expect("commits");
                            }
                        }
                        if rng.gen_range(0..4u32) == 0 {
                            thread::yield_now(); // shake the schedule
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no worker panicked");
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().expect("no reader panicked") > 0, "readers ran");
        }
        // A final read observes every committed bump (read-your-writes
        // through the maintained window).
        let final_view = engine.read_view("all").expect("readable");
        assert_eq!(final_view, engine.table("accounts").expect("exists"));

        let live = engine.snapshot();
        let wal = engine.shard_wals().swap_remove(0);

        // Law 0: the engine committed exactly one record per logical op.
        assert_eq!(wal.len(), THREADS * OPS_PER_THREAD, "seed {seed}");
        assert_eq!(engine.metrics().commits, (THREADS * OPS_PER_THREAD) as u64);

        // Law 1: replaying the recorded deltas over the seed reproduces
        // the live state.
        assert_eq!(
            wal.replay(&baseline()).expect("replays"),
            live,
            "seed {seed}"
        );

        // Law 2 (the model check): re-executing the *logical* ops
        // single-threadedly in WAL serialization order reproduces the
        // live state record by record.
        let mut oracle = baseline();
        for rec in wal.records() {
            let (rec_table, rec_delta) = rec.delta_op().expect("view commits are delta records");
            assert_eq!(rec_table, "accounts");
            assert_eq!(
                rec_delta.inserted.len(),
                1,
                "every op writes exactly one row: {rec:?}"
            );
            let written = &rec_delta.inserted[0];
            let owner = written[2].as_str().expect("owner is a string");
            let (t, j) =
                parse_tag(owner).unwrap_or_else(|| panic!("untagged row in WAL: {written:?}"));
            let expected = oracle_apply(&mut oracle, t, j, scripts[t][j]);
            assert_eq!(
                written, &expected,
                "seed {seed}, seq {}: the committed row must equal the \
                 oracle's at this serialization point",
                rec.seq
            );
        }
        assert_eq!(oracle, live, "seed {seed}: oracle and live state agree");

        // Law 3: the counters add up — no bump was lost or double-run.
        let mut bumps = vec![0i64; COUNTERS as usize];
        for script in &scripts {
            for op in script {
                if let Op::Bump { cid } = op {
                    bumps[*cid as usize] += 1;
                }
            }
        }
        let accounts = live.table("accounts").expect("exists");
        for cid in 0..COUNTERS {
            assert_eq!(
                accounts.get_by_key(&row![cid]).expect("counter")[3],
                Value::Int(bumps[cid as usize]),
                "seed {seed}, counter {cid}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Cross-shard model check.
// ---------------------------------------------------------------------

const SHARDS: i64 = 4;
const XOPS_PER_THREAD: usize = 30;

/// One logical operation against the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XOp {
    /// Increment the counter living on shard `c` (single-shard fast
    /// path).
    Bump { c: i64 },
    /// Move `amt` from shard `from`'s counter to shard `to`'s counter
    /// (cross-shard 2PC); `from != to`.
    Transfer { from: i64, to: i64, amt: i64 },
}

fn xscripts(seed: u64) -> Vec<Vec<XOp>> {
    (0..THREADS)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0xA5A5));
            (0..XOPS_PER_THREAD)
                .map(|_| {
                    if rng.gen_range(0..100u32) < 50 {
                        XOp::Bump {
                            c: rng.gen_range(0..SHARDS),
                        }
                    } else {
                        let from = rng.gen_range(0..SHARDS);
                        let to = (from + rng.gen_range(1..SHARDS)) % SHARDS;
                        XOp::Transfer {
                            from,
                            to,
                            amt: rng.gen_range(1..20),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// One counter row per shard: ids 0, 1000, 2000, 3000.
fn counter_key(c: i64) -> Row {
    row![1000 * c]
}

fn sharded_baseline() -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("owner", ValueType::Str),
            ("balance", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows: Vec<Row> = (0..SHARDS).map(|c| row![1000 * c, "init", 100]).collect();
    let mut db = Database::new();
    db.create_table(
        "accounts",
        Table::from_rows(schema, rows).expect("valid rows"),
    )
    .expect("fresh");
    db
}

/// Apply the logical op to the oracle, tagging like the live run.
fn xoracle_apply(oracle: &mut Database, t: usize, j: usize, op: XOp) {
    let table = oracle.table_mut("accounts").expect("exists");
    match op {
        XOp::Bump { c } => {
            let cur = table.get_by_key(&counter_key(c)).expect("counter")[2]
                .as_int()
                .expect("int");
            // Bumps add 1000 while transfer amounts stay below 1000, so
            // `sum % 1000` is invariant under committed states and
            // perturbed by any torn cross-shard read.
            table
                .upsert(row![1000 * c, tag(t, j), cur + 1000])
                .expect("fits");
        }
        XOp::Transfer { from, to, amt } => {
            let f = table.get_by_key(&counter_key(from)).expect("counter")[2]
                .as_int()
                .expect("int");
            let g = table.get_by_key(&counter_key(to)).expect("counter")[2]
                .as_int()
                .expect("int");
            table
                .upsert(row![1000 * from, tag(t, j), f - amt])
                .expect("fits");
            table
                .upsert(row![1000 * to, tag(t, j), g + amt])
                .expect("fits");
        }
    }
}

#[test]
fn cross_shard_interleavings_match_the_single_threaded_oracle() {
    for seed in [7, 99, 4242] {
        let scripts = xscripts(seed);
        let engine = ShardedEngineServer::with_router(
            sharded_baseline(),
            ShardRouter::uniform_int(SHARDS as usize, 0, 1000 * SHARDS).expect("router"),
        )
        .expect("sharded engine");
        engine
            .define_view("all", "accounts", &ViewDef::base())
            .expect("compiles");
        engine
            .define_view(
                "low",
                "accounts",
                &ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(1000))),
            )
            .expect("compiles");

        // Readers race the writers through the maintained windows. The
        // whole-table view checks the money invariant (a torn 2PC read
        // would break `sum % 1000`); the key-bounded view is served
        // shard-pruned and must only ever show shard 0's counter.
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let engine = engine.clone();
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    let mut reads = 0u64;
                    loop {
                        if r == 0 {
                            let view = engine.read_view("all").expect("readable");
                            assert_eq!(view.len(), SHARDS as usize);
                            let sum: i64 = view.rows().map(|r| r[2].as_int().expect("int")).sum();
                            assert_eq!(
                                sum.rem_euclid(1000),
                                (100 * SHARDS).rem_euclid(1000),
                                "torn cross-shard read: sum {sum}"
                            );
                        } else {
                            let view = engine.read_view("low").expect("readable");
                            assert!(view.rows().all(|row| row[0].as_int().expect("int") < 1000));
                            assert_eq!(view.len(), 1);
                        }
                        reads += 1;
                        if done.load(Ordering::Relaxed) {
                            break reads;
                        }
                    }
                })
            })
            .collect();

        // Each thread runs its script, recording the commit stamp of
        // every transaction: the stamps define the serialization order
        // the oracle replays.
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = engine.clone();
                let script = scripts[t].clone();
                thread::spawn(move || {
                    let mut receipts: Vec<(u64, usize)> = Vec::new();
                    for (j, op) in script.into_iter().enumerate() {
                        let owner = tag(t, j);
                        let receipt = match op {
                            XOp::Bump { c } => engine
                                .transact_keys(&[counter_key(c)], u32::MAX, |db| {
                                    let table = db.table_mut("accounts")?;
                                    let cur = table.get_by_key(&counter_key(c)).expect("counter")
                                        [2]
                                    .as_int()
                                    .expect("int");
                                    table.upsert(row![1000 * c, owner.as_str(), cur + 1000])?;
                                    Ok(())
                                })
                                .expect("eventually commits"),
                            XOp::Transfer { from, to, amt } => engine
                                .transact_keys(
                                    &[counter_key(from), counter_key(to)],
                                    u32::MAX,
                                    |db| {
                                        let table = db.table_mut("accounts")?;
                                        let f = table
                                            .get_by_key(&counter_key(from))
                                            .expect("counter")[2]
                                            .as_int()
                                            .expect("int");
                                        let g =
                                            table.get_by_key(&counter_key(to)).expect("counter")[2]
                                                .as_int()
                                                .expect("int");
                                        table.upsert(row![1000 * from, owner.as_str(), f - amt])?;
                                        table.upsert(row![1000 * to, owner.as_str(), g + amt])?;
                                        Ok(())
                                    },
                                )
                                .expect("eventually commits"),
                        };
                        receipts.push((receipt.stamp, j));
                    }
                    receipts
                })
            })
            .collect();
        let mut serialized: Vec<(u64, usize, usize)> = Vec::new();
        for (t, h) in handles.into_iter().enumerate() {
            for (stamp, j) in h.join().expect("no worker panicked") {
                serialized.push((stamp, t, j));
            }
        }
        serialized.sort_unstable();
        done.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().expect("no reader panicked") > 0, "readers ran");
        }
        // Read-your-writes through the maintained window, and the
        // key-bounded view pruned shards while the writers raced it.
        assert_eq!(
            engine.read_view("all").expect("readable"),
            engine.table("accounts").expect("exists")
        );
        assert!(engine.metrics().view.shards_pruned > 0);

        let live = engine.snapshot();
        let total_ops = THREADS * XOPS_PER_THREAD;

        // Law 0: every logical op committed exactly once, and the fast
        // path / 2PC split matches the scripts.
        let transfers: usize = scripts
            .iter()
            .flatten()
            .filter(|op| matches!(op, XOp::Transfer { .. }))
            .count();
        let m = engine.metrics();
        assert_eq!(m.commits as usize, total_ops, "seed {seed}");
        assert_eq!(
            m.shard.cross_shard_commits as usize, transfers,
            "seed {seed}: every transfer crossed shards"
        );
        assert_eq!(
            m.shard.single_shard_commits as usize,
            total_ops - transfers,
            "seed {seed}: every bump stayed on one shard"
        );
        assert_eq!(m.shard.prepares as usize, 2 * transfers, "seed {seed}");

        // Law 1: the shards' WALs replayed over the seed (each in turn:
        // shards hold disjoint keys, so their logs commute) reproduce the
        // live state.
        let replayed = engine
            .shard_wals()
            .iter()
            .try_fold(sharded_baseline(), |db, wal| wal.replay(&db))
            .expect("replays");
        assert_eq!(replayed, live, "seed {seed}");

        // Law 2 (the model check): re-executing the logical ops
        // single-threadedly in commit-stamp order reproduces the live
        // state exactly — stamps are taken under all participant locks,
        // so they are a serialization order even across shards.
        let mut oracle = sharded_baseline();
        for &(_stamp, t, j) in &serialized {
            xoracle_apply(&mut oracle, t, j, scripts[t][j]);
        }
        assert_eq!(oracle, live, "seed {seed}: oracle and live state agree");

        // Law 3: money is conserved — transfers cancel, each bump adds
        // exactly 1000 to the global sum.
        let bumps: i64 = scripts
            .iter()
            .flatten()
            .filter(|op| matches!(op, XOp::Bump { .. }))
            .count() as i64;
        let sum: i64 = live
            .table("accounts")
            .expect("exists")
            .rows()
            .map(|r| r[2].as_int().expect("int"))
            .sum();
        assert_eq!(sum, 100 * SHARDS + 1000 * bumps, "seed {seed}");
    }
}
