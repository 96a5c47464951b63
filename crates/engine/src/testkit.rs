//! The engine conformance suite: one body of checks, any [`Engine`].
//!
//! Everything here is written against `&dyn Engine` — no downcasts, no
//! host-shape branches — so the *same code path* exercises the engine
//! ([`crate::shard::ShardedEngineServer`]) on one shard or many, a
//! promoted replica, and (from the `esm-net` crate's tests) a
//! `RemoteEngine` talking to it over a real socket. A handle that
//! behaves differently under any of these checks is not an [`Engine`].
//!
//! The central law is the **incremental/recompute equivalence** from
//! the materialized-view work: after any sequence of committed
//! transactions, `read_view` (served from maintained windows, possibly
//! across shards, possibly across a wire) must equal a fresh lens `get`
//! over the live base table. The concurrency check races optimistic
//! editors and compares the final state against a single-threaded
//! oracle re-executing the successful logical operations.
//!
//! The engine keeps one copy of its data, so the **replay law** is
//! witnessed by recovery: [`recovered_snapshot`] recovers a copy of a
//! durable engine's directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Row, Schema, Table, Value, ValueType};

use crate::durable::DurabilityConfig;
use crate::engine::{ArcEngine, Engine};
use crate::error::EngineError;
use crate::shard::{Shard, ShardedEngineServer};

/// Key-space size of the scripted workload.
pub const KEYS: i64 = 80;
/// Distinct group values of the scripted workload.
pub const GROUPS: i64 = 5;

/// The seed database every conformance run starts from: one table `t`
/// of `(id, grp, val)` rows on the even ids below [`KEYS`].
pub fn seed_db() -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("grp", ValueType::Str),
            ("val", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows: Vec<Row> = (0..KEYS / 2)
        .map(|i| {
            let id = i * 2;
            row![id, format!("g{}", id % GROUPS), id * 3]
        })
        .collect();
    let mut db = Database::new();
    db.create_table("t", Table::from_rows(schema, rows).expect("valid rows"))
        .expect("fresh");
    db
}

/// Every stage family over the seed table, including key-bounded
/// selects (pruned on a sharded host) and multi-stage pipelines.
pub fn view_defs() -> Vec<(&'static str, ViewDef)> {
    vec![
        ("all", ViewDef::base()),
        (
            "low",
            ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(30))),
        ),
        (
            "grp1",
            ViewDef::base().select(Predicate::eq(Operand::col("grp"), Operand::val("g1"))),
        ),
        (
            "teams",
            ViewDef::base()
                .project(&["id", "grp"], &[("val", Value::Int(0))])
                .rename(&[("grp", "team")]),
        ),
        (
            "band",
            ViewDef::base()
                .select(Predicate::ge(Operand::col("id"), Operand::val(20)))
                .select(Predicate::lt(Operand::col("id"), Operand::val(60)))
                .project(&["id", "val"], &[("grp", Value::str("gx"))]),
        ),
    ]
}

/// One scripted operation, decoded from an integer triple so any
/// property-testing harness needs only range + tuple strategies.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Upsert one row.
    Upsert {
        /// Row id (keyed).
        id: i64,
        /// Group index (rendered `g<n>`).
        grp: i64,
        /// Value column.
        val: i64,
    },
    /// Delete one row by key.
    Delete {
        /// Row id.
        id: i64,
    },
    /// Write two far-apart keys in one transaction (cross-shard on a
    /// sharded host: exercises 2PC chains in the window drains).
    Transfer {
        /// First id.
        a: i64,
        /// Second id (half the key space away).
        b: i64,
    },
}

/// Decode one integer triple into an [`Op`].
pub fn decode_op(kind: u8, a: i64, b: i64) -> Op {
    let id = a.rem_euclid(KEYS);
    match kind {
        0..=4 => Op::Upsert {
            id,
            grp: b.rem_euclid(GROUPS),
            val: b,
        },
        5..=7 => Op::Delete { id },
        _ => Op::Transfer {
            a: id,
            b: (id + KEYS / 2).rem_euclid(KEYS),
        },
    }
}

/// Apply one scripted op through the trait's `transact`.
pub fn apply_op(engine: &dyn Engine, op: Op) {
    match op {
        Op::Upsert { id, grp, val } => {
            engine
                .transact(4, &move |db: &mut Database| {
                    db.table_mut("t")?
                        .upsert(row![id, format!("g{grp}"), val])?;
                    Ok(())
                })
                .expect("scripted upsert commits");
        }
        Op::Delete { id } => {
            engine
                .transact(4, &move |db: &mut Database| {
                    db.table_mut("t")?.delete_by_key(&row![id]);
                    Ok(())
                })
                .expect("scripted delete commits");
        }
        Op::Transfer { a, b } => {
            engine
                .transact(4, &move |db: &mut Database| {
                    let t = db.table_mut("t")?;
                    t.upsert(row![a, "g0", -1])?;
                    t.upsert(row![b, "g1", 1])?;
                    Ok(())
                })
                .expect("scripted transfer commits");
        }
    }
}

/// The law's right-hand side: a fresh compile + whole-base lens `get`.
pub fn recompute(def: &ViewDef, base: &Table) -> Table {
    def.compile(base).expect("recompiles").get(base)
}

/// The incremental/recompute equivalence law, host-obliviously: define
/// every view shape, drive the scripted ops through `transact`, and
/// after each op compare every `read_view` against a fresh
/// recomputation over the live base. Finishes with a steady-state
/// phase: under no writes, repeated reads trigger no rebuilds and apply
/// no deltas (read through the same engine's metrics, so it holds over
/// a wire too). The engine must be freshly seeded with [`seed_db`] and
/// otherwise idle.
///
/// Panics with a descriptive message on the first violation (property
/// harnesses report panics as counterexamples).
pub fn check_view_maintenance(engine: &dyn Engine, ops: &[(u8, i64, i64)]) {
    let defs = view_defs();
    for (name, def) in &defs {
        engine.define_view(name, "t", def).expect("view compiles");
    }
    // Warm-up read: after one read of each view, every host's windows
    // exist and the rebuild counter is at its registration plateau.
    for (name, _) in &defs {
        engine.read_view(name).expect("view readable");
    }
    let registration_rebuilds = engine.metrics().expect("metrics readable").view.rebuilds;

    for &(kind, a, b) in ops {
        apply_op(engine, decode_op(kind, a, b));
        let base = engine.table("t").expect("base table exists");
        for (name, def) in &defs {
            let read = engine.read_view(name).expect("view readable");
            let fresh = recompute(def, &base);
            assert_eq!(
                read,
                fresh,
                "view {name} diverged from recomputation after {:?}",
                decode_op(kind, a, b)
            );
        }
    }

    // Steady state: no topology changes happened, so maintenance never
    // re-ran a whole-base lens get after registration…
    assert_eq!(
        engine.metrics().expect("metrics readable").view.rebuilds,
        registration_rebuilds,
        "steady-state reads must not rebuild"
    );
    // …and quiescent re-reads apply nothing.
    let before = engine
        .metrics()
        .expect("metrics readable")
        .view
        .deltas_applied;
    for (name, _) in &defs {
        engine.read_view(name).expect("view readable");
    }
    assert_eq!(
        engine
            .metrics()
            .expect("metrics readable")
            .view
            .deltas_applied,
        before,
        "quiescent re-reads must drain nothing"
    );
}

/// Race `clients.len()` concurrent optimistic editors — one thread per
/// handle, so over a wire each handle is its own connection — against a
/// single-threaded oracle.
///
/// Every client repeatedly increments a shared counter row and upserts
/// a private row through `edit_view_optimistic` on the `all` view
/// (which [`check_concurrent_edits`] defines). The logical operations
/// commute, so the oracle is exact: the counter must equal the number
/// of successful increments across all clients, and every private row
/// must be present — any lost update, torn write or double-apply shows
/// up as a mismatch. Returns the total number of successful edits.
pub fn check_concurrent_edits(clients: Vec<ArcEngine>, edits_per_client: usize) -> u64 {
    let n = clients.len();
    assert!(n > 0, "need at least one client");
    clients[0]
        .define_view("all", "t", &ViewDef::base())
        .expect("view compiles");
    // The counter row lives at an id outside the scripted key space.
    clients[0]
        .transact(4, &|db: &mut Database| {
            db.table_mut("t")?.upsert(row![COUNTER_ID, "ctr", 0])?;
            Ok(())
        })
        .expect("counter seeds");

    let successes: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(client, engine)| {
                scope.spawn(move || {
                    let mut ok = 0u64;
                    for i in 0..edits_per_client {
                        let private_id = PRIVATE_BASE + (client * edits_per_client + i) as i64;
                        // The attempt budget covers the worst case: every
                        // other client's commit can fail one pre-image
                        // check, so total-commits + 1 attempts always
                        // suffice; 4096 dominates every suite size used.
                        let result =
                            engine.edit_view_optimistic("all", 4096, &move |v: &mut Table| {
                                let current = v
                                    .get_by_key(&row![COUNTER_ID])
                                    .map(|r| match &r[2] {
                                        Value::Int(n) => *n,
                                        _ => 0,
                                    })
                                    .unwrap_or(0);
                                v.upsert(row![COUNTER_ID, "ctr", current + 1])?;
                                v.upsert(row![private_id, "mine", client as i64])?;
                                Ok(())
                            });
                        if result.is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });

    let total: u64 = successes.iter().sum();
    // The oracle: increments commute, so the serial re-execution of the
    // successful ops lands the counter exactly at `total`.
    let final_table = clients[0].table("t").expect("base table exists");
    let counter = final_table
        .get_by_key(&row![COUNTER_ID])
        .map(|r| match &r[2] {
            Value::Int(n) => *n,
            _ => -1,
        })
        .expect("counter row survives");
    assert_eq!(
        counter as u64, total,
        "lost or double-applied counter increments: {counter} != {total} successful edits"
    );
    for (client, &ok) in successes.iter().enumerate() {
        assert_eq!(
            ok as usize, edits_per_client,
            "client {client} exhausted retries"
        );
    }
    // Every private row from every successful edit is present.
    for client in 0..n {
        for i in 0..edits_per_client {
            let private_id = PRIVATE_BASE + (client * edits_per_client + i) as i64;
            assert!(
                final_table.get_by_key(&row![private_id]).is_some(),
                "client {client}'s private row {private_id} was lost"
            );
        }
    }
    // And the view read agrees with the base (the entanglement law).
    let read = clients[0].read_view("all").expect("view readable");
    assert_eq!(read, final_table, "view window diverged from the base");
    total
}

const COUNTER_ID: i64 = 1_000_000;
const PRIVATE_BASE: i64 = 2_000_000;

/// The paper's set-bx laws, observed through [`crate::EntangledView`] get/put
/// on a live engine seeded with [`seed_db`] and otherwise idle. For
/// every view of [`view_defs`]:
///
/// * **(GS)** putting back what was read commits nothing: the returned
///   delta is empty and neither `metrics().commits`, the WAL counters
///   nor the view's subscription cursor move;
/// * **(SG)** a read after a put returns what was put;
/// * **(SS)** two puts equal the second put: `put(v1); put(v2)` leaves
///   the same base as `put(v2)` from the state before `v1`;
/// * **entanglement**: after every put, every view's read equals
///   [`recompute`] over the live base — a put through one view is
///   exactly what every other view's get then sees.
///
/// Panics with a descriptive message on the first violation.
pub fn check_bx_laws(engine: &dyn Engine) {
    check_bx_laws_with(engine, &mut || {});
}

/// [`check_bx_laws`] with `between` run after every law step, where a
/// sharded host can split and merge shards so the laws are checked
/// across topology changes.
pub fn check_bx_laws_with(engine: &dyn Engine, between: &mut dyn FnMut()) {
    let defs = view_defs();
    for (name, def) in &defs {
        engine.define_view(name, "t", def).expect("view compiles");
    }
    for (name, _) in &defs {
        let view = engine.view(name).expect("view registered");
        let window = view.get().expect("view readable");

        // (GS): get then put back is a no-op, through put and edit alike.
        let before = engine.metrics().expect("metrics readable");
        let cursor = engine.view_cursor(name).expect("cursor readable");
        let put_back = view.put(window.clone()).expect("put back commits");
        let edit_back = view.edit(|_| Ok(())).expect("identity edit commits");
        assert!(
            put_back.is_empty(),
            "(GS) put of the read window changed {name}"
        );
        assert!(edit_back.is_empty(), "(GS) identity edit changed {name}");
        let after = engine.metrics().expect("metrics readable");
        assert_eq!(
            (after.commits, after.rows_written, after.wal.appends),
            (before.commits, before.rows_written, before.wal.appends),
            "(GS) putting back view {name} committed"
        );
        assert_eq!(
            engine.view_cursor(name).expect("cursor readable"),
            cursor,
            "(GS) putting back view {name} moved the log"
        );
        assert_entangled(engine, &defs, name);
        between();

        // (SG): a read after a put returns what was put.
        let base0 = engine.table("t").expect("base table exists");
        let (first, second) = law_edits(name);
        let mut v1 = window.clone();
        first(&mut v1);
        view.put(v1.clone()).expect("put commits");
        assert_eq!(view.get().expect("view readable"), v1, "(SG) on {name}");
        assert_entangled(engine, &defs, name);
        between();

        // (SS): put(v1); put(v2) == put(v2) from the state before v1.
        let mut v2 = window;
        second(&mut v2);
        view.put(v2.clone()).expect("put commits");
        let after_both = engine.table("t").expect("base table exists");
        assert_entangled(engine, &defs, name);
        engine
            .transact(4, &|db: &mut Database| {
                let t = db.table_mut("t")?;
                t.clear();
                for r in base0.rows() {
                    t.upsert(r.clone())?;
                }
                Ok(())
            })
            .expect("restore commits");
        between();
        view.put(v2.clone()).expect("put commits");
        assert_eq!(
            engine.table("t").expect("base table exists"),
            after_both,
            "(SS) on {name}: put(v1); put(v2) != put(v2)"
        );
        assert_eq!(view.get().expect("view readable"), v2, "(SG) on {name}");
        assert_entangled(engine, &defs, name);
        between();
    }
}

/// Entanglement: every view's read equals a fresh recomputation over
/// the live base.
fn assert_entangled(engine: &dyn Engine, defs: &[(&str, ViewDef)], after: &str) {
    let base = engine.table("t").expect("base table exists");
    for (name, def) in defs {
        assert_eq!(
            engine.read_view(name).expect("view readable"),
            recompute(def, &base),
            "view {name} diverged from recomputation after a put on {after}"
        );
    }
}

type WindowEdit = fn(&mut Table);

/// Two in-range edits of a [`view_defs`] window for the put laws. The
/// first inserts a row and changes another; the second changes a third
/// and deletes a fourth, so `v2` never revives a key `v1` deleted —
/// the condition under which projections satisfy (SS).
fn law_edits(view: &str) -> (WindowEdit, WindowEdit) {
    fn up(t: &mut Table, r: Row) {
        t.upsert(r).expect("row fits the window");
    }
    match view {
        "all" => (
            |t| {
                up(t, row![1, "g1", 11]);
                up(t, row![2, "g2", 99]);
            },
            |t| {
                up(t, row![4, "g4", 44]);
                t.delete_by_key(&row![6]);
            },
        ),
        "low" => (
            |t| {
                up(t, row![3, "g3", 9]);
                up(t, row![2, "g2", 100]);
            },
            |t| {
                up(t, row![8, "g3", 1]);
                t.delete_by_key(&row![10]);
            },
        ),
        "grp1" => (
            |t| {
                up(t, row![7, "g1", 70]);
                up(t, row![6, "g1", 600]);
            },
            |t| {
                up(t, row![16, "g1", 160]);
                t.delete_by_key(&row![26]);
            },
        ),
        "teams" => (
            |t| {
                up(t, row![9, "g4"]);
                up(t, row![2, "g0"]);
            },
            |t| {
                up(t, row![12, "g1"]);
                t.delete_by_key(&row![14]);
            },
        ),
        "band" => (
            |t| {
                up(t, row![41, 7]);
                up(t, row![20, 1]);
            },
            |t| {
                up(t, row![22, 2]);
                t.delete_by_key(&row![24]);
            },
        ),
        other => panic!("no law edits for view {other}"),
    }
}

/// A quick smoke pass over the whole trait surface — used by example
/// code and the remote suite to prove a connection end to end.
pub fn check_surface_smoke(engine: &dyn Engine) {
    assert_eq!(engine.table_names().expect("table names"), vec!["t"]);
    let view = engine
        .define_view(
            "smoke",
            "t",
            &ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(10))),
        )
        .expect("view compiles");
    assert_eq!(engine.view_names().expect("view names"), vec!["smoke"]);
    let before = view.get().expect("readable").len();
    let delta = view
        .edit(|v| Ok(v.upsert(row![5, "g0", 55]).map(|_| ())?))
        .expect("edit commits");
    assert_eq!(delta.inserted, vec![row![5, "g0", 55]]);
    assert_eq!(view.get().expect("readable").len(), before + 1);
    let receipt = engine
        .transact(4, &|db: &mut Database| {
            db.table_mut("t")?.upsert(row![7, "g2", 77])?;
            Ok(())
        })
        .expect("transaction commits");
    assert!(receipt.stamp > 0);
    let metrics = engine.metrics().expect("metrics readable");
    assert!(metrics.commits >= 2);
    // The sub-structs must be merged in, not defaulted: every commit
    // above wrote rows, and a durable host must surface its WAL appends
    // (a host that forgets `with_wal`/`with_shard` reports zeros here).
    assert!(metrics.rows_written >= 2, "rows_written lost in merge");
    engine.sync_wal().expect("sync is infallible in memory");
    if metrics.wal.syncs > 0 || metrics.wal.bytes_written > 0 {
        assert!(metrics.wal.appends >= 2, "durable host dropped wal stats");
    }
    // Telemetry reaches every implementor: the commits above must have
    // timed their shard-lock hold (in-memory and durable, local and
    // remote alike), and the snapshot carries a live capture policy.
    let tel = engine.telemetry().expect("telemetry readable");
    assert!(
        tel.count(esm_obs::Phase::CommitLockHold) >= 1,
        "commit lock-hold phase never recorded"
    );
    assert!(tel.slow_threshold_ns > 0, "slow-trace capture disabled");
}

/// The replay law's witness on a durable engine: what recovering its
/// directory gives. Every shard is synced under its write lock (taken in
/// index order and held together, so no commit, checkpoint or compaction
/// runs) while the directory is copied; then the copy is recovered with
/// [`ShardedEngineServer::recover_with`], snapshotted and deleted. The
/// law holds shard by shard, so a recovery that settled in-doubt chains,
/// pruned stray rows or changed the key ranges is refused.
pub fn recovered_snapshot(engine: &ShardedEngineServer) -> Result<Database, EngineError> {
    static COPIES: AtomicU64 = AtomicU64::new(0);
    let base = engine
        .durable_base_dir()
        .ok_or_else(|| EngineError::Io("an in-memory engine has no directory".into()))?;
    let mut copy = base.clone().into_os_string();
    copy.push(format!(
        ".recovered-{}",
        COPIES.fetch_add(1, Ordering::Relaxed)
    ));
    let copy = PathBuf::from(copy);
    let _ = std::fs::remove_dir_all(&copy);
    let (router, copied) = {
        let topo = engine.topology();
        let mut guards: Vec<_> = topo.shards.iter().map(Shard::write).collect();
        let copied = guards
            .iter_mut()
            .try_for_each(|state| state.sync())
            .and_then(|()| copy_dir(&base, &copy));
        (topo.router.clone(), copied)
    };
    let recovered = copied.and_then(|()| {
        ShardedEngineServer::recover_with(DurabilityConfig::new(&copy).maintenance_interval_ms(0))
    });
    let _ = std::fs::remove_dir_all(&copy);
    let (recovered, report) = recovered?;
    let settled = report.committed_in_doubt + report.aborted_in_doubt;
    if settled > 0 || report.repaired_rows > 0 || recovered.router() != router {
        return Err(EngineError::WalCorrupt(format!(
            "recovering the directory repaired it or moved key ranges: {report:?}"
        )));
    }
    Ok(recovered.snapshot())
}

/// Copy a directory tree, skipping checkpoint temp files (one may be
/// written, and renamed away, outside the shard locks during the copy).
fn copy_dir(from: &Path, to: &Path) -> Result<(), EngineError> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else if !entry.file_name().to_string_lossy().ends_with(".tmp") {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
