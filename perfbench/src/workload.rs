//! The three closed-loop workloads: their specs, the stack each one
//! stands up, the clients that drive it, and the durable restart.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use esm_engine::{
    ArcEngine, DurabilityConfig, Engine, EngineError, EngineServer, Session, ShardRouter,
    ShardedEngineServer, DEFAULT_OPTIMISTIC_ATTEMPTS,
};
use esm_net::{NetServer, NetServerConfig, RemoteEngine};
use esm_obs::TelemetryConfig;
use esm_store::{Database, Row, Table};

use crate::model::{key, seed_db, view_def, view_name, Layout, Model, Rng, BANDS, CLIENTS, TABLE};
use crate::stats::{ns, Samples};
use crate::trace::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `Session` over `RemoteEngine` → default `NetServer` on loopback →
    /// in-memory `EngineServer`.
    Wire,
    /// In-process `Session`s and `transact_keys` on a durable 4-shard
    /// `ShardedEngineServer`.
    Durable,
}

/// Op kinds, in the order latencies are kept.
pub const READ: usize = 0;
pub const COMMIT: usize = 1;
pub const EDIT: usize = 2;
pub const TWOPC: usize = 3;
pub const KIND_NAMES: [&str; 4] = ["read", "commit", "edit", "twopc"];

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub transport: Transport,
    pub rows: i64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// The tail percentile the traced run reports per op kind (read,
    /// commit, edit, twopc): the highest of p80/p90/p95/p99 that keeps at
    /// least ten samples beyond it over the traced window even when the
    /// shared host runs slow (about a fifth of its fast speed on
    /// `wire-16k`, a third on the others).
    pub tail_q: [f64; 4],
    /// Durable only: clients pause and the engine restarts every this
    /// many client commits.
    pub restart_every: u64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "wire-16k",
        transport: Transport::Wire,
        rows: 16_384,
        setup_reps: 3,
        tail_q: [0.95, 0.90, 0.80, 0.99],
        restart_every: 0,
    },
    Spec {
        name: "wire-256",
        transport: Transport::Wire,
        rows: 256,
        setup_reps: 15,
        tail_q: [0.99, 0.99, 0.99, 0.99],
        restart_every: 0,
    },
    Spec {
        name: "durable-1k",
        transport: Transport::Durable,
        rows: 1024,
        setup_reps: 9,
        tail_q: [0.99, 0.99, 0.95, 0.99],
        restart_every: 1024,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

pub fn telemetry_config(sample_every: u32) -> TelemetryConfig {
    TelemetryConfig::default().trace_sample_every(sample_every)
}

pub struct WireStack {
    pub sessions: Vec<Session>,
    pub server: NetServer,
    pub engine: EngineServer,
}

pub struct DurableStack {
    pub sessions: Vec<Session>,
    pub engine: ShardedEngineServer,
    pub config: DurabilityConfig,
}

/// Everything one workload stands up. Fields drop in declaration order,
/// so client handles go before the server and the engine.
pub enum Stack {
    Wire(WireStack),
    Durable(DurableStack),
}

fn client_sessions(
    connect: impl Fn() -> Result<ArcEngine, EngineError>,
) -> Result<Vec<Session>, EngineError> {
    (0..CLIENTS).map(|_| connect().map(Session::new)).collect()
}

fn define_views(engine: &dyn Engine) -> Result<(), EngineError> {
    for b in 0..BANDS {
        engine.define_view(&view_name(b), TABLE, &view_def(b))?;
    }
    Ok(())
}

/// One warm read per view, spread over the clients.
fn warm(sessions: &[Session]) -> Result<(), EngineError> {
    for b in 0..BANDS {
        sessions[b as usize % sessions.len()].read(&view_name(b))?;
    }
    Ok(())
}

impl Stack {
    /// Seed, engine, views, server, connects, one warm read per view.
    /// Every telemetry registry gets `sample_every` explicitly.
    pub fn setup(
        spec: &Spec,
        layout: Layout,
        seed: u64,
        sample_every: u32,
        dir: &Path,
    ) -> Result<Stack, EngineError> {
        let db = seed_db(layout, seed);
        let stack = match spec.transport {
            Transport::Wire => {
                let engine = EngineServer::new(db);
                engine
                    .telemetry_registry()
                    .set_trace_sample_every(sample_every);
                define_views(&engine)?;
                let config =
                    NetServerConfig::default().telemetry_config(telemetry_config(sample_every));
                let server = NetServer::bind(engine.as_engine(), "127.0.0.1:0", config)?;
                let addr = server.local_addr();
                let sessions = client_sessions(|| {
                    let remote = RemoteEngine::connect(addr)?;
                    remote
                        .telemetry_registry()
                        .set_trace_sample_every(sample_every);
                    Ok(remote.as_engine())
                })?;
                Stack::Wire(WireStack {
                    sessions,
                    server,
                    engine,
                })
            }
            Transport::Durable => {
                let config =
                    DurabilityConfig::new(dir).telemetry_config(telemetry_config(sample_every));
                let router = ShardRouter::from_splits(layout.split_keys())?;
                let engine = ShardedEngineServer::with_durability(db, router, config.clone())?;
                engine
                    .telemetry_registry()
                    .set_trace_sample_every(sample_every);
                define_views(&engine)?;
                let sessions = client_sessions(|| Ok(engine.as_engine()))?;
                Stack::Durable(DurableStack {
                    sessions,
                    engine,
                    config,
                })
            }
        };
        warm(stack.sessions())?;
        Ok(stack)
    }

    pub fn sessions(&self) -> &[Session] {
        match self {
            Stack::Wire(w) => &w.sessions,
            Stack::Durable(d) => &d.sessions,
        }
    }

    /// An in-process handle on the engine behind the clients.
    pub fn engine(&self) -> ArcEngine {
        match self {
            Stack::Wire(w) => w.engine.as_engine(),
            Stack::Durable(d) => d.engine.as_engine(),
        }
    }

    /// Head-sampling rate on the engine's registry and on each client's
    /// (the remote clients keep their own registry; in-process sessions
    /// share the engine's).
    pub fn set_sampling(&self, every: u32) {
        if let Some(t) = self.engine().telemetry_handle() {
            t.set_trace_sample_every(every);
        }
        for s in self.sessions() {
            if let Some(t) = s.engine().telemetry_handle() {
                t.set_trace_sample_every(every);
            }
        }
    }
}

/// What one durable restart found.
#[derive(Debug, Clone, Copy)]
pub struct Restart {
    pub recover_ms: f64,
    pub records_replayed: u64,
    /// The recovered engine equals the snapshot taken before the drop.
    pub same_state: bool,
    /// `sum(val)` over the recovered table.
    pub val_sum: i64,
}

/// The shard directories under a durable engine's base directory.
pub fn shard_dirs(base: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(base)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.is_dir()
                        && p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("shard-"))
                })
                .collect()
        })
        .unwrap_or_default();
    dirs.sort();
    dirs
}

/// Read every shard directory the way recovery does — newest valid
/// checkpoint, then the segments — timing each as its own span.
pub fn scan_recovery_inputs(
    base: &Path,
    rec: &Recorder,
    parent: u64,
    op: u64,
) -> Result<(), EngineError> {
    for dir in shard_dirs(base) {
        rec.time("recovery.checkpoint_load", parent, op, || {
            esm_engine::checkpoint::latest_valid_checkpoint(&dir)
        })?;
        rec.time("recovery.segment_scan", parent, op, || {
            esm_engine::scan_segments(&dir)
        })?;
    }
    Ok(())
}

/// Drop a durable engine without a final checkpoint and recover it from
/// its directory; views and client sessions are set up again afterwards.
pub fn restart(
    d: DurableStack,
    layout: Layout,
    sample_every: u32,
    rec: Option<&Recorder>,
    op: u64,
) -> Result<(DurableStack, Restart), EngineError> {
    let before = d.engine.snapshot();
    let config = d.config.clone();
    drop(d);
    let parent = rec.map_or(0, Recorder::open);
    let start = Instant::now();
    if let Some(rec) = rec {
        scan_recovery_inputs(&config.dir, rec, parent, op)?;
    }
    let recover_span = rec.map(Recorder::open);
    let recover_start = Instant::now();
    let (engine, report) = ShardedEngineServer::recover_with(config.clone())?;
    let recover_ms = recover_start.elapsed().as_secs_f64() * 1e3;
    if let (Some(rec), Some(id)) = (rec, recover_span) {
        rec.close(id, parent, op, "recovery.recover", recover_start);
        rec.close(parent, 0, op, "recovery.restart", start);
    }
    engine
        .telemetry_registry()
        .set_trace_sample_every(sample_every);
    let after = engine.snapshot();
    let restart = Restart {
        recover_ms,
        records_replayed: report.shards.iter().map(|r| r.records_replayed).sum(),
        same_state: after == before,
        val_sum: after
            .table(TABLE)
            .map_or(0, |t| crate::model::val_sum(layout, t)),
    };
    define_views(&engine)?;
    let sessions = client_sessions(|| Ok(engine.as_engine()))?;
    Ok((
        DurableStack {
            sessions,
            engine,
            config,
        },
        restart,
    ))
}

/// When a closed-loop phase ends: at a deadline, or once the clients'
/// commit count reaches `commit_limit`.
pub struct Stop<'a> {
    pub deadline: Instant,
    pub commits: &'a AtomicU64,
    pub commit_limit: u64,
}

impl Stop<'_> {
    fn reached(&self) -> bool {
        Instant::now() >= self.deadline || self.commits.load(Ordering::Relaxed) >= self.commit_limit
    }
}

enum Op {
    Read(i64),
    Commit(Row),
    Edit(i64, Row),
    Transfer(Row, Row),
}

/// One closed-loop client: it sends its next op only when the previous
/// one has returned. Its op sequence derives from the seed and its
/// index alone.
pub struct Client {
    pub index: usize,
    transport: Transport,
    layout: Layout,
    rng: Rng,
    owned: Vec<i64>,
    pub model: Model,
    seq: u64,
    commits: u64,
    pub lat: [Samples; 4],
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Client {
    pub fn new(index: usize, transport: Transport, layout: Layout, seed: u64) -> Client {
        Client {
            index,
            transport,
            layout,
            rng: Rng::new(seed, index as u64 + 1),
            owned: layout.owned_by(index),
            model: Model::new(layout, seed, index),
            seq: 0,
            commits: 0,
            lat: Default::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Wire: 50% band-view read, 35% one-row `val` commit, 15% `tag` edit
    /// through a band view. Durable: 25% read, 10% edit, 65% commits,
    /// every fourth of them a cross-shard `val` transfer.
    fn next_op(&mut self) -> Op {
        self.seq += 1;
        let roll = self.rng.below(100);
        let id = self.owned[self.rng.below(self.owned.len() as u64) as usize];
        let band = self.rng.below(BANDS as u64) as i64;
        let tag = format!("c{}-{}", self.index, self.seq);
        match self.transport {
            Transport::Wire => match roll {
                0..=49 => Op::Read(band),
                50..=84 => Op::Commit(
                    self.model
                        .with_val(id, (self.seq as i64) * 2 + self.index as i64),
                ),
                _ => Op::Edit(id % BANDS, self.model.with_tag(id, tag)),
            },
            Transport::Durable => match roll {
                0..=24 => Op::Read(band),
                25..=34 => Op::Edit(id % BANDS, self.model.with_tag(id, tag)),
                _ => {
                    self.commits += 1;
                    if self.commits.is_multiple_of(4) {
                        let hop = 1 + self.rng.below(3) as i64;
                        let peer = self.layout.peer_in_other_shard(id, hop);
                        let amount = 1 + self.rng.below(50) as i64;
                        let from = self.model.rows[&id][2].as_int().expect("int val");
                        let to = self.model.rows[&peer][2].as_int().expect("int val");
                        Op::Transfer(
                            self.model.with_val(id, from - amount),
                            self.model.with_val(peer, to + amount),
                        )
                    } else {
                        Op::Commit(self.model.with_tag(id, tag))
                    }
                }
            },
        }
    }

    fn exec(&self, stack: &Stack, op: &Op) -> Result<(), EngineError> {
        let session = &stack.sessions()[self.index];
        let window_rows = (self.layout.rows / BANDS) as usize;
        match (op, stack) {
            (Op::Read(band), _) => {
                let window = session.read(&view_name(*band))?;
                if window.len() != window_rows {
                    return Err(EngineError::Io(format!(
                        "band {band} window holds {} rows, expected {window_rows}",
                        window.len()
                    )));
                }
            }
            (Op::Edit(band, row), _) => {
                session.edit(&view_name(*band), |w: &mut Table| {
                    w.upsert(row.clone())?;
                    Ok(())
                })?;
            }
            (Op::Commit(row), Stack::Wire(_)) => {
                session.transact(|db: &mut Database| {
                    db.table_mut(TABLE)?.upsert(row.clone())?;
                    Ok(())
                })?;
            }
            (Op::Commit(row), Stack::Durable(d)) => {
                d.engine.transact_keys(
                    &[key(row_id(row))],
                    DEFAULT_OPTIMISTIC_ATTEMPTS,
                    |db: &mut Database| {
                        db.table_mut(TABLE)?.upsert(row.clone())?;
                        Ok(())
                    },
                )?;
            }
            (Op::Transfer(from, to), Stack::Durable(d)) => {
                d.engine.transact_keys(
                    &[key(row_id(from)), key(row_id(to))],
                    DEFAULT_OPTIMISTIC_ATTEMPTS,
                    |db: &mut Database| {
                        let t = db.table_mut(TABLE)?;
                        t.upsert(from.clone())?;
                        t.upsert(to.clone())?;
                        Ok(())
                    },
                )?;
            }
            (Op::Transfer(..), Stack::Wire(_)) => unreachable!("wire mixes have no transfers"),
        }
        Ok(())
    }

    /// Run ops back to back until `stop`; each op's latency lands in its
    /// kind's samples, and in a span when a recorder is given.
    pub fn run(&mut self, stack: &Stack, stop: &Stop<'_>, rec: Option<&Recorder>) {
        while !stop.reached() {
            let op = self.next_op();
            let (kind, written): (usize, Vec<&Row>) = match &op {
                Op::Read(_) => (READ, vec![]),
                Op::Commit(r) => (COMMIT, vec![r]),
                Op::Edit(_, r) => (EDIT, vec![r]),
                Op::Transfer(a, b) => (TWOPC, vec![a, b]),
            };
            let op_id = ((self.index as u64 + 1) << 40) | self.seq;
            let span = rec.map(Recorder::open);
            let start = Instant::now();
            let result = self.exec(stack, &op);
            let elapsed = start.elapsed();
            if let (Some(rec), Some(id)) = (rec, span) {
                rec.close(id, 0, op_id, KIND_SPANS[kind], start);
            }
            self.attempted += 1;
            if kind != READ {
                stop.commits.fetch_add(1, Ordering::Relaxed);
            }
            match result {
                Ok(()) => {
                    self.lat[kind].push(ns(elapsed));
                    for row in written {
                        self.model.ack(row.clone());
                    }
                }
                Err(e) => {
                    self.failed += 1;
                    if self.errors.len() < 4 {
                        self.errors.push(format!("{}: {e}", KIND_NAMES[kind]));
                    }
                    self.model
                        .uncertain
                        .extend(written.iter().map(|r| row_id(r)));
                }
            }
        }
    }
}

const KIND_SPANS: [&str; 4] = ["op.read", "op.commit", "op.edit", "op.twopc"];

pub fn row_id(row: &Row) -> i64 {
    row[0].as_int().expect("int id")
}

/// Run every client until `stop`, each on its own thread; returns the
/// phase's wall time.
pub fn run_phase(
    clients: &mut [Client],
    stack: &Stack,
    stop: &Stop<'_>,
    rec: Option<&Recorder>,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || client.run(stack, stop, rec));
        }
    });
    start.elapsed()
}
