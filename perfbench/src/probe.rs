//! The traced run's per-layer probes. At fixed points the clients pause
//! and the probe times one public call per layer on the live data, each
//! inside its own span. Layers the workload's clients never cross get
//! probed too — the net layer through a probe `NetServer` over the
//! durable engine, the durable layers through a durable shadow of the
//! wire engine's data — so every traced run reports every layer.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use esm_engine::{
    DirWalSource, DurabilityConfig, Engine, EngineError, ReplicaConfig, ReplicaEngine, Session,
    ShardRouter, ShardedEngineServer, TelemetrySnapshot, DEFAULT_OPTIMISTIC_ATTEMPTS,
};
use esm_net::{NetServer, NetServerConfig, RemoteEngine, Response};
use esm_store::{Database, Delta, Row, Table, Value};

use crate::model::{key, view_def, view_name, Layout, BANDS, TABLE};
use crate::stats::{telemetry_diff, Counters};
use crate::trace::Recorder;
use crate::workload::{scan_recovery_inputs, telemetry_config, Stack};

/// What the probes saw, beyond their spans.
#[derive(Debug, Default)]
pub struct ProbeAcc {
    /// Phase samples recorded while probing: the live engine and server,
    /// the durable probe server, and the durable shadow.
    pub tel: TelemetrySnapshot,
    /// The durable shadow's engine counters.
    pub shadow: Counters,
    /// Server bytes (read + written) of one isolated read, commit and
    /// edit through the probe's own connection.
    pub net_bytes: [Vec<f64>; 3],
    /// Server requests of those three ops, summed.
    pub net_requests: u64,
    pub net_ops: u64,
    pub records_replayed: Vec<f64>,
    /// `(check, passed)` for every probe-side output check.
    pub checks: Vec<(&'static str, bool)>,
}

fn set_field(row: &Row, col: usize, v: Value) -> Row {
    let mut r = row.clone();
    r[col] = v;
    r
}

fn upsert_into(row: &Row) -> impl Fn(&mut Table) -> Result<(), EngineError> + '_ {
    move |t: &mut Table| {
        t.upsert(row.clone())?;
        Ok(())
    }
}

fn commit_rows(rows: &[Row]) -> impl Fn(&mut Database) -> Result<(), EngineError> + '_ {
    move |db: &mut Database| {
        let t = db.table_mut(TABLE)?;
        for r in rows {
            t.upsert(r.clone())?;
        }
        Ok(())
    }
}

/// One probe pause: every layer's public call on the live data.
pub fn probe(
    stack: &Stack,
    layout: Layout,
    pause: u64,
    rec: &Recorder,
    work: &Path,
    acc: &mut ProbeAcc,
) -> Result<(), EngineError> {
    let root = rec.open();
    let root_start = Instant::now();
    let engine = stack.engine();
    let band = pause as i64 % BANDS;
    let view = view_name(band);
    let pid = layout.probe_rows(band)[0];
    let tel_before = engine.telemetry()?;

    // esm-engine server, then esm-store on the snapshot it hands out.
    let db = rec.time("engine.snapshot", root, pause, || engine.snapshot())?;
    let copy = rec.time("store.clone", root, pause, || db.clone());
    let old = copy.table(TABLE)?;
    let current = old
        .get_by_key(&key(pid))
        .cloned()
        .expect("probe row exists");
    let mut new = old.clone();
    let changed = set_field(&current, 2, Value::Int(1_000_000 + pause as i64));
    new.upsert(changed.clone())?;
    let delta = rec.time("store.diff", root, pause, || Delta::between(old, &new))?;
    let applied = rec.time("store.apply", root, pause, || delta.apply(old))?;
    acc.checks.push((
        "store: Delta::apply reproduces the diffed table",
        applied == new,
    ));

    // esm-relational / esm-lens: the band view's delta lens.
    let lens = view_def(band).compile_delta(old)?;
    let mut window = lens.get(old);
    window.upsert(set_field(&current, 3, Value::Str(format!("lens-{pause}"))))?;
    let base = old.clone();
    let put = rec.time("relational.put", root, pause, || lens.put(base, window));
    std::hint::black_box(put);
    let view_delta = rec.time("relational.get_delta", root, pause, || {
        lens.get_delta(&delta)
    });
    std::hint::black_box(view_delta);

    // esm-engine in process: a one-row checked commit, the read right
    // after it, and an optimistic view edit.
    rec.time("engine.commit_checked", root, pause, || {
        engine.commit_checked(&[(TABLE.to_string(), delta.clone())])
    })?;
    let read = rec.time("engine.read_view", root, pause, || engine.read_view(&view))?;
    acc.checks.push((
        "engine: read_view after commit_checked sees the commit",
        read.get_by_key(&key(pid)) == Some(&changed),
    ));
    let edited = set_field(&changed, 3, Value::Str(format!("edit-{pause}")));
    rec.time("engine.edit", root, pause, || {
        engine.edit_view_optimistic(&view, DEFAULT_OPTIMISTIC_ATTEMPTS, &upsert_into(&edited))
    })?;
    acc.tel
        .merge(&telemetry_diff(&engine.telemetry()?, &tel_before));

    probe_net(stack, &view, &edited, pause, rec, root, acc)?;

    // The durable layers: the live directory on the durable workload, a
    // durable shadow of the live data on the wire workloads.
    match stack {
        Stack::Durable(d) => {
            let primary = d.engine.snapshot();
            bootstrap(&d.config.dir, &primary, work, pause, rec, root, acc)?;
        }
        Stack::Wire(_) => shadow(engine.snapshot()?, layout, pause, rec, root, work, acc)?,
    }
    rec.close(root, 0, pause, "probe", root_start);
    Ok(())
}

/// esm-net: round trip, snapshot download, codec, and the bytes and
/// requests one isolated read, commit and edit cost the server.
fn probe_net(
    stack: &Stack,
    view: &str,
    row: &Row,
    pause: u64,
    rec: &Recorder,
    root: u64,
    acc: &mut ProbeAcc,
) -> Result<(), EngineError> {
    let probe_server;
    let server = match stack {
        Stack::Wire(w) => &w.server,
        Stack::Durable(d) => {
            let config = NetServerConfig::default().telemetry_config(telemetry_config(1));
            probe_server = NetServer::bind(d.engine.as_engine(), "127.0.0.1:0", config)?;
            &probe_server
        }
    };
    let tel_before = server.telemetry();
    let remote = RemoteEngine::connect(server.local_addr())?;
    remote.telemetry_registry().set_trace_sample_every(1);
    rec.time("net.rtt", root, pause, || remote.server_ping())?;
    let snapshot = rec.time("net.snapshot", root, pause, || remote.snapshot())?;
    let response = Response::Database(snapshot);
    let decoded = rec.time("net.codec", root, pause, || {
        Response::decode(&response.encode())
    });
    acc.checks.push((
        "net: a Database response decodes to itself",
        decoded.as_ref() == Ok(&response),
    ));

    let session = Session::new(remote.as_engine());
    session.view(view)?;
    let val = set_field(row, 2, Value::Int(2_000_000 + pause as i64));
    let tag = set_field(&val, 3, Value::Str(format!("net-{pause}")));
    let ops: [&dyn Fn() -> Result<(), EngineError>; 3] = [
        &|| session.read(view).map(drop),
        &|| {
            session
                .transact(commit_rows(std::slice::from_ref(&val)))
                .map(drop)
        },
        &|| session.edit(view, upsert_into(&tag)).map(drop),
    ];
    for (slot, op) in ops.iter().enumerate() {
        let before = server.stats();
        op()?;
        let after = server.stats();
        let bytes = (after.bytes_read + after.bytes_written)
            .saturating_sub(before.bytes_read + before.bytes_written);
        acc.net_bytes[slot].push(bytes as f64);
        acc.net_requests += after.requests.saturating_sub(before.requests);
        acc.net_ops += 1;
    }
    drop(session);
    drop(remote);
    acc.tel
        .merge(&telemetry_diff(&server.telemetry(), &tel_before));
    Ok(())
}

/// esm-engine repl: bootstrap a replica from a durable directory (apply
/// thread off) and check it equals the primary.
fn bootstrap(
    base: &Path,
    primary: &Database,
    work: &Path,
    pause: u64,
    rec: &Recorder,
    root: u64,
    acc: &mut ProbeAcc,
) -> Result<(), EngineError> {
    let mirror = work.join(format!("mirror-{pause}"));
    let source = Arc::new(DirWalSource::new(base, ""));
    let config = ReplicaConfig::new(&mirror).poll_interval_ms(0);
    let replica = rec.time("repl.bootstrap", root, pause, || {
        ReplicaEngine::bootstrap(source, config)
    })?;
    acc.checks.push((
        "repl: the bootstrapped replica equals the primary",
        replica.serving().snapshot() == *primary,
    ));
    replica.stop();
    drop(replica);
    std::fs::remove_dir_all(&mirror)?;
    Ok(())
}

/// The durable layers on the wire workloads' data: a durable 4-shard
/// shadow of the live snapshot takes single-shard commits and 2PC
/// transfers on probe rows, is dropped, read the way recovery reads it,
/// recovered, and replicated.
fn shadow(
    db: Database,
    layout: Layout,
    pause: u64,
    rec: &Recorder,
    root: u64,
    work: &Path,
    acc: &mut ProbeAcc,
) -> Result<(), EngineError> {
    let dir = work.join(format!("shadow-{pause}"));
    let config = DurabilityConfig::new(&dir).telemetry_config(telemetry_config(1));
    let router = ShardRouter::from_splits(layout.split_keys())?;
    let rows: Vec<Row> = layout
        .probe_rows(pause as i64 % BANDS)
        .iter()
        .map(|&id| {
            db.table(TABLE)
                .ok()
                .and_then(|t| t.get_by_key(&key(id)).cloned())
                .expect("probe row exists")
        })
        .collect();
    let engine = ShardedEngineServer::with_durability(db, router, config.clone())?;
    engine.telemetry_registry().set_trace_sample_every(1);
    for (i, r) in rows.iter().enumerate() {
        let row = set_field(r, 3, Value::Str(format!("shadow-{pause}-{i}")));
        rec.time("shard.commit", root, pause, || {
            engine.transact_keys(
                &[key(crate::workload::row_id(&row))],
                DEFAULT_OPTIMISTIC_ATTEMPTS,
                commit_rows(std::slice::from_ref(&row)),
            )
        })?;
    }
    for pair in rows.chunks(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let moved = [
            set_field(a, 2, Value::Int(a[2].as_int().expect("int val") - 7)),
            set_field(b, 2, Value::Int(b[2].as_int().expect("int val") + 7)),
        ];
        let keys = [
            key(crate::workload::row_id(a)),
            key(crate::workload::row_id(b)),
        ];
        rec.time("shard.twopc", root, pause, || {
            engine.transact_keys(&keys, DEFAULT_OPTIMISTIC_ATTEMPTS, commit_rows(&moved))
        })?;
    }
    acc.tel.merge(&engine.telemetry());
    acc.shadow
        .add_diff(&Counters::of(&engine.metrics()), &Counters::default());
    let before = engine.snapshot();
    drop(engine);

    scan_recovery_inputs(&dir, rec, root, pause)?;
    let (recovered, report) = rec.time("recovery.recover", root, pause, || {
        ShardedEngineServer::recover_with(config.clone())
    })?;
    acc.records_replayed.push(
        report
            .shards
            .iter()
            .map(|r| r.records_replayed)
            .sum::<u64>() as f64,
    );
    acc.checks.push((
        "recovery: the recovered shadow equals its pre-drop snapshot",
        recovered.snapshot() == before,
    ));
    bootstrap(&dir, &before, work, pause, rec, root, acc)?;
    drop(recovered);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
