//! The crash-recovery harness: the paper's equivalence claim (state
//! rebuilt by replaying the log ≡ state observed live), checked
//! *exhaustively* against simulated crashes.
//!
//! A recorded run commits ≥100 times through entangled views over a
//! durable one-shard engine while snapshotting the live database after
//! every commit. The harness then works on the shard's log directory
//! (`shard-0/` under the engine's base directory):
//!
//! * truncates the durable segment stream at **every byte offset** and
//!   asserts the recovered state equals the live snapshot at the longest
//!   durable prefix of complete records (torn tails included — a crash
//!   can stop mid-header, mid-cell, even mid-code-point);
//! * re-runs a sample of those truncations through the full filesystem
//!   path (`ShardedEngineServer::recover_with` on a reconstructed
//!   directory);
//! * injects duplicate and stale segment files and asserts they are
//!   skipped, never re-applied;
//! * tears the newest checkpoint, and flips every single bit of it, and
//!   asserts recovery falls back to an older one, replaying more records
//!   to the same state;
//! * flips every single bit of the topology manifest and asserts
//!   recovery refuses the directory;
//! * asserts checkpointed recovery replays strictly fewer records than
//!   replay-from-genesis would.

use std::path::{Path, PathBuf};

use esm_engine::checkpoint::latest_valid_checkpoint;
use esm_engine::{
    decode_segment_prefix, plan_recovery, resolve_transactions, scan_segments, DurabilityConfig,
    EngineError, EngineServer, RecoveryReport, ScannedSegment, ShardRouter, ShardedEngineServer,
};
use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Schema, Table};

fn baseline() -> Database {
    let accounts = Schema::build(
        &[
            ("id", esm_store::ValueType::Int),
            ("shard", esm_store::ValueType::Str),
            ("owner", esm_store::ValueType::Str),
            ("balance", esm_store::ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let audit = Schema::build(
        &[
            ("entry", esm_store::ValueType::Int),
            ("note", esm_store::ValueType::Str),
        ],
        &["entry"],
    )
    .expect("valid schema");
    let mut db = Database::new();
    db.create_table(
        "accounts",
        Table::from_rows(
            accounts,
            vec![
                row![0, "a", "system", 0],
                row![1, "a", "ada", 100],
                row![2, "b", "alan", 200],
            ],
        )
        .expect("valid rows"),
    )
    .expect("fresh");
    db.create_table(
        "audit",
        Table::from_rows(audit, vec![]).expect("valid rows"),
    )
    .expect("fresh");
    db
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esm-crash-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The one shard's log directory under an engine's base directory.
fn shard0(dir: &Path) -> PathBuf {
    dir.join("shard-0")
}

/// A durable one-shard engine over [`baseline`].
fn durable(cfg: DurabilityConfig) -> EngineServer {
    ShardedEngineServer::with_durability(baseline(), ShardRouter::single(), cfg)
        .expect("durable engine")
}

/// Recover the engine under `cfg`, with the one shard's report.
fn recover(cfg: DurabilityConfig) -> Result<(EngineServer, RecoveryReport), EngineError> {
    ShardedEngineServer::recover_with(cfg).map(|(engine, mut report)| {
        assert_eq!(report.shards.len(), 1, "one-shard engine");
        (engine, report.shards.swap_remove(0))
    })
}

/// Run `commits` single-record commits through entangled views, durably,
/// snapshotting the live database after each. Returns the engine and the
/// per-seq snapshots (`states[k]` = live state after WAL seq `k`).
///
/// The harness needs byte-deterministic segment streams, so the configs
/// here disable the background maintenance thread
/// (`maintenance_interval_ms(0)`) and this function drives the identical
/// maintenance pass synchronously after every commit.
fn recorded_run(cfg: DurabilityConfig, commits: usize) -> (EngineServer, Vec<Database>) {
    let engine = durable(cfg);
    engine
        .define_view(
            "shard_a",
            "accounts",
            &ViewDef::base().select(Predicate::eq(Operand::col("shard"), Operand::val("a"))),
        )
        .expect("view compiles");
    engine
        .define_view("all_accounts", "accounts", &ViewDef::base())
        .expect("view compiles");
    engine
        .define_view("audit_log", "audit", &ViewDef::base())
        .expect("view compiles");

    let mut states = vec![engine.snapshot()];
    for i in 0..commits {
        let i = i as i64;
        match i % 4 {
            // Insert into the shard view, with codec-hostile strings.
            0 => {
                engine
                    .edit_view_optimistic("shard_a", 1, |v| {
                        v.upsert(row![100 + i, "a", format!("own\ter\n{i}"), i])?;
                        Ok(())
                    })
                    .expect("commits");
            }
            // Read-modify-write of the counter row via the whole view.
            1 => {
                engine
                    .edit_view_optimistic("all_accounts", 1, |v| {
                        let cur = v.get_by_key(&row![0]).expect("counter exists").clone();
                        let bumped = cur[3].as_int().expect("int") + 1;
                        v.upsert(row![0, "a", "system", bumped])?;
                        Ok(())
                    })
                    .expect("commits");
            }
            // Pessimistic write to the audit table.
            2 => {
                let mut v = engine.read_view("audit_log").expect("readable");
                v.upsert(row![i, format!("note \\ {i}")]).expect("fits");
                engine.write_view("audit_log", v).expect("commits");
            }
            // Delete + re-insert: exercises `-` rows and multi-row deltas.
            _ => {
                engine
                    .edit_view_optimistic("shard_a", 1, |v| {
                        v.delete_by_key(&row![100 + i - 3]);
                        v.upsert(row![200 + i, "a", "replacement", i])?;
                        Ok(())
                    })
                    .expect("commits");
            }
        }
        engine.run_maintenance().expect("maintenance pass");
        states.push(engine.snapshot());
    }
    engine.sync_wal().expect("final sync");
    (engine, states)
}

/// The segment files of the shard log under `dir`, as (first_seq,
/// bytes), in log order.
fn segment_bytes(dir: &Path) -> Vec<(u64, Vec<u8>)> {
    let dir = &shard0(dir);
    scan_segments(dir)
        .expect("scan")
        .iter()
        .map(|seg| {
            let name = dir.join(format!("wal-{:020}.seg", seg.first_seq));
            (seg.first_seq, std::fs::read(name).expect("read segment"))
        })
        .collect()
}

/// Truncate the concatenated segment stream at byte `cut`, returning the
/// per-segment scan a recovery pass would see.
fn truncate_stream(segments: &[(u64, Vec<u8>)], cut: usize) -> Vec<ScannedSegment> {
    let mut out = Vec::new();
    let mut consumed = 0usize;
    for (first_seq, bytes) in segments {
        let remaining = cut.saturating_sub(consumed);
        consumed += bytes.len();
        if remaining == 0 {
            break;
        }
        let keep = remaining.min(bytes.len());
        out.push(ScannedSegment {
            first_seq: *first_seq,
            prefix: decode_segment_prefix(&bytes[..keep]),
        });
        if keep < bytes.len() {
            break;
        }
    }
    out
}

/// Apply `records[applied..]` to `db` in place, mirroring recovery
/// (every record in these runs is a complete single-record transaction,
/// so the transaction resolver is the identity here).
fn apply_records(db: &mut Database, records: &[esm_engine::WalRecord]) {
    for rec in records {
        let (name, delta) = rec.delta_op().expect("single-record transactions");
        let table = db.table(name).expect("table exists");
        let next = delta.apply(table).expect("applies");
        db.replace_table(name.to_string(), next);
    }
}

/// Write a truncated copy of the engine directory: the topology, all
/// checkpoint files, plus the segment stream cut at `cut`.
fn write_truncated_dir(src: &Path, segments: &[(u64, Vec<u8>)], cut: usize, tag: &str) -> PathBuf {
    let base = fresh_dir(tag);
    let topology = esm_engine::shard::TOPOLOGY_FILE;
    std::fs::copy(src.join(topology), base.join(topology)).expect("copy topology");
    let dst = shard0(&base);
    std::fs::create_dir_all(&dst).expect("shard dir");
    for entry in std::fs::read_dir(shard0(src)).expect("read src") {
        let entry = entry.expect("entry");
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.ends_with(".ckpt")) {
            std::fs::copy(entry.path(), dst.join(&name)).expect("copy checkpoint");
        }
    }
    let mut consumed = 0usize;
    for (first_seq, bytes) in segments {
        let remaining = cut.saturating_sub(consumed);
        consumed += bytes.len();
        if remaining == 0 {
            break;
        }
        let keep = remaining.min(bytes.len());
        std::fs::write(dst.join(format!("wal-{first_seq:020}.seg")), &bytes[..keep])
            .expect("write truncated segment");
        if keep < bytes.len() {
            break;
        }
    }
    base
}

#[test]
fn truncation_at_every_byte_recovers_the_longest_durable_prefix() {
    const COMMITS: usize = 104;
    let dir = fresh_dir("every-byte");
    // No auto-checkpoints: every record replays from genesis, so every
    // byte of the stream is a reachable crash point. Small segments force
    // rotation mid-run; group commit leaves an unsynced tail shape.
    let cfg = DurabilityConfig::new(&dir)
        .segment_bytes(900)
        .group_commit(4)
        .checkpoint_every(0)
        .maintenance_interval_ms(0);
    let (engine, states) = recorded_run(cfg, COMMITS);
    assert_eq!(states.len(), COMMITS + 1);
    assert_eq!(
        *states.last().expect("nonempty"),
        engine.snapshot(),
        "recording is faithful"
    );

    let segments = segment_bytes(&dir);
    assert!(
        segments.len() >= 3,
        "rotation produced {} segments",
        segments.len()
    );
    let total: usize = segments.iter().map(|(_, b)| b.len()).sum();

    // Exhaustive: every byte offset is a crash point. Recovery is pure
    // here (plan + replay); the filesystem path is sampled below.
    let mut recovered = states[0].clone();
    let mut applied = 0usize;
    for cut in 0..=total {
        let scan = truncate_stream(&segments, cut);
        let (records, stale) = plan_recovery(0, &scan).expect("truncation never corrupts");
        assert_eq!(stale, 0, "no stale records in a pristine log");
        assert!(
            records.len() >= applied,
            "longer prefix cannot lose records (cut {cut})"
        );
        apply_records(&mut recovered, &records[applied..]);
        applied = records.len();
        assert_eq!(
            recovered, states[applied],
            "cut at byte {cut}: recovered state must equal the live state \
             after seq {applied}"
        );
    }
    assert_eq!(applied, COMMITS, "the full stream recovers every commit");

    // Sampled full-path recoveries, including both edges and a torn
    // mid-record cut for every stride.
    let mut cuts: Vec<usize> = (0..=total).step_by(97).collect();
    cuts.push(total);
    for cut in cuts {
        let scan = truncate_stream(&segments, cut);
        let (records, _) = plan_recovery(0, &scan).expect("plans");
        let k = records.len();
        let case_dir = write_truncated_dir(&dir, &segments, cut, "every-byte-case");
        let (recovered_engine, report) =
            recover(DurabilityConfig::new(&case_dir)).expect("recovers");
        assert_eq!(
            recovered_engine.snapshot(),
            states[k],
            "full path, cut {cut}"
        );
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.records_replayed as usize, k);
        assert_eq!(report.last_seq as usize, k);
        std::fs::remove_dir_all(&case_dir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_recovery_replays_strictly_fewer_records() {
    const COMMITS: usize = 120;
    let dir = fresh_dir("checkpointed");
    let cfg = DurabilityConfig::new(&dir)
        .segment_bytes(600)
        .group_commit(1)
        .checkpoint_every(25)
        .maintenance_interval_ms(0);
    let (engine, states) = recorded_run(cfg.clone(), COMMITS);
    let live = engine.snapshot();
    let m = engine.metrics();
    assert!(
        m.wal.checkpoints >= 4,
        "auto-checkpoints fired: {:?}",
        m.wal
    );
    assert!(
        m.wal.segments_compacted > 0,
        "compaction dropped covered segments"
    );

    // Recovery starts from the newest checkpoint and replays strictly
    // fewer records than a genesis replay (which would need all of them).
    let (recovered_engine, report) = recover(cfg).expect("recovers");
    assert_eq!(recovered_engine.snapshot(), live);
    assert_eq!(report.last_seq as usize, COMMITS);
    assert!(report.checkpoint_seq >= 100);
    assert_eq!(
        report.records_replayed,
        report.last_seq - report.checkpoint_seq
    );
    assert!(
        report.records_replayed < report.last_seq,
        "checkpointed recovery must beat genesis: replayed {} of {}",
        report.records_replayed,
        report.last_seq
    );

    // Every byte offset of the *surviving* (post-compaction) stream is
    // still a clean crash point: recovery lands on the checkpoint state
    // or a contiguous extension of it.
    let ckpt_seq = report.checkpoint_seq;
    let segments = segment_bytes(&dir);
    let total: usize = segments.iter().map(|(_, b)| b.len()).sum();
    for cut in 0..=total {
        let scan = truncate_stream(&segments, cut);
        let (records, _stale) = plan_recovery(ckpt_seq, &scan).expect("plans");
        let k = ckpt_seq as usize + records.len();
        let mut recovered = states[ckpt_seq as usize].clone();
        apply_records(&mut recovered, &records);
        assert_eq!(recovered, states[k], "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_and_stale_segments_are_skipped_not_reapplied() {
    const COMMITS: usize = 60;
    let dir = fresh_dir("stale-dup");
    let cfg = DurabilityConfig::new(&dir)
        .segment_bytes(500)
        .checkpoint_every(25)
        .maintenance_interval_ms(0);
    let (engine, states) = recorded_run(cfg.clone(), COMMITS);
    let live = engine.snapshot();

    // A fully-stale segment: records 1..=10 re-encoded from the recorded
    // states, under a name compaction freed. A leftover pre-compaction
    // file looks exactly like this.
    let stale: Vec<u8> = (1..=10u64)
        .flat_map(|seq| rebuild_records(&states, seq))
        .flat_map(|rec| esm_engine::encode_framed_binary(&rec))
        .collect();
    std::fs::write(shard0(&dir).join(format!("wal-{:020}.seg", 1)), stale).expect("inject stale");

    // A duplicate of a live segment's content under an overlapping name:
    // the same records delivered twice, behind one re-encoded record
    // that precedes them.
    let segments = segment_bytes(&dir);
    let (dup_first, dup_bytes) = segments
        .iter()
        .rev()
        .find(|(_, bytes)| !bytes.is_empty())
        .expect("a 60-commit run keeps non-empty segments")
        .clone();
    assert!(dup_first > 1, "compaction keeps only late segments");
    let mut dup_file: Vec<u8> = rebuild_records(&states, dup_first - 1)
        .iter()
        .flat_map(esm_engine::encode_framed_binary)
        .collect();
    dup_file.extend_from_slice(&dup_bytes);
    std::fs::write(
        shard0(&dir).join(format!("wal-{:020}.seg", dup_first - 1)),
        dup_file,
    )
    .expect("inject duplicate");

    let (recovered_engine, report) = recover(cfg).expect("recovers");
    assert_eq!(
        recovered_engine.snapshot(),
        live,
        "duplicates never re-apply"
    );
    assert!(
        report.stale_skipped >= 10,
        "stale records skipped: {report:?}"
    );
    assert_eq!(report.last_seq as usize, COMMITS);
    std::fs::remove_dir_all(&dir).ok();
}

/// Reconstruct the WAL record at `seq` by diffing consecutive recorded
/// snapshots (each commit touched exactly one table).
fn rebuild_records(states: &[Database], seq: u64) -> Vec<esm_engine::WalRecord> {
    let before = &states[seq as usize - 1];
    let after = &states[seq as usize];
    let mut recs = Vec::new();
    for name in after.table_names() {
        let delta = esm_store::Delta::between(
            before.table(name).expect("exists"),
            after.table(name).expect("exists"),
        )
        .expect("same schema");
        if !delta.is_empty() {
            recs.push(esm_engine::WalRecord::delta(seq, name, delta));
        }
    }
    recs
}

#[test]
fn multi_table_transactions_recover_all_or_nothing_at_every_byte() {
    const TXS: usize = 30;
    let dir = fresh_dir("atomic-tx");
    let cfg = DurabilityConfig::new(&dir)
        .segment_bytes(700)
        .group_commit(3)
        .checkpoint_every(0)
        .maintenance_interval_ms(0);
    // Every transaction touches BOTH tables, so its WAL shape is a
    // 2-record chain; a crash between the records must recover to the
    // previous transaction boundary, never to half a transaction.
    let engine = durable(cfg.clone());
    let mut states = vec![engine.snapshot()];
    for i in 0..TXS as i64 {
        engine
            .transact(1, |db| {
                db.table_mut("accounts")?
                    .upsert(row![500 + i, "a", format!("tx\t{i}"), i])?;
                db.table_mut("audit")?
                    .upsert(row![i, format!("paired {i}")])?;
                Ok(())
            })
            .expect("commits");
        states.push(engine.snapshot());
    }
    engine.sync_wal().expect("final sync");
    drop(engine);

    let segments = segment_bytes(&dir);
    let total: usize = segments.iter().map(|(_, b)| b.len()).sum();
    let mut mid_chain_cuts = 0usize;
    for cut in 0..=total {
        let scan = truncate_stream(&segments, cut);
        let (records, _stale) = plan_recovery(0, &scan).expect("truncation never corrupts");
        let resolved = resolve_transactions(&records).expect("resolves");
        let kept = match resolved.tail_first_seq {
            Some(first) => {
                mid_chain_cuts += 1;
                (first - 1) as usize
            }
            None => records.len(),
        };
        assert_eq!(
            kept % 2,
            0,
            "cut {cut}: recovery must land on a transaction boundary"
        );
        assert_eq!(resolved.applied.len(), kept);
        let mut db = states[0].clone();
        for (name, delta) in &resolved.applied {
            let next = delta
                .apply(db.table(name).expect("exists"))
                .expect("applies");
            db.replace_table(name.clone(), next);
        }
        assert_eq!(db, states[kept / 2], "cut {cut}");
    }
    assert!(
        mid_chain_cuts > 0,
        "some cuts must land mid-chain or the test proves nothing"
    );

    // Sampled full-path recoveries: the interrupted chain is discarded,
    // truncated off disk, and the engine keeps committing.
    let mut cuts: Vec<usize> = (0..=total).step_by(211).collect();
    cuts.push(total);
    for cut in cuts {
        let scan = truncate_stream(&segments, cut);
        let (records, _) = plan_recovery(0, &scan).expect("plans");
        let resolved = resolve_transactions(&records).expect("resolves");
        let kept = match resolved.tail_first_seq {
            Some(first) => (first - 1) as usize,
            None => records.len(),
        };
        let case_dir = write_truncated_dir(&dir, &segments, cut, "atomic-tx-case");
        let case_cfg = DurabilityConfig::new(&case_dir)
            .segment_bytes(700)
            .group_commit(3)
            .checkpoint_every(0)
            .maintenance_interval_ms(0);
        let (recovered, report) = recover(case_cfg).expect("recovers");
        assert_eq!(
            recovered.snapshot(),
            states[kept / 2],
            "full path, cut {cut}"
        );
        assert_eq!(report.last_seq as usize, kept);
        assert_eq!(
            report.tail_records_discarded as usize,
            records.len() - kept,
            "full path, cut {cut}"
        );
        recovered
            .transact(1, |db| {
                db.table_mut("audit")?
                    .upsert(row![9_000, "post-recovery"])?;
                Ok(())
            })
            .expect("recovered engines keep committing");
        std::fs::remove_dir_all(&case_dir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_falls_back_when_the_newest_checkpoint_is_torn() {
    const COMMITS: usize = 50;
    let dir = fresh_dir("torn-ckpt");
    let cfg = DurabilityConfig::new(&dir)
        .segment_bytes(100_000) // one segment: no compaction of history
        .checkpoint_every(20)
        .maintenance_interval_ms(0);
    let (engine, _states) = recorded_run(cfg.clone(), COMMITS);
    let live = engine.snapshot();

    let clean = recover(cfg.clone()).expect("recovers");
    let newest = clean.1.checkpoint_seq;
    assert!(newest >= 40);

    // Tear the newest checkpoint (crash mid-checkpoint-write: the file
    // exists but the trailer never landed).
    let ckpt_path = shard0(&dir).join(format!("checkpoint-{newest:020}.ckpt"));
    let bytes = std::fs::read(&ckpt_path).expect("read ckpt");
    std::fs::write(&ckpt_path, &bytes[..bytes.len() / 2]).expect("tear ckpt");

    let (recovered_engine, report) = recover(cfg).expect("falls back");
    assert_eq!(recovered_engine.snapshot(), live);
    assert!(report.checkpoint_seq < newest, "older checkpoint used");
    assert!(report.corrupt_checkpoints_skipped >= 1);
    assert!(
        report.records_replayed > clean.1.records_replayed,
        "falling back replays more records to reach the same state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_single_flipped_bit_in_the_newest_checkpoint_falls_back() {
    const COMMITS: usize = 50;
    let dir = fresh_dir("flipped-ckpt");
    let cfg = DurabilityConfig::new(&dir)
        .segment_bytes(100_000) // one segment: no compaction of history
        .checkpoint_every(20)
        .maintenance_interval_ms(0);
    let (engine, _states) = recorded_run(cfg.clone(), COMMITS);
    let live = engine.snapshot();
    drop(engine);
    let shard = shard0(&dir);
    let (newest, skipped) = latest_valid_checkpoint(&shard).expect("scans");
    let newest = newest.expect("a checkpoint").seq;
    assert_eq!(skipped, 0);

    // Every single-bit flip of the newest checkpoint is caught by its
    // seal: the scan skips it, counts it, and falls back to the older
    // checkpoint — never to a rotten database under the newest seq.
    let ckpt_path = shard.join(format!("checkpoint-{newest:020}.ckpt"));
    let clean = std::fs::read(&ckpt_path).expect("read ckpt");
    for bit in 0..clean.len() * 8 {
        let mut flipped = clean.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&ckpt_path, &flipped).expect("flip");
        let (found, skipped) = latest_valid_checkpoint(&shard).expect("scans");
        let found = found.expect("the older checkpoint survives");
        assert!(found.seq < newest, "bit {bit}: fell back");
        assert_eq!(skipped, 1, "bit {bit}: the flipped file is counted");
    }

    // Recovery over a flipped file reports the skip and still reaches
    // the live state by replaying from the older checkpoint.
    let mut flipped = clean.clone();
    flipped[clean.len() / 2] ^= 0x10;
    std::fs::write(&ckpt_path, &flipped).expect("flip");
    let (recovered_engine, report) = recover(cfg).expect("falls back");
    assert_eq!(recovered_engine.snapshot(), live);
    assert!(report.checkpoint_seq < newest, "older checkpoint used");
    assert_eq!(report.corrupt_checkpoints_skipped, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_single_flipped_bit_in_the_topology_manifest_refuses_recovery() {
    let dir = fresh_dir("flipped-topology");
    let cfg = DurabilityConfig::new(&dir)
        .checkpoint_every(0)
        .maintenance_interval_ms(0);
    let (engine, _states) = recorded_run(cfg.clone(), 5);
    drop(engine);
    // A flipped shard id or split row would misroute keys, so every
    // single-bit flip must refuse the directory rather than recover it.
    let path = dir.join(esm_engine::shard::TOPOLOGY_FILE);
    let clean = std::fs::read(&path).expect("read topology");
    for bit in 0..clean.len() * 8 {
        let mut flipped = clean.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &flipped).expect("flip");
        assert!(
            matches!(recover(cfg.clone()), Err(EngineError::WalCorrupt(_))),
            "bit {bit} must refuse recovery"
        );
    }
    std::fs::write(&path, &clean).expect("restore");
    recover(cfg).expect("the clean manifest recovers");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_segment_is_corruption_not_silent_data_loss() {
    const COMMITS: usize = 40;
    let dir = fresh_dir("gap");
    let cfg = DurabilityConfig::new(&dir)
        .segment_bytes(400)
        .checkpoint_every(0)
        .maintenance_interval_ms(0);
    let (_engine, _states) = recorded_run(cfg.clone(), COMMITS);

    let segments = segment_bytes(&dir);
    assert!(segments.len() >= 3);
    // Delete a middle segment: the log now has a hole that no crash can
    // produce.
    let (victim, _) = segments[1];
    std::fs::remove_file(shard0(&dir).join(format!("wal-{victim:020}.seg"))).expect("remove");
    match recover(cfg) {
        Err(EngineError::WalCorrupt(msg)) => {
            assert!(msg.contains("gap"), "useful diagnostics: {msg}")
        }
        other => panic!("expected WalCorrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovered_engines_keep_committing_durably() {
    const COMMITS: usize = 30;
    let dir = fresh_dir("continue");
    let cfg = DurabilityConfig::new(&dir)
        .checkpoint_every(0)
        .maintenance_interval_ms(0);
    let (_engine, states) = recorded_run(cfg.clone(), COMMITS);

    // First recovery, then new traffic, then a second recovery: the
    // durable log is a continuous history across restarts.
    let (second, report) = recover(cfg.clone()).expect("recovers");
    assert_eq!(second.snapshot(), states[COMMITS]);
    second
        .define_view("all_accounts", "accounts", &ViewDef::base())
        .expect("views re-register after recovery");
    second
        .edit_view_optimistic("all_accounts", 1, |v| {
            v.upsert(row![9_999, "z", "post-recovery", 1])?;
            Ok(())
        })
        .expect("commits");
    assert_eq!(second.shard_wals()[0].records()[0].seq, report.last_seq + 1);
    second.sync_wal().expect("syncs");
    let live = second.snapshot();

    let (third, report2) = recover(cfg).expect("recovers again");
    assert_eq!(third.snapshot(), live);
    assert_eq!(report2.last_seq, report.last_seq + 1);
    assert!(third
        .snapshot()
        .table("accounts")
        .expect("exists")
        .contains(&row![9_999, "z", "post-recovery", 1]));
    // And recovering the third engine's directory again gives its live
    // state.
    assert_eq!(
        esm_engine::testkit::recovered_snapshot(&third).expect("recovers"),
        third.snapshot()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_and_durable_views_of_state_agree() {
    // The state a checkpoint serializes, captured from the live piece,
    // equals the engine's own committed snapshot (the entangled-
    // consistency law for the durability layer).
    let dir = fresh_dir("checkpoint-capture");
    let cfg = DurabilityConfig::new(&dir)
        .checkpoint_every(7)
        .maintenance_interval_ms(0);
    let (engine, states) = recorded_run(cfg.clone(), 23);
    let ckpt = engine.checkpoint().expect("checkpoints").expect("durable");
    assert_eq!(ckpt, vec![23]);
    let (recovered_engine, report) = recover(cfg).expect("recovers");
    assert_eq!(report.checkpoint_seq, 23);
    assert_eq!(report.records_replayed, 0, "checkpoint covers everything");
    assert_eq!(recovered_engine.snapshot(), states[23]);
    std::fs::remove_dir_all(&dir).ok();
}
