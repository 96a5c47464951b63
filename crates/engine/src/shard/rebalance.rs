//! Online shard rebalancing: split a hot shard at a key, merge adjacent
//! cold ones — while the rest of the engine keeps committing.
//!
//! Both operations take the topology **write** lock as a brief write
//! fence (transactions hold it for read across an attempt, so in-flight
//! commits drain first and new ones queue), move rows *through the
//! WAL* — the donor logs a deletion delta, the receiver's data arrives
//! as its genesis checkpoint (split) or a logged insertion delta
//! (merge) — and finish by atomically rewriting the topology manifest.
//! The replay law therefore survives rebalancing shard by shard:
//! recovering a durable engine's directory gives every shard's live
//! piece, under the live key ranges, with nothing to repair
//! ([`crate::testkit::recovered_snapshot`] checks exactly that).
//!
//! ## Crash safety (durable engines)
//!
//! The steps are ordered so that a crash anywhere leaves a recoverable
//! directory, with [`crate::shard::ShardedEngineServer::recover_with`]
//! finishing the job:
//!
//! * **Split** — ① create the new shard directory (genesis = the moved
//!   rows) → ② rewrite the topology → ③ log the deletion on the donor.
//!   Crash after ① : the topology never published the directory;
//!   recovery sweeps it. Crash after ②: the donor still holds the moved
//!   rows, but they are outside its range now; recovery prunes them
//!   (the new shard is the owner and has the data).
//! * **Merge** — ① log the insertion on the surviving shard → ② rewrite
//!   the topology (dropping the donor) → ③ delete the donor's
//!   directory. Crash after ①: the survivor holds rows outside its
//!   still-unchanged range; recovery prunes them (the donor still owns
//!   them). Crash after ②: the donor's directory is an orphan; recovery
//!   sweeps it.
//!
//! Rows are therefore never lost and never end up owned twice.

use std::sync::atomic::Ordering;

use esm_store::{Database, Delta, Row, Table};

use crate::durable::MaintenanceThread;
use crate::error::EngineError;
use crate::shard::shard::{GroupEnd, Shard};
use crate::shard::{shard_config, write_topology, ShardedEngineServer};

impl ShardedEngineServer {
    /// Split the shard owning `at` into two at key `at`: the shard keeps
    /// `[lo, at)`, a fresh shard takes `[at, hi)` (receiving the rows in
    /// that range). Returns the new shard's topology index. The affected
    /// key range is write-fenced for the duration; other shards keep
    /// committing the moment the fence lifts.
    pub fn split_shard(&self, at: Row) -> Result<usize, EngineError> {
        let mut topo = self.inner.topology.write().expect("topology lock poisoned");
        let source_index = topo.router.shard_of(&at);
        let source = topo.shards[source_index].clone();
        let mut state = source.write();

        // The moved piece: every table's rows with key >= at (all of the
        // donor's keys are < its upper bound, so this is exactly
        // [at, hi)), with secondary indexes carried over.
        let mut moved_piece = Database::new();
        let mut deletions: Vec<(String, Delta)> = Vec::new();
        let mut moved_rows = 0u64;
        for name in state.db.table_names().into_iter().map(String::from) {
            let table = state.db.table(&name)?;
            let moved: Vec<Row> = table.rows_in_key_range(Some(&at), None).cloned().collect();
            let mut piece = Table::new(table.schema().clone());
            for row in &moved {
                piece.insert(row.clone())?;
            }
            for col in table.indexed_columns().into_iter().map(String::from) {
                piece.create_index(&col)?;
            }
            moved_piece.replace_table(name.clone(), piece);
            if !moved.is_empty() {
                moved_rows += moved.len() as u64;
                deletions.push((
                    name,
                    Delta {
                        inserted: vec![],
                        deleted: moved,
                    },
                ));
            }
        }

        // ① the new shard exists (durably, if we persist) …
        let new_id = self.inner.next_shard_id.fetch_add(1, Ordering::SeqCst);
        let new_shard = match &self.inner.durable_base {
            Some(base) => Shard::create_durable(new_id, moved_piece, shard_config(base, new_id))?,
            None => Shard::new_in_memory(new_id, moved_piece),
        };
        if let Some(d) = new_shard.write().durable.as_mut() {
            d.set_telemetry(Some(std::sync::Arc::clone(&self.inner.telemetry)));
            d.set_waker(
                self.inner
                    .maintenance
                    .as_ref()
                    .map(MaintenanceThread::waker),
            );
        }

        // … ② the topology names it as the owner of [at, hi) …
        let mut router = topo.router.clone();
        let new_index = router.split_at(at)?;
        debug_assert_eq!(new_index, source_index + 1);
        if let Some(base) = &self.inner.durable_base {
            let mut ids: Vec<u64> = topo.shards.iter().map(Shard::id).collect();
            ids.insert(new_index, new_id);
            write_topology(
                &base.dir,
                self.inner.next_shard_id.load(Ordering::SeqCst),
                &router,
                &ids,
            )?;
        }

        // … ③ and the donor logs the rows out of its range.
        if !deletions.is_empty() {
            state.append_group(&deletions, GroupEnd::Commit, true)?;
        }
        state.sync()?;
        // The fence holds every commit out, so the last stamp is settled:
        // both logs reflect it through their current ends.
        let stamp = self.last_stamp();
        state.note_stamp(stamp);
        drop(state);
        new_shard.write().note_stamp(stamp);

        topo.router = router;
        topo.shards.insert(new_index, new_shard);
        // Materialized view windows hold per-shard WAL cursors; a layout
        // change invalidates them (they rebuild on next read).
        topo.epoch += 1;
        topo.layout_stamp = stamp;
        self.inner.shard_metrics.split(moved_rows);
        Ok(new_index)
    }

    /// Merge shard `left + 1` into shard `left` (adjacent key ranges
    /// fuse; the donor's rows move into the survivor through its WAL and
    /// the donor is retired). The two ranges are write-fenced for the
    /// duration.
    pub fn merge_shards(&self, left: usize) -> Result<(), EngineError> {
        let mut topo = self.inner.topology.write().expect("topology lock poisoned");
        if left + 1 >= topo.shards.len() {
            return Err(EngineError::ShardTopology(format!(
                "cannot merge shard {} into {left}: topology has {}",
                left + 1,
                topo.shards.len()
            )));
        }
        let survivor = topo.shards[left].clone();
        let donor = topo.shards[left + 1].clone();
        let mut survivor_state = survivor.write();
        let donor_state = donor.write();

        // ① the survivor logs (and applies) the donor's rows …
        let mut insertions: Vec<(String, Delta)> = Vec::new();
        let mut moved_rows = 0u64;
        for name in donor_state.db.table_names().into_iter().map(String::from) {
            let rows: Vec<Row> = donor_state.db.table(&name)?.rows().cloned().collect();
            if !rows.is_empty() {
                moved_rows += rows.len() as u64;
                insertions.push((
                    name,
                    Delta {
                        inserted: rows,
                        deleted: vec![],
                    },
                ));
            }
        }
        if !insertions.is_empty() {
            survivor_state.append_group(&insertions, GroupEnd::Commit, true)?;
        }
        survivor_state.sync()?;

        // … ② the topology forgets the donor …
        let mut router = topo.router.clone();
        router.merge_into(left)?;
        if let Some(base) = &self.inner.durable_base {
            let ids: Vec<u64> = topo
                .shards
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != left + 1)
                .map(|(_, s)| s.id())
                .collect();
            write_topology(
                &base.dir,
                self.inner.next_shard_id.load(Ordering::SeqCst),
                &router,
                &ids,
            )?;
        }

        // … ③ and the donor's directory is retired.
        if let Some(base) = &self.inner.durable_base {
            std::fs::remove_dir_all(shard_config(base, donor.id()).dir)?;
        }
        let stamp = self.last_stamp();
        survivor_state.note_stamp(stamp);
        // The retired donor's log trims stay counted.
        survivor_state.trims.0 += donor_state.trims.0;
        survivor_state.trims.1 += donor_state.trims.1;
        drop(donor_state);
        drop(survivor_state);

        topo.router = router;
        topo.shards.remove(left + 1);
        topo.epoch += 1;
        topo.layout_stamp = stamp;
        self.inner.shard_metrics.merge(moved_rows);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurabilityConfig;
    use crate::shard::ShardRouter;
    use crate::testkit::recovered_snapshot;
    use esm_store::{row, Schema, ValueType};

    fn seed_db(n: i64) -> Database {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        let rows: Vec<Row> = (0..n).map(|i| row![i, format!("r{i}")]).collect();
        let mut db = Database::new();
        db.create_table("kv", Table::from_rows(schema, rows).unwrap())
            .unwrap();
        db
    }

    /// A durable engine over `seed_db(n)` on `shards` uniform ranges, in
    /// a fresh directory named by `tag`.
    fn durable(tag: &str, n: i64, shards: usize) -> (ShardedEngineServer, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("esm-rebalance-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ShardedEngineServer::with_durability(
            seed_db(n),
            ShardRouter::uniform_int(shards, 0, n).unwrap(),
            DurabilityConfig::new(&dir).maintenance_interval_ms(0),
        )
        .unwrap();
        (engine, dir)
    }

    #[test]
    fn split_moves_the_upper_range_and_keeps_laws() {
        let (engine, dir) = durable("split", 40, 2);
        let before = engine.snapshot();
        let new_index = engine.split_shard(row![30]).unwrap();
        assert_eq!(new_index, 2);
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(engine.snapshot(), before, "a split changes no data");
        {
            let topo = engine.topology();
            assert_eq!(topo.shards[1].read().db.table("kv").unwrap().len(), 10);
            assert_eq!(topo.shards[2].read().db.table("kv").unwrap().len(), 10);
        }
        // The replay law survives the move, shard by shard.
        assert_eq!(recovered_snapshot(&engine).unwrap(), before);
        assert_eq!(engine.metrics().shard.splits, 1);
        assert_eq!(engine.metrics().shard.rows_migrated, 10);
        // Traffic routes to the new shard.
        let receipt = engine
            .transact_keys(&[row![35]], 1, |db| {
                db.table_mut("kv")?.upsert(row![35, "after"])?;
                Ok(())
            })
            .unwrap();
        assert_eq!(receipt.shards, vec![2]);
        assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_fuses_adjacent_ranges() {
        let (engine, dir) = durable("merge", 40, 4);
        let before = engine.snapshot();
        engine.merge_shards(1).unwrap();
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(engine.snapshot(), before, "a merge changes no data");
        assert_eq!(
            engine.topology().shards[1]
                .read()
                .db
                .table("kv")
                .unwrap()
                .len(),
            20
        );
        assert_eq!(recovered_snapshot(&engine).unwrap(), before);
        assert_eq!(engine.metrics().shard.merges, 1);
        assert!(engine.merge_shards(2).is_err(), "no right neighbour");
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_then_merge_round_trips() {
        let (engine, dir) = durable("round-trip", 20, 2);
        let before = engine.snapshot();
        let idx = engine.split_shard(row![15]).unwrap();
        engine.merge_shards(idx - 1).unwrap();
        assert_eq!(engine.shard_count(), 2);
        assert_eq!(engine.snapshot(), before);
        assert_eq!(recovered_snapshot(&engine).unwrap(), before);
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
