//! Property-based recovery laws: for arbitrary committed workloads, WAL
//! replay over the baseline reconstructs the live engine state, and WAL
//! records round-trip through segment frames.

use proptest::prelude::*;

use esm_engine::{decode_segment_prefix, encode_framed_binary, EngineServer, Wal, WalRecord};
use esm_store::{row, Database, Delta, Row, Schema, Table, Value, ValueType};

fn baseline() -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("label", ValueType::Str),
            ("flag", ValueType::Bool),
        ],
        &["id"],
    )
    .expect("valid schema");
    let t = Table::from_rows(
        schema,
        vec![
            row![0, "zero", false],
            row![1, "one", true],
            row![2, "two", false],
        ],
    )
    .expect("valid rows");
    let mut db = Database::new();
    db.create_table("items", t).expect("fresh");
    db
}

/// One generated mutation: upsert (id, label, flag) or delete by id.
#[derive(Debug, Clone)]
enum Op {
    Upsert(i64, String, bool),
    Delete(i64),
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0i64..30, "[a-z]{0,5}", any::<bool>(), any::<bool>()),
        0..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(id, label, flag, is_delete)| {
                if is_delete {
                    Op::Delete(id)
                } else {
                    Op::Upsert(id, label, flag)
                }
            })
            .collect()
    })
}

fn apply_ops(engine: &EngineServer, ops: &[Op], per_tx: usize) {
    for chunk in ops.chunks(per_tx.max(1)) {
        engine
            .transact(1, |db| {
                let table = db.table_mut("items")?;
                for op in chunk {
                    match op {
                        Op::Upsert(id, label, flag) => {
                            table.upsert(row![*id, label.as_str(), *flag])?;
                        }
                        Op::Delete(id) => {
                            table.delete_by_key(&row![*id]);
                        }
                    }
                }
                Ok(())
            })
            .expect("serial transactions never conflict");
    }
}

/// The in-memory log of a one-shard engine.
fn wal(engine: &EngineServer) -> Wal {
    engine.shard_wals().swap_remove(0)
}

/// Frame every record of `wal` the way a durable segment does, then
/// decode the stream back: it must decode whole, neither torn nor
/// corrupt.
fn through_segment(wal: &Wal) -> Wal {
    let bytes: Vec<u8> = wal
        .records()
        .iter()
        .flat_map(encode_framed_binary)
        .collect();
    let prefix = decode_segment_prefix(&bytes);
    assert!(!prefix.torn && prefix.corrupt.is_none(), "{prefix:?}");
    assert_eq!(prefix.consumed, bytes.len());
    Wal::from_records(prefix.records)
}

/// Characters chosen to stress the codec: separators, backslashes,
/// quoting, punctuation, and a multi-byte point.
const NASTY: &[char] = &[
    'a', 'z', '"', '\'', '\\', '\t', '\n', '\r', ' ', ':', '#', '+', '-', 'λ',
];

fn nasty_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..NASTY.len(), 0..8)
        .prop_map(|ix| ix.into_iter().map(|i| NASTY[i]).collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    (0u8..3, any::<i64>(), nasty_string()).prop_map(|(kind, n, s)| match kind {
        0 => Value::Bool(n % 2 == 0),
        1 => Value::Int(n),
        _ => Value::Str(s),
    })
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(proptest::collection::vec(arb_value(), 0..4), 0..3)
}

proptest! {
    #[test]
    fn wal_codec_roundtrips_arbitrary_multitable_deltas(
        raw in proptest::collection::vec(
            (nasty_string(), arb_rows(), arb_rows(), 1u64..4),
            0..12,
        )
    ) {
        // Arbitrary table names (escapes, quotes, separators, unicode),
        // arbitrary heterogeneous rows, empty deltas, and gapped seqs:
        // decode(encode(x)) == x regardless.
        let mut wal = Wal::new();
        let mut seq = 0u64;
        for (table, inserted, deleted, gap) in raw {
            seq += gap;
            wal.push(WalRecord::delta(seq, table, Delta { inserted, deleted }))
                .expect("strictly increasing by construction");
        }
        prop_assert_eq!(through_segment(&wal), wal);
    }

    #[test]
    fn wal_codec_roundtrips_chains_and_markers(
        raw in proptest::collection::vec(
            (0u8..4, nasty_string(), arb_rows(), 1u64..3),
            0..16,
        )
    ) {
        // Chained deltas, prepare/resolve markers with codec-hostile
        // gtx ids, and plain records, interleaved arbitrarily: the
        // segment codec round-trips every record kind.
        let mut wal = Wal::new();
        let mut seq = 0u64;
        for (kind, name, rows, gap) in raw {
            seq += gap;
            let rec = match kind {
                0 => WalRecord::delta(seq, format!("t_{name}"), Delta {
                    inserted: rows,
                    deleted: vec![],
                }),
                1 => WalRecord::chained(seq, format!("t_{name}"), Delta {
                    inserted: vec![],
                    deleted: rows,
                }),
                2 => WalRecord::prepare(seq, name, rows.len() as u64),
                _ => WalRecord::resolve(seq, name, rows.len() % 2 == 0),
            };
            wal.push(rec).expect("strictly increasing by construction");
        }
        prop_assert_eq!(through_segment(&wal), wal);
    }
}

#[test]
fn codec_handles_quotes_newlines_and_empty_deltas() {
    let mut wal = Wal::new();
    // Quotes and newlines inside strings, in table names too.
    wal.append(
        "quoted \" table\nwith newline",
        Delta {
            inserted: vec![vec![
                Value::str("she said \"hi\\there\""),
                Value::str("line1\nline2\r\nline3"),
                Value::str(""),
            ]],
            deleted: vec![vec![Value::str("tab\tseparated\tcells")]],
        },
    );
    // The empty delta and the empty row are records too.
    wal.append("empty_delta", Delta::empty());
    wal.append(
        "empty_row",
        Delta {
            inserted: vec![vec![]],
            deleted: vec![],
        },
    );
    // Strings are length-delimited, so they are framed raw: no
    // escaping, whatever they contain.
    let bytes: Vec<u8> = wal
        .records()
        .iter()
        .flat_map(encode_framed_binary)
        .collect();
    let raw = b"line1\nline2\r\nline3";
    assert!(bytes.windows(raw.len()).any(|w| w == raw));
    assert_eq!(through_segment(&wal), wal);
}

proptest! {
    #[test]
    fn wal_replay_reconstructs_live_state(ops in arb_ops(40), per_tx in 1usize..6) {
        let engine = EngineServer::new(baseline());
        apply_ops(&engine, &ops, per_tx);
        let replayed = wal(&engine).replay(&baseline()).expect("replays");
        prop_assert_eq!(replayed, engine.snapshot());
    }

    #[test]
    fn wal_segment_codec_round_trips(ops in arb_ops(30), per_tx in 1usize..4) {
        let engine = EngineServer::new(baseline());
        apply_ops(&engine, &ops, per_tx);
        let wal = wal(&engine);
        let decoded = through_segment(&wal);
        prop_assert_eq!(&decoded, &wal);
        // Decoded logs recover the same state as live ones.
        prop_assert_eq!(
            decoded.replay(&baseline()).expect("replays"),
            engine.snapshot()
        );
    }

    #[test]
    fn interleaved_disjoint_transactions_replay_exactly(seed_ops in arb_ops(20)) {
        // Two snapshot transactions over disjoint key ranges, committed in
        // an interleaved order (b lands while a's body runs on its
        // snapshot), still yield a WAL whose replay equals the final
        // state.
        let engine = EngineServer::new(baseline());
        apply_ops(&engine, &seed_ops, 3);
        engine
            .transact(1, |db| {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        engine.transact(1, |db| {
                            db.table_mut("items")?.upsert(row![200, "from b", false])?;
                            Ok(())
                        })
                    })
                    .join()
                    .expect("no panic")
                })
                .expect("disjoint");
                db.table_mut("items")?.upsert(row![100, "from a", true])?;
                Ok(())
            })
            .expect("disjoint");
        prop_assert_eq!(wal(&engine).replay(&baseline()).expect("replays"), engine.snapshot());
    }
}
