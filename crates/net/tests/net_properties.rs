//! Property-based wire-protocol laws, mirroring `wal_properties.rs`:
//! for arbitrary codec-hostile payloads, `decode(encode(x)) == x` and
//! every strict prefix of a payload is refused; for every torn byte
//! prefix of a frame, the decoder reports *incomplete* (never an error,
//! never a wrong message); and any in-frame bit flip is refused as
//! corruption.

use proptest::prelude::*;

use esm_engine::{
    EngineError, FileEntry, MetricsSnapshot, ReplManifest, ReplStats, ReplicaLag, ShardLoad,
    ShardManifest, ShardStats, SnapshotChanges, SnapshotSince, ViewStats, WalStats,
};
use esm_net::frame::{decode_frame, encode_frame};
use esm_net::{Request, Response, SnapshotMark};
use esm_obs::{Phase, SpanRecord, Telemetry, TelemetrySnapshot, TraceId, TraceRecord, TraceReport};
use esm_relational::ViewDef;
use esm_store::{
    row, Database, Delta, Operand, Predicate, Row, Schema, StoreError, Table, Value, ValueType,
};

/// Characters chosen to stress the codec: separators, quoting,
/// punctuation, and multi-byte points.
const NASTY: &[char] = &[
    'a', 'z', '"', '\'', '\\', '\t', '\n', '\r', ' ', ':', '@', '#', '+', '-', 'λ', '🦀',
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

/// A well-formed keyed table whose string cells are codec-hostile.
fn arb_table() -> impl Strategy<Value = Table> {
    (
        nasty_string(),
        proptest::collection::vec((any::<i64>(), nasty_string(), any::<bool>()), 0..6),
    )
        .prop_map(|(colname, rows)| {
            // Distinct column names even when the nasty generator
            // collides: suffix the generated name.
            let schema = Schema::build(
                &[
                    ("id", ValueType::Int),
                    ("s", ValueType::Str),
                    ("b", ValueType::Bool),
                ],
                &["id"],
            )
            .expect("valid schema");
            let mut t = Table::new(schema);
            for (id, s, b) in rows {
                let _ = t.upsert(row![id, format!("{colname}{s}"), b]);
            }
            t
        })
}

/// A database of up to three codec-hostile tables under codec-hostile
/// names.
fn arb_database() -> impl Strategy<Value = Database> {
    proptest::collection::vec((nasty_string(), arb_table()), 0..3).prop_map(|tables| {
        let mut db = Database::new();
        for (name, table) in tables {
            db.replace_table(name, table);
        }
        db
    })
}

/// A request carrying `table`'s rows: a window delta inserting them.
fn inserting(name: String, table: &Table) -> Request {
    Request::EditViewDelta {
        name,
        delta: Delta {
            inserted: table.rows().cloned().collect(),
            deleted: Vec::new(),
        },
    }
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(proptest::collection::vec(arb_value(), 0..4), 0..4)
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    // A bounded-depth expression decoded from a script of operations.
    proptest::collection::vec((0u8..6, nasty_string(), any::<i64>()), 1..8).prop_map(|script| {
        let mut pred = Predicate::True;
        for (kind, s, n) in script {
            let leaf = match kind % 3 {
                0 => Predicate::eq(Operand::col(s.clone()), Operand::val(n)),
                1 => Predicate::lt(Operand::col("k"), Operand::val(s.clone())),
                _ => Predicate::ge(Operand::val(n), Operand::col(s.clone())),
            };
            pred = match kind {
                0 | 1 => pred.and(leaf),
                2 | 3 => pred.or(leaf),
                4 => pred.not().and(leaf),
                _ => leaf.and(Predicate::False).or(pred),
            };
        }
        pred
    })
}

fn arb_viewdef() -> impl Strategy<Value = ViewDef> {
    (arb_predicate(), nasty_string(), nasty_string()).prop_map(|(pred, a, b)| {
        ViewDef::base()
            .select(pred)
            .project(&["id", "s"], &[(b.as_str(), Value::str(a.as_str()))])
            .rename(&[("s", "renamed")])
    })
}

/// Full-range u64s (the vendored proptest only derives signed ints).
fn arb_u64() -> impl Strategy<Value = u64> {
    any::<i64>().prop_map(|n| n as u64)
}

/// Spans with codec-hostile names/tags and full-range numerics.
fn arb_span() -> impl Strategy<Value = SpanRecord> {
    (
        (1u32..64, 0u32..64),
        (nasty_string(), nasty_string()),
        (arb_u64(), arb_u64(), arb_u64()),
    )
        .prop_map(
            |((id, parent), (name, tag), (start_ns, duration_ns, bytes))| SpanRecord {
                id,
                parent,
                name,
                tag,
                start_ns,
                duration_ns,
                bytes,
            },
        )
}

fn arb_trace() -> impl Strategy<Value = TraceRecord> {
    (
        arb_u64(),
        nasty_string(),
        arb_u64(),
        proptest::collection::vec(arb_span(), 0..6),
    )
        .prop_map(|(id, root, duration_ns, spans)| TraceRecord {
            id: TraceId(id),
            root,
            duration_ns,
            spans,
        })
}

/// Every counter distinct, so a swapped field cannot round-trip.
fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec(arb_u64(), 32),
        proptest::collection::vec((arb_u64(), arb_u64(), arb_u64(), arb_u64()), 0..4),
        proptest::collection::vec((arb_u64(), arb_u64(), arb_u64()), 0..4),
    )
        .prop_map(|(counters, load, lag)| {
            let mut counters = counters.into_iter();
            let mut next = || counters.next().expect("32 counters");
            MetricsSnapshot {
                commits: next(),
                conflicts: next(),
                retries: next(),
                view_reads: next(),
                rows_written: next(),
                wal_truncations: next(),
                wal_records_truncated: next(),
                wal: WalStats {
                    appends: next(),
                    syncs: next(),
                    bytes_written: next(),
                    rotations: next(),
                    checkpoints: next(),
                    segments_compacted: next(),
                },
                shard: ShardStats {
                    single_shard_commits: next(),
                    cross_shard_commits: next(),
                    prepares: next(),
                    recovery_commits: next(),
                    recovery_aborts: next(),
                    splits: next(),
                    merges: next(),
                    rows_migrated: next(),
                    auto_splits: next(),
                    auto_merges: next(),
                    commit_rate_ewma_milli: next(),
                    commit_rate_skew_milli: next(),
                },
                view: ViewStats {
                    materialized_reads: next(),
                    deltas_applied: next(),
                    rebuilds: next(),
                    shards_pruned: next(),
                },
                repl: ReplStats {
                    ship_passes: next(),
                    records_applied: next(),
                    transactions_applied: next(),
                    lag: lag
                        .into_iter()
                        .map(|(shard, primary_seq, applied_seq)| ReplicaLag {
                            shard,
                            primary_seq,
                            applied_seq,
                        })
                        .collect(),
                },
                shard_load: load
                    .into_iter()
                    .map(|(shard, rows, commits, rate_ewma_milli)| ShardLoad {
                        shard,
                        rows,
                        commits,
                        rate_ewma_milli,
                    })
                    .collect(),
            }
        })
}

fn arb_phase() -> impl Strategy<Value = Phase> {
    (0usize..Phase::ALL.len()).prop_map(|i| Phase::ALL[i])
}

/// Phase histograms, slow ops with their phase breakdowns, and gauges.
fn arb_telemetry() -> impl Strategy<Value = TelemetrySnapshot> {
    (
        proptest::collection::vec((arb_phase(), arb_u64()), 0..12),
        proptest::collection::vec(
            (
                nasty_string(),
                arb_u64(),
                proptest::collection::vec((arb_phase(), arb_u64()), 0..3),
            ),
            0..3,
        ),
        proptest::collection::vec((nasty_string(), arb_u64()), 0..3),
    )
        .prop_map(|(samples, slow, gauges)| {
            let tel = Telemetry::new();
            for (phase, ns) in samples {
                tel.record(phase, ns);
            }
            for (op, total_ns, phases) in slow {
                tel.record_slow(op, total_ns | 1 << 63, &phases);
            }
            let mut snapshot = tel.snapshot();
            for (name, value) in gauges {
                snapshot.set_gauge(&name, value);
            }
            snapshot
        })
}

fn arb_manifest() -> impl Strategy<Value = ReplManifest> {
    (
        proptest::collection::vec(0u8..=255, 0..24),
        nasty_string(),
        proptest::collection::vec(
            (
                arb_u64(),
                arb_u64(),
                proptest::collection::vec((nasty_string(), arb_u64()), 0..3),
            ),
            0..3,
        ),
    )
        .prop_map(|(topology, primary_addr, shards)| ReplManifest {
            topology,
            primary_addr,
            shards: shards
                .into_iter()
                .map(|(id, last_seq, files)| ShardManifest {
                    id,
                    last_seq,
                    files: files
                        .into_iter()
                        .map(|(name, len)| FileEntry { name, len })
                        .collect(),
                })
                .collect(),
        })
}

/// Every [`EngineError`] variant, with codec-hostile text.
fn arb_error() -> impl Strategy<Value = EngineError> {
    (
        0u8..12,
        nasty_string(),
        nasty_string(),
        arb_u64(),
        arb_u64(),
    )
        .prop_map(|(kind, a, b, n, m)| match kind {
            0 => EngineError::Store(StoreError::NoSuchColumn(a)),
            1 => EngineError::Conflict {
                table: a,
                detail: b,
            },
            2 => EngineError::NoSuchView(a),
            3 => EngineError::ViewExists(a),
            4 => EngineError::NoSuchTable(a),
            5 => EngineError::WalCorrupt(a),
            6 => EngineError::DuplicateSeq { seq: n, last: m },
            7 => EngineError::Io(a),
            8 => EngineError::RetriesExhausted {
                view: a,
                attempts: n as u32,
            },
            9 => EngineError::ReservedTableName(a),
            10 => EngineError::ShardTopology(a),
            _ => EngineError::NotPrimary { primary: a },
        })
}

proptest! {
    #[test]
    fn predicates_round_trip(
        pred in arb_predicate(),
        name in nasty_string(),
        col in nasty_string(),
    ) {
        // Predicates cross the wire inside view definitions: select
        // stages carry them, between any other stages.
        let def = ViewDef::base()
            .select(pred.clone())
            .rename(&[("s", col.as_str())])
            .select(pred.not())
            .project(&[col.as_str()], &[("id", Value::Int(7))]);
        let req = Request::DefineView { name, table: col, def };
        prop_assert_eq!(Request::decode(&req.encode()).expect("round-trips"), req);
    }

    #[test]
    fn requests_round_trip_through_frames(
        name in nasty_string(),
        table in arb_table(),
        def in arb_viewdef(),
        inserted in arb_rows(),
        deleted in arb_rows(),
        kind in 0u8..6,
    ) {
        let req = match kind {
            0 => Request::Table(name.clone()),
            1 => Request::DefineView { name: name.clone(), table: "t".into(), def: def.clone() },
            2 => inserting(name.clone(), &table),
            3 => Request::EditViewDelta {
                name: name.clone(),
                delta: Delta { inserted: inserted.clone(), deleted: deleted.clone() },
            },
            4 => Request::Commit {
                deltas: vec![(name.clone(), Delta { inserted, deleted })],
            },
            _ => Request::ReadView(name.clone()),
        };
        let framed = encode_frame(&req.encode());
        let (payload, consumed) = decode_frame(&framed)
            .expect("fresh frame is never corrupt")
            .expect("fresh frame is complete");
        prop_assert_eq!(consumed, framed.len());
        let back = Request::decode(&payload).expect("round-trips");
        // ViewDef comparison is structural (PartialEq added for the wire).
        prop_assert_eq!(back, req);
    }

    #[test]
    fn responses_round_trip_through_frames(
        names in proptest::collection::vec(nasty_string(), 0..5),
        table in arb_table(),
        inserted in arb_rows(),
        deleted in arb_rows(),
        gtx in nasty_string(),
        stamp in 0u64..1_000_000_000,
        metrics in arb_metrics(),
        telemetry in arb_telemetry(),
        traces in arb_trace(),
        manifest in arb_manifest(),
        error in arb_error(),
        kind in 0u8..11,
    ) {
        let resp = match kind {
            0 => Response::Names(names.clone()),
            1 => Response::Table(table.clone()),
            2 => Response::Delta(Delta { inserted, deleted }),
            3 => Response::Receipt { stamp, shards: vec![0, 2, 5], gtx: Some(gtx.clone()) },
            4 => Response::Err(error),
            5 => Response::Metrics(metrics),
            6 => Response::Stats(telemetry),
            7 => Response::Traces(TraceReport { recent: vec![traces.clone()], slow: vec![traces] }),
            8 => Response::ReplManifest(manifest),
            9 => Response::ReplChunk(gtx.into_bytes()),
            _ => Response::Seq(Some(stamp)),
        };
        // Store errors cross as their message, rebuilt as a BadQuery;
        // everything else comes back exactly.
        let want = match &resp {
            Response::Err(EngineError::Store(e)) => {
                Response::Err(EngineError::Store(StoreError::BadQuery(e.to_string())))
            }
            other => other.clone(),
        };
        let payload = resp.encode();
        let framed = encode_frame(&payload);
        let (unframed, _) = decode_frame(&framed).unwrap().expect("complete");
        prop_assert_eq!(Response::decode(&unframed).expect("round-trips"), want);
        // Every field is fixed-width or length-prefixed, so no strict
        // prefix of a payload is a message.
        for cut in 0..payload.len() {
            prop_assert!(Response::decode(&payload[..cut]).is_err(), "cut at {}", cut);
        }
    }

    #[test]
    fn torn_frame_prefixes_read_as_incomplete(
        name in nasty_string(),
        table in arb_table(),
    ) {
        // Mirror the crash-recovery discipline: cut the framed bytes at
        // EVERY offset; each prefix must decode as "incomplete", never
        // as an error or (worse) a different message.
        let req = inserting(name, &table);
        let framed = encode_frame(&req.encode());
        for cut in 0..framed.len() {
            prop_assert_eq!(
                decode_frame(&framed[..cut]).expect("prefixes are not corrupt"),
                None,
                "cut at {} of {} must be incomplete", cut, framed.len()
            );
        }
    }

    #[test]
    fn bit_flips_inside_frames_are_refused(
        name in nasty_string(),
        flip_byte in 0usize..65_536,
        flip_bit in 0u8..8,
    ) {
        let req = Request::ReadView(name);
        let mut framed = encode_frame(&req.encode());
        let idx = 4 + flip_byte % (framed.len() - 4); // spare the length prefix
        framed[idx] ^= 1 << flip_bit;
        // Either the CRC refuses it, or (if the flip hit the CRC field
        // making it self-consistent is impossible for a single bit) —
        // it must never decode to the original bytes with a wrong body.
        match decode_frame(&framed) {
            Err(_) => {}
            Ok(None) => {} // a flip in the length prefix can make it "incomplete"
            Ok(Some(_)) => prop_assert!(false, "corrupt frame decoded"),
        }
    }

    #[test]
    fn trace_contexts_round_trip_and_never_corrupt_the_body(
        name in nasty_string(),
        table in arb_table(),
        trace_id in arb_u64(),
        parent in any::<i64>().prop_map(|n| n as u32),
        carry in any::<bool>(),
    ) {
        // The context is a pure suffix: carrying one never changes how
        // the request body decodes, and omitting it is byte-identical
        // to the pre-context encoding.
        let req = inserting(name, &table);
        let ctx = carry.then_some((trace_id, parent));
        let (back, got) = Request::decode_with_trace(&req.encode_with_trace(ctx))
            .expect("round-trips");
        prop_assert_eq!(got, ctx);
        prop_assert_eq!(back, req.clone());
        prop_assert_eq!(req.encode_with_trace(None), req.encode());
    }

    #[test]
    fn trace_reports_round_trip_through_frames(
        recent in proptest::collection::vec(arb_trace(), 0..4),
        slow in proptest::collection::vec(arb_trace(), 0..3),
    ) {
        let resp = Response::Traces(TraceReport { recent, slow });
        let framed = encode_frame(&resp.encode());
        let (payload, _) = decode_frame(&framed).unwrap().expect("complete");
        prop_assert_eq!(Response::decode(&payload).expect("round-trips"), resp);
    }

    #[test]
    fn subscribe_requests_round_trip(
        view in nasty_string(),
        cursor_val in arb_u64(),
        cursor_some in any::<bool>(),
        unsub in any::<bool>(),
    ) {
        // Subscription verbs with codec-hostile view names and
        // full-range cursors.
        let cursor = cursor_some.then_some(cursor_val);
        let req = if unsub {
            Request::Unsubscribe(view)
        } else {
            Request::Subscribe { view, cursor }
        };
        let framed = encode_frame(&req.encode());
        let (payload, _) = decode_frame(&framed).unwrap().expect("complete");
        prop_assert_eq!(Request::decode(&payload).expect("round-trips"), req);
    }

    #[test]
    fn push_responses_round_trip(
        view in nasty_string(),
        from_seq in arb_u64(),
        to_seq in arb_u64(),
        inserted in arb_rows(),
        deleted in arb_rows(),
        window_val in arb_table(),
        window_some in any::<bool>(),
        ack in any::<bool>(),
    ) {
        let window = window_some.then_some(window_val);
        let resp = if ack {
            Response::SubAck { cursor: from_seq }
        } else {
            Response::Push {
                view,
                from_seq,
                to_seq,
                delta: Delta { inserted, deleted },
                resync: window,
            }
        };
        let framed = encode_frame(&resp.encode());
        let (payload, _) = decode_frame(&framed).unwrap().expect("complete");
        prop_assert_eq!(Response::decode(&payload).expect("round-trips"), resp);
    }

    #[test]
    fn pipelined_frames_split_exactly(
        names in proptest::collection::vec(nasty_string(), 1..6),
    ) {
        // Several frames back to back in one buffer — the shape the
        // server's read loop sees under client pipelining.
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for name in &names {
            let req = Request::ReadView(name.clone());
            buf.extend_from_slice(&encode_frame(&req.encode()));
            want.push(req);
        }
        let mut got = Vec::new();
        let mut rest = &buf[..];
        while let Some((payload, consumed)) = decode_frame(rest).expect("no corruption") {
            got.push(Request::decode(&payload).expect("decodes"));
            rest = &rest[consumed..];
        }
        prop_assert!(rest.is_empty());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn edit_view_delta_round_trips_and_refuses_garbage(
        name in nasty_string(),
        inserted in arb_rows(),
        deleted in arb_rows(),
        trace_id in arb_u64(),
        parent in any::<i64>().prop_map(|n| n as u32),
        carry in any::<bool>(),
    ) {
        // Revision 7: a view edit ships its window delta.
        let req = Request::EditViewDelta { name, delta: Delta { inserted, deleted } };
        let ctx = carry.then_some((trace_id, parent));
        prop_assert_eq!(req.framed_with_trace(ctx), encode_frame(&req.encode_with_trace(ctx)));
        let (payload, _) = decode_frame(&req.framed_with_trace(ctx)).unwrap().expect("complete");
        let (back, got) = Request::decode_with_trace(&payload).expect("round-trips");
        prop_assert_eq!(back, req.clone());
        prop_assert_eq!(got, ctx);

        // Every truncation is refused, and a count cut in anywhere that
        // promises more items than bytes follow is refused before it
        // sizes an allocation: at most the bytes sent come back.
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Request::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
            let mut absurd = bytes[..cut].to_vec();
            absurd.extend_from_slice(&u32::MAX.to_le_bytes());
            if let Ok(back) = Request::decode(&absurd) {
                prop_assert_eq!(back.encode(), absurd);
            }
        }
    }

    #[test]
    fn snapshot_since_round_trips_and_refuses_garbage(
        since in arb_u64(),
        since_some in any::<bool>(),
        stamp in arb_u64(),
        names in proptest::collection::vec(nasty_string(), 0..3),
        inserted in arb_rows(),
        deleted in arb_rows(),
        db in arb_database(),
        whole in any::<bool>(),
        flag in 2u8..255,
    ) {
        // Revision 6: the request, and an answer carrying deltas or the
        // whole database, survive frames built in place — byte for byte
        // the frames of the encoded payloads.
        let req = Request::SnapshotSince {
            since: since_some.then_some(SnapshotMark { server: stamp ^ since, stamp: since }),
        };
        let deltas: Vec<(String, Delta)> = names
            .into_iter()
            .map(|n| (n, Delta { inserted: inserted.clone(), deleted: deleted.clone() }))
            .collect();
        let changes = if whole { SnapshotChanges::Full(db.clone()) } else { SnapshotChanges::Deltas(deltas) };
        let resp = Response::SnapshotSince { server: since, answer: SnapshotSince { stamp, changes } };
        prop_assert_eq!(req.framed_with_trace(None), encode_frame(&req.encode()));
        prop_assert_eq!(resp.framed(), encode_frame(&resp.encode()));
        prop_assert_eq!(Response::Database(db.clone()).framed(), encode_frame(&Response::Database(db).encode()));
        let (payload, _) = decode_frame(&resp.framed()).unwrap().expect("complete");
        prop_assert_eq!(Response::decode(&payload).expect("round-trips"), resp.clone());
        let (payload, _) = decode_frame(&req.framed_with_trace(None)).unwrap().expect("complete");
        prop_assert_eq!(Request::decode(&payload).expect("round-trips"), req.clone());

        // Every truncation is refused; an absurd count announced at any
        // cut (tables, deltas, rows, cells, string lengths) is refused
        // before it sizes anything, or decodes to exactly those bytes.
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Request::decode(&bytes[..cut]).is_err(), "request cut at {}", cut);
        }
        let bytes = resp.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Response::decode(&bytes[..cut]).is_err(), "answer cut at {}", cut);
            let mut absurd = bytes[..cut].to_vec();
            absurd.extend_from_slice(&u32::MAX.to_le_bytes());
            if let Ok(back) = Response::decode(&absurd) {
                prop_assert_eq!(back.encode(), absurd);
            }
        }

        // A flag or tag byte other than 0 or 1 is refused in both
        // directions: the request's `since` flag, and the answer's tag
        // choosing deltas or the whole database.
        let mut bad_req = req.encode();
        bad_req.truncate(2);
        bad_req.push(flag);
        prop_assert!(Request::decode(&bad_req).is_err());
        let empty = SnapshotSince { stamp, changes: SnapshotChanges::Deltas(vec![]) };
        let mut bad_resp = Response::SnapshotSince { server: since, answer: empty }.encode();
        bad_resp[18] = flag; // magic, tag, server and stamp u64s, then the changes tag
        prop_assert!(Response::decode(&bad_resp).is_err());
    }
}

/// A window delta announcing more rows than the bytes left is refused
/// from the count alone (no row is decoded, nothing is sized by it).
#[test]
fn edit_view_delta_row_counts_beyond_the_bytes_left_are_refused() {
    let req = Request::EditViewDelta {
        name: "v".into(),
        delta: Delta {
            inserted: vec![row![1, "a"]],
            deleted: vec![],
        },
    };
    let bytes = req.encode();
    // magic, tag, the name (u32 length + 1 byte): the inserted-row count.
    let at = 2 + 4 + 1;
    assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes());
    for count in [1u32 << 20, u32::MAX] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&count.to_le_bytes());
        assert!(
            Request::decode(&bad).is_err(),
            "{count} rows must not decode"
        );
    }
}

/// Tag 9 was the whole-window `EDIT_VIEW_CAS` of revisions 1–6, and tag
/// 8 the whole-window `WRITE_VIEW` of revisions 1–7: each now decodes as
/// an unknown request, whatever follows it.
#[test]
fn the_old_edit_view_cas_tag_is_an_unknown_request() {
    let table = Table::new(Schema::build(&[("id", ValueType::Int)], &["id"]).expect("schema"));
    // Tag, then how many windows followed the view name.
    for (tag, windows) in [(9u8, 2), (8, 1)] {
        let mut payload = vec![0xB7, tag];
        esm_store::codec::put_str(&mut payload, "v");
        for _ in 0..windows {
            esm_store::codec::put_table(&mut payload, &table);
        }
        for cut in [2, payload.len()] {
            let err = Request::decode(&payload[..cut]).expect_err("the tag is gone");
            assert!(
                err.0.contains(&format!("unknown request tag {tag}")),
                "{err}"
            );
        }
    }
}
