//! Workload inputs: the table, its band views, who owns which key, the
//! seeded generator every client draws its operations from, and the
//! model of what each row must hold once the run ends.

use std::collections::BTreeMap;

use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Row, Schema, Table, Value, ValueType};

/// The one base table every workload serves.
pub const TABLE: &str = "kv";
/// Band views `band = b` for `b` in `0..BANDS`; a row's band is `id % BANDS`.
pub const BANDS: i64 = 16;
/// Closed-loop clients, one `Session` each.
pub const CLIENTS: usize = 2;
/// Key-range shards of the durable engine (and of the durable shadow the
/// traced wire runs probe).
pub const SHARDS: i64 = 4;

/// `(id, band, val, tag)`, keyed on `id`.
pub fn schema() -> Schema {
    Schema::build(
        &[
            ("id", ValueType::Int),
            ("band", ValueType::Int),
            ("val", ValueType::Int),
            ("tag", ValueType::Str),
        ],
        &["id"],
    )
    .expect("valid schema")
}

pub fn view_name(band: i64) -> String {
    format!("band{band}")
}

pub fn view_def(band: i64) -> ViewDef {
    ViewDef::base().select(Predicate::eq(Operand::col("band"), Operand::val(band)))
}

pub fn key(id: i64) -> Row {
    vec![Value::Int(id)]
}

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`: the data generator is stream 0, client
    /// `c` is stream `c + 1`, the probe is stream `CLIENTS + 1`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Which client owns which key. Keys come in blocks of `BANDS`
/// consecutive ids (one per band); blocks alternate between the two
/// clients, so both write every band window and every shard range. The
/// last block of each shard range belongs to the traced run's probe.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub rows: i64,
}

impl Layout {
    pub fn new(rows: i64) -> Layout {
        let blocks_per_shard = rows / BANDS / SHARDS;
        assert!(
            rows % (BANDS * SHARDS) == 0 && blocks_per_shard >= 2 && blocks_per_shard % 2 == 0,
            "row count must split into an even number of blocks per shard"
        );
        Layout { rows }
    }

    fn shard_span(&self) -> i64 {
        self.rows / SHARDS
    }

    fn is_probe_block(&self, block: i64) -> bool {
        let per_shard = self.shard_span() / BANDS;
        block % per_shard == per_shard - 1
    }

    /// The client owning `id`, or `None` for probe rows.
    pub fn owner(&self, id: i64) -> Option<usize> {
        let block = id / BANDS;
        (!self.is_probe_block(block)).then_some((block % 2) as usize)
    }

    pub fn owned_by(&self, client: usize) -> Vec<i64> {
        (0..self.rows)
            .filter(|&id| self.owner(id) == Some(client))
            .collect()
    }

    /// One probe row per shard range, in band `band`.
    pub fn probe_rows(&self, band: i64) -> Vec<i64> {
        (1..=SHARDS)
            .map(|s| s * self.shard_span() - BANDS + band)
            .collect()
    }

    /// The durable engine's split points: `SHARDS` equal id ranges.
    pub fn split_keys(&self) -> Vec<Row> {
        (1..SHARDS).map(|s| key(s * self.shard_span())).collect()
    }

    /// The same block position `hop` shard ranges further on: same
    /// owner (the hop is an even number of blocks), another shard.
    pub fn peer_in_other_shard(&self, id: i64, hop: i64) -> i64 {
        (id + hop * self.shard_span()) % self.rows
    }
}

/// The seeded initial rows.
pub fn seed_rows(layout: Layout, seed: u64) -> Vec<Row> {
    let mut rng = Rng::new(seed, 0);
    (0..layout.rows)
        .map(|id| {
            let val = 1000 + rng.below(1000) as i64;
            let tag = format!("s{:04x}", rng.below(0x1_0000));
            row![id, id % BANDS, val, tag]
        })
        .collect()
}

pub fn seed_db(layout: Layout, seed: u64) -> Database {
    let table = Table::from_rows(schema(), seed_rows(layout, seed)).expect("valid rows");
    let mut db = Database::new();
    db.create_table(TABLE, table).expect("fresh database");
    db
}

/// `sum(val)` over the clients' rows: transfers move value between them
/// but never create or destroy it. Probe rows are left out, since the
/// traced run's probe rewrites their `val`.
pub fn val_sum(layout: Layout, table: &Table) -> i64 {
    table
        .rows()
        .filter(|r| r[0].as_int().and_then(|id| layout.owner(id)).is_some())
        .filter_map(|r| r[2].as_int())
        .sum()
}

/// What one client believes its rows hold: the seed values overwritten
/// by every write the engine acknowledged. A row whose write failed is
/// uncertain and leaves the comparison.
#[derive(Debug, Clone)]
pub struct Model {
    pub rows: BTreeMap<i64, Row>,
    pub uncertain: Vec<i64>,
}

impl Model {
    pub fn new(layout: Layout, seed: u64, client: usize) -> Model {
        let rows = seed_rows(layout, seed)
            .into_iter()
            .filter(|r| r[0].as_int().and_then(|id| layout.owner(id)) == Some(client))
            .map(|r| (r[0].as_int().expect("int id"), r))
            .collect();
        Model {
            rows,
            uncertain: Vec::new(),
        }
    }

    pub fn row(&self, id: i64) -> Row {
        self.rows[&id].clone()
    }

    pub fn with_val(&self, id: i64, val: i64) -> Row {
        let mut r = self.row(id);
        r[2] = Value::Int(val);
        r
    }

    pub fn with_tag(&self, id: i64, tag: String) -> Row {
        let mut r = self.row(id);
        r[3] = Value::Str(tag);
        r
    }

    pub fn ack(&mut self, row: Row) {
        let id = row[0].as_int().expect("int id");
        self.rows.insert(id, row);
    }
}

/// Compare the final base table against every client's model: each
/// client row holds the last value its writer had acknowledged, and no
/// row went missing. Returns the number of mismatches.
pub fn rows_mismatched(layout: Layout, models: &[&Model], table: &Table) -> usize {
    let mut bad = 0;
    for id in 0..layout.rows {
        let Some(owner) = layout.owner(id) else {
            continue;
        };
        let model = models[owner];
        if model.uncertain.contains(&id) {
            continue;
        }
        if table.get_by_key(&key(id)) != Some(&model.rows[&id]) {
            bad += 1;
        }
    }
    if table.len() as i64 != layout.rows {
        bad += 1;
    }
    bad
}
