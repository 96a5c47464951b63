//! # Entangled State Monads
//!
//! Facade crate re-exporting the whole workspace: a Rust implementation of
//! *"Entangled State Monads"* (Cheney, McKinna, Stevens, Gibbons,
//! Abou-Saleh; BX 2014) — a monadic treatment of symmetric state-based
//! bidirectional transformations (bx).
//!
//! A bx maintains consistency between two information sources. The paper's
//! insight: a monad that carries the structure of a *state monad in two
//! entangled ways* — `get`/`set` on an `A` view and on a `B` view of some
//! shared hidden state — *is* a bidirectional transformation, and the
//! classical formalisms (asymmetric lenses, symmetric lenses, algebraic bx)
//! are all instances.
//!
//! ## Crate map
//!
//! - [`monad`] — the monadic substrate ([`monad::MonadFamily`], state,
//!   writer, nondeterminism, probability, `StateT`, simulated IO).
//! - [`core`] — the paper's contribution: set-bx and put-bx, their
//!   equivalence, entanglement, composition, effectful bx.
//! - [`lens`] — asymmetric lenses and their embedding (Lemma 4).
//! - [`algebraic`] — Stevens-style algebraic bx (Lemma 5).
//! - [`symmetric`] — Hofmann–Pierce–Wagner symmetric lenses (Lemma 6).
//! - [`store`] — an in-memory relational database substrate (tables,
//!   predicates, deltas, secondary indexes).
//! - [`relational`] — relational lenses over [`store`] (select / project /
//!   join views as bx).
//! - [`engine`] — the concurrent, transactional bidirectional database
//!   engine: snapshot-isolated transactions with first-committer-wins, a
//!   write-ahead log with replay/recovery, and key-range shards (one by
//!   default) where many clients hold entangled views over shared base
//!   tables — all behind one [`engine::Engine`] trait with per-client
//!   [`engine::Session`]s.
//! - [`net`] — the network front end: a CRC-framed wire protocol for the
//!   whole `Engine` surface, a thread-pooled non-blocking socket server
//!   multiplexing many clients onto one engine, and a
//!   [`net::RemoteEngine`] client so entangled views work across
//!   processes unchanged.
//! - [`modelsync`] — a model-driven-engineering substrate: class models ↔
//!   relational schemas as a symmetric lens with complement.
//! - [`lawcheck`] — executable law checking for every law in the paper.
//!
//! ## Quickstart
//!
//! ```
//! use esm::core::state::{SbxOps, BxSession};
//! use esm::lens::{Lens, AsymBx};
//!
//! // An asymmetric lens from a (name, age) record onto its age...
//! let l: Lens<(String, u32), u32> =
//!     Lens::new(|s: &(String, u32)| s.1, |mut s: (String, u32), v| { s.0 = s.0; s.1 = v; s });
//! // ...becomes a set-bx between whole records and ages (Lemma 4).
//! let bx = AsymBx::new(l);
//! let mut session = BxSession::new(("ada".to_string(), 36), bx);
//! assert_eq!(session.b(), 36);
//! session.set_b(37);
//! assert_eq!(session.a(), ("ada".to_string(), 37));
//! ```
//!
//! ## Quickstart: the concurrent engine
//!
//! The same idea at database scale — entangled views served
//! transactionally to many clients (see [`engine`] for the architecture:
//! transaction lifecycle, WAL format, index maintenance):
//!
//! ```
//! use esm::engine::EngineServer;
//! use esm::relational::ViewDef;
//! use esm::store::{row, Database, Operand, Predicate, Schema, Table, ValueType};
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
//! let engine = EngineServer::new(db.clone()); // Clone the handle into any thread.
//! let research = engine.define_view(
//!     "research", "staff",
//!     &ViewDef::base().select(Predicate::eq(Operand::col("dept"), Operand::val("research"))),
//! ).unwrap();
//! let delta = research.edit(|v| Ok(v.upsert(row![3, "research"]).map(|_| ())?)).unwrap();
//! assert_eq!(delta.inserted.len(), 1);                  // what the write did
//! assert_eq!(engine.shard_wals()[0].replay(&db).unwrap(), engine.snapshot()); // WAL law
//! ```

pub use esm_algebraic as algebraic;
pub use esm_core as core;
pub use esm_engine as engine;
pub use esm_lawcheck as lawcheck;
pub use esm_lens as lens;
pub use esm_modelsync as modelsync;
pub use esm_monad as monad;
pub use esm_net as net;
pub use esm_obs as obs;
pub use esm_relational as relational;
pub use esm_store as store;
pub use esm_symmetric as symmetric;
