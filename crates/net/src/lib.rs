//! # `esm-net` — entangled views over a wire.
//!
//! The paper's entangled state monads are client handles onto shared
//! hidden state; this crate puts a socket between the handle and the
//! state. One [`NetServer`] fronts any [`esm_engine::Engine`] (the
//! engine, [`esm_engine::ShardedEngineServer`], on one shard or many,
//! or a read replica) and multiplexes many client connections onto it;
//! [`RemoteEngine`] implements the same `Engine`
//! trait on the client side, so an [`esm_engine::EntangledView`] is
//! **host-location-oblivious** — the code (and the conformance suite)
//! that runs in-process runs unchanged across the wire.
//!
//! ```text
//!  client process                      server process
//! ┌────────────────────┐   frames    ┌─────────────────────────────┐
//! │ EntangledView      │  [len|crc|  │ NetServer                   │
//! │   └ RemoteEngine ──┼──payload]──▶│  ├ poller (non-blocking     │
//! │ Session            │◀────────────┼──┤   readiness loop)        │
//! └────────────────────┘             │  ├ worker pool ── Session   │
//!        × thousands                 │  │   per connection         │
//!                                    │  └ Arc<dyn Engine>          │
//!                                    │     ├ ShardedEngineServer   │
//!                                    │     │   (1..N shards)       │
//!                                    │     └ ReplicaEngine         │
//!                                    └─────────────────────────────┘
//! ```
//!
//! * [`frame`] — length-prefixed, CRC32-checked frames; torn prefixes
//!   wait, bit rot refuses (the WAL segments' discipline, on a socket).
//! * [`proto`] — binary requests and responses for the full `Engine`
//!   surface, built on [`esm_store::codec`]; view definitions,
//!   predicates, metrics, telemetry, traces and errors serialize
//!   structurally, with one encoding each.
//! * [`poll`] — the readiness source: raw `epoll` on Linux (the server
//!   parks in the kernel and touches only ready connections), an
//!   interruptible-sleep full-sweep fallback elsewhere, one API.
//! * [`server`] — the readiness-driven, thread-pooled front end; one
//!   [`esm_engine::Session`] per connection.
//! * [`client`] — [`RemoteEngine`]; client-driven optimistic loops
//!   (window-delta edits and delta transactions, both pre-image
//!   validated) replace the closures that cannot cross the wire. Plus
//!   [`SubscriptionClient`] for the push side of the protocol.
//!
//! ## Real-time subscriptions: subscribe → commit → drain → push
//!
//! Protocol rev 3 adds a push channel on the same socket. A client
//! sends `SUBSCRIBE view [cursor]` and gets back `SUBACK cursor` — the
//! engine commit stamp the subscription starts from — followed (for
//! a from-now subscription) by an initial `PUSH` carrying the view's
//! full current window. From then on, whenever a commit settles, the
//! server drains the view's committed deltas past the subscriber's
//! cursor ([`esm_engine::Engine::view_deltas_since`], O(changes) in the
//! commit, not O(view), on any shard count) and pushes one coalesced
//! `PUSH` frame: `(from_seq, to_seq, delta)` or, when the engine cannot
//! reconstruct the gap (cursor fell out of the WAL window or predates a
//! split/merge, lens rebuild), a full-window `resync`. Applying frames in
//! arrival order — [`client::PushEvent::apply`] — reproduces the
//! server-side view; re-delivered deltas apply idempotently.
//!
//! Slow subscribers get backpressure, not queues: a connection whose
//! buffered output crosses its high-water mark has its cursor frozen
//! (nothing accumulates on its behalf), and on resume its subscription
//! resyncs. A stalled subscriber never delays a commit or another
//! subscriber's push.
//!
//! Protocol rev 4 adds WAL-shipping replication on the same socket:
//! `repl_manifest` / `repl_fetch` expose a durable engine's segment
//! and checkpoint files (its [`esm_engine::WalSource`]), so a
//! [`RemoteWalSource`] can feed an [`esm_engine::ReplicaEngine`] that
//! has never shared a disk with its primary. Replicas reject writes
//! with a `not_primary` error carrying the primary's advertised
//! address; [`RemoteEngine::follow_redirect`] turns that into a
//! reconnect.
//!
//! Protocol rev 5 is binary only: every request and response, nested
//! structures included, has exactly one encoding, and a payload that
//! does not start with [`proto::BINARY_WIRE_MAGIC`] is refused with an
//! error response. Decoders bound every count by the bytes that follow
//! it, so no frame can make a peer allocate more than it sent.
//!
//! Protocol rev 6 replaces the whole-database `snapshot` with
//! `snapshot_since(mark)`: a process keeps one copy of each server's
//! database, shared by every [`RemoteEngine`] connected to it, and
//! catches it up with the base-table deltas committed since, so a remote
//! transaction ships what changed since the process last asked, not the
//! database.
//!
//! Protocol rev 7 replaces the whole-window `edit_view_cas` with
//! `edit_view_delta`: a view edit ships the window delta it made, and
//! the server checks and commits it key by key, so an edit's request
//! costs its delta, not its window.
//!
//! Protocol rev 8 deletes `write_view`: a put runs the same edit loop
//! client-side, with the edit "replace the window", so it ships the
//! window delta where it used to ship the window, and no server worker
//! retries a put on a client's behalf.

#![warn(missing_docs)]
// Unsafe is confined to the raw epoll FFI in `poll` (no libc crate);
// everything else remains forbidden in practice via this deny.
#![deny(unsafe_code)]

mod cache;
pub mod client;
pub mod frame;
pub mod poll;
pub mod proto;
pub mod server;

pub use client::{redirect_addr, PushEvent, RemoteEngine, RemoteWalSource, SubscriptionClient};
pub use frame::{decode_frame, encode_frame, FrameError, MAX_FRAME_BYTES};
pub use proto::{Request, Response, SnapshotMark, WireError, PROTOCOL_REV};
pub use server::{NetServer, NetServerConfig, NetStats};
