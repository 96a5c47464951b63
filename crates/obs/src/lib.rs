//! # esm-obs — zero-dependency observability primitives
//!
//! The telemetry layer the engines thread through their hot paths,
//! with nothing below it but `std`:
//!
//! * [`Histogram`] — a lock-free log-bucketed latency histogram
//!   (relaxed atomic bins, wait-free recording) whose
//!   [`HistogramSnapshot`]s merge associatively and estimate
//!   p50/p95/p99/max within a proven ≤25% relative error bound.
//! * [`Telemetry`] — a registry of one histogram per [`Phase`] (the
//!   closed set of instrumented commit/2PC/view/net/replication stages)
//!   plus the trace store its requests file into.
//! * [`PhaseGuard`] — the one recorder: an RAII guard per timed region
//!   ([`Telemetry::start`]) that records the phase histogram when it
//!   drops and, inside a trace, files a span under the phase's name.
//! * [`trace`] — **causal commit tracing**: per-request span trees
//!   ([`TraceId`] → [`SpanRecord`]s in a [`TraceSink`], carried by a
//!   thread-local context, filed into bounded [`TraceBuffer`] rings).
//!   Head sampling at a configurable 1-in-N rate plus tail capture of
//!   any trace crossing the slow threshold, rendered as a causally
//!   indented tree ([`render_trace`]). Untraced requests pay one
//!   thread-local read.
//! * [`render_prometheus`] — text exposition of a
//!   [`TelemetrySnapshot`] for scrapers and humans.
//!
//! The layering is recorder → registry → exposition: call sites hold
//! an `Arc<Telemetry>` and open [`PhaseGuard`]s (a [`trace::span`] for
//! the few trace-only stages); readers take [`TelemetrySnapshot`]s and
//! [`TraceReport`]s (cheap, non-draining, mergeable) and render or
//! ship them — the esm-net `STATS` and `TRACE` verbs serialize exactly
//! these types over the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expo;
mod histogram;
mod telemetry;
pub mod trace;

pub use expo::render_prometheus;
pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BINS};
pub use telemetry::{
    Phase, PhaseGuard, Telemetry, TelemetryConfig, TelemetrySnapshot, DEFAULT_SLOW_THRESHOLD_NS,
};
pub use trace::{
    render_trace, ActiveTrace, SpanGuard, SpanRecord, TraceBuffer, TraceId, TraceRecord,
    TraceReport, TraceRoot, TraceSink, TraceStore, DEFAULT_TRACE_SAMPLE_EVERY,
    TRACE_BUFFER_CAPACITY,
};
