//! Summaries: exact percentiles of recorded latencies, window diffs of
//! the engine's and server's public counters and phase histograms.

use esm_engine::{MetricsSnapshot, Phase, TelemetrySnapshot};
use esm_obs::HistogramSnapshot;

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile in milliseconds (nearest rank), or `None` when
    /// nothing was recorded.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1] as f64 / 1e6)
    }

    pub fn median_ms(&self) -> Option<f64> {
        self.quantile_ms(0.5)
    }
}

pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

pub fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `after - before`, bin by bin: the samples recorded in between.
fn hist_diff(after: &HistogramSnapshot, before: Option<&HistogramSnapshot>) -> HistogramSnapshot {
    let Some(before) = before else {
        return after.clone();
    };
    let bins = after
        .bins
        .iter()
        .filter_map(|&(i, n)| {
            let old = before
                .bins
                .iter()
                .find(|(j, _)| *j == i)
                .map_or(0, |(_, m)| *m);
            (n > old).then_some((i, n - old))
        })
        .collect();
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.wrapping_sub(before.sum),
        max: after.max,
        bins,
    }
}

/// The phase samples recorded between two snapshots of one registry.
pub fn telemetry_diff(after: &TelemetrySnapshot, before: &TelemetrySnapshot) -> TelemetrySnapshot {
    let phases = after
        .phases
        .iter()
        .map(|(p, h)| (*p, hist_diff(h, before.phase(*p))))
        .filter(|(_, h)| h.count > 0)
        .collect();
    TelemetrySnapshot {
        phases,
        ..TelemetrySnapshot::default()
    }
}

/// Median of one phase in milliseconds, when it recorded anything.
pub fn phase_p50_ms(t: &TelemetrySnapshot, phase: Phase) -> Option<f64> {
    t.phase(phase)
        .filter(|h| h.count > 0)
        .map(|h| h.p50() as f64 / 1e6)
}

/// The engine counters the per-layer metrics read, as window sums.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub commits: u64,
    pub retries: u64,
    pub conflicts: u64,
    pub materialized_reads: u64,
    pub deltas_applied: u64,
    pub rebuilds: u64,
    pub wal_appends: u64,
    pub wal_syncs: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
}

impl Counters {
    pub fn of(m: &MetricsSnapshot) -> Counters {
        Counters {
            commits: m.commits,
            retries: m.retries,
            conflicts: m.conflicts,
            materialized_reads: m.view.materialized_reads,
            deltas_applied: m.view.deltas_applied,
            rebuilds: m.view.rebuilds,
            wal_appends: m.wal.appends,
            wal_syncs: m.wal.syncs,
            wal_bytes: m.wal.bytes_written,
            checkpoints: m.wal.checkpoints,
        }
    }

    /// `self += after - before`.
    pub fn add_diff(&mut self, after: &Counters, before: &Counters) {
        self.commits += after.commits.saturating_sub(before.commits);
        self.retries += after.retries.saturating_sub(before.retries);
        self.conflicts += after.conflicts.saturating_sub(before.conflicts);
        self.materialized_reads += after
            .materialized_reads
            .saturating_sub(before.materialized_reads);
        self.deltas_applied += after.deltas_applied.saturating_sub(before.deltas_applied);
        self.rebuilds += after.rebuilds.saturating_sub(before.rebuilds);
        self.wal_appends += after.wal_appends.saturating_sub(before.wal_appends);
        self.wal_syncs += after.wal_syncs.saturating_sub(before.wal_syncs);
        self.wal_bytes += after.wal_bytes.saturating_sub(before.wal_bytes);
        self.checkpoints += after.checkpoints.saturating_sub(before.checkpoints);
    }
}

/// `num / den`, or `None` when nothing was counted.
pub fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// CPU time this process has used, all threads (live and exited), in
/// seconds: `utime + stime` of `/proc/self/stat`, in USER_HZ (100) ticks.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set of this process (`VmHWM`) in MiB, or `None` when
/// `/proc/self/status` does not give it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}
