//! Prometheus-style text exposition for [`TelemetrySnapshot`]s.
//!
//! The renderer emits the classic `# TYPE` / `# HELP` framed families:
//! one `histogram` family per populated [`Phase`] (cumulative `_bucket`
//! lines with `le` labels from the log-bucket upper bounds, plus
//! `_sum`/`_count`), gauge-style quantile convenience lines, one
//! `gauge` family per named gauge, and the slow threshold as a comment
//! at the tail. Slow requests are traces, not samples: read them
//! through `TRACE` ([`crate::TraceReport`]).

use crate::histogram::bucket_bounds;
use crate::telemetry::TelemetrySnapshot;

/// Render a snapshot as Prometheus-style exposition text under the
/// metric prefix `prefix` (e.g. `esm`).
pub fn render_prometheus(prefix: &str, snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (phase, hist) in &snap.phases {
        let family = format!("{prefix}_{}_ns", phase.name());
        out.push_str(&format!(
            "# HELP {family} latency of the {} phase in nanoseconds\n",
            phase.name()
        ));
        out.push_str(&format!("# TYPE {family} histogram\n"));
        let mut cumulative = 0u64;
        for &(i, n) in &hist.bins {
            cumulative += n;
            let (_, hi) = bucket_bounds(i as usize);
            out.push_str(&format!("{family}_bucket{{le=\"{hi}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{family}_bucket{{le=\"+Inf\"}} {}\n", hist.count));
        out.push_str(&format!("{family}_sum {}\n", hist.sum));
        out.push_str(&format!("{family}_count {}\n", hist.count));
        for (q, v) in [
            ("0.5", hist.p50()),
            ("0.95", hist.p95()),
            ("0.99", hist.p99()),
        ] {
            out.push_str(&format!("{family}_quantile{{q=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{family}_max {}\n", hist.max));
    }
    for (name, value) in &snap.gauges {
        let family = format!("{prefix}_{name}");
        out.push_str(&format!("# TYPE {family} gauge\n"));
        out.push_str(&format!("{family} {value}\n"));
    }
    out.push_str(&format!(
        "# slow threshold {} ns (slow requests: the TRACE slow ring)\n",
        snap.slow_threshold_ns
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Phase, Telemetry};

    #[test]
    fn exposition_has_families_and_buckets() {
        let tel = Telemetry::new();
        tel.record(Phase::CommitFsync, 100);
        tel.record(Phase::CommitFsync, 200_000);
        let text = render_prometheus("esm", &tel.snapshot());
        assert!(text.contains("# TYPE esm_commit_fsync_ns histogram"));
        assert!(text.contains("esm_commit_fsync_ns_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("esm_commit_fsync_ns_quantile{q=\"0.99\"}"));
        // Cumulative bucket counts never regress.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.contains("_bucket{le=\"") && !l.contains("+Inf"))
        {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last);
            last = n;
        }
    }

    #[test]
    fn gauges_render_as_gauge_families() {
        let mut snap = Telemetry::new().snapshot();
        snap.set_gauge("repl_lag_records", 7);
        let text = render_prometheus("esm", &snap);
        assert!(text.contains("# TYPE esm_repl_lag_records gauge"));
        assert!(text.contains("esm_repl_lag_records 7"));
    }

    #[test]
    fn empty_snapshot_renders_only_the_slow_header() {
        let text = render_prometheus("esm", &Telemetry::new().snapshot());
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("# slow threshold 10000000 ns"));
    }
}
