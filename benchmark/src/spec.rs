//! The benchmark's metrics, declared once: name, unit, direction, and —
//! for the end-to-end ones — the regression bound. `BENCHMARK.json`
//! carries the same declarations for the driver; a crate test keeps the
//! two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric declaration.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median the metric may worsen by before a
    /// change is refused. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// A count that two runs of one commit with one seed must reproduce
    /// exactly (`agree` refuses any difference).
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
///
/// Bounds are what this shared 2-core container can resolve. Its speed
/// drifts by 10–20% over minutes (a fixed single-threaded kernel's
/// per-second median moves between 7.7 and 14.8 ms with nothing else
/// running), so ten runs of one commit spread by 5–15% on every timing
/// metric whatever the estimator; a tighter bound would refuse innocent
/// changes. `accuracy_at_k` is exact for a given seed but moves a few
/// percent with the seed's predicates, and its bound has to cover that.
pub const END_TO_END: [Metric; 6] = [
    gated("recommend_p50_ms", "ms", Lower, 0.25),
    gated("recommend_p90_ms", "ms", Lower, 0.25),
    gated("recommend_per_s", "1/s", Higher, 0.25),
    Metric {
        exact: true,
        ..gated("accuracy_at_k", "share", Higher, 0.20)
    },
    gated("peak_rss_mb", "MB", Lower, 0.25),
    gated("setup_s", "s", Lower, 0.25),
];

/// One row per layer boundary, layers named after their crates. Reported
/// by the traced run only; no bounds.
pub const PER_LAYER: [Metric; 62] = [
    // What the timing metrics above were computed from.
    layer("recommend_samples", "count", Higher),
    layer("recommend_tail_percentile", "share", Higher),
    layer("recommend_p99_ms", "ms", Lower),
    layer("ingest_p50_ms", "ms", Lower),
    layer("ingest_samples", "count", Higher),
    layer("client.connect_failures", "count", Lower),
    layer("client.max_send_gap_ms", "ms", Lower),
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    // data, storage
    layer("data.generate_s", "s", Lower),
    layer("storage.scan_ns_per_row_col", "ns", Lower),
    layer("storage.build_rows_per_s", "1/s", Higher),
    // engine
    layer("engine.predicate_ns_per_row", "ns", Lower),
    layer("engine.agg_ns_per_row_agg", "ns", Lower),
    layer("engine.agg_scalar_ns_per_row_agg", "ns", Lower),
    layer("engine.naive_sum_ns_per_row_agg", "ns", Lower),
    layer("engine.morsels_ms", "ms", Lower),
    layer("engine.rollup_us", "us", Lower),
    layer("engine.zone_prune_us", "us", Lower),
    count("engine.partitions_pruned_share", "share", Higher),
    // metrics
    layer("metrics.distance_ns_per_view", "ns", Lower),
    // core
    layer("core.plan_us", "us", Lower),
    layer("core.enumerate_views_us", "us", Lower),
    layer("core.signature_us", "us", Lower),
    layer("core.recommend_wall_ms", "ms", Lower),
    layer("core.phase_sum_us", "us", Lower),
    layer("core.phase_max_us", "us", Lower),
    count("core.phases_executed", "count", Lower),
    layer("core.overhead_ms", "ms", Lower),
    layer("core.pruner_decide_us", "us", Lower),
    count("core.rows_scanned_share", "share", Lower),
    count("core.utility_distance", "utility", Lower),
    // sql, util
    layer("sql.parse_plan_us", "us", Lower),
    layer("util.json_parse_us_per_kb", "us", Lower),
    layer("util.json_parse_16kb_us", "us", Lower),
    layer("util.json_parse_64kb_us", "us", Lower),
    layer("util.json_parse_256kb_us", "us", Lower),
    layer("util.json_render_us", "us", Lower),
    // server, probed in process and over a socket
    layer("server.handle_hit_us", "us", Lower),
    layer("server.handle_partial_us", "us", Lower),
    layer("server.handle_miss_us", "us", Lower),
    layer("server.http_io_us", "us", Lower),
    layer("server.csv_parse_ms", "ms", Lower),
    layer("server.ingest_ms", "ms", Lower),
    // server, /statz deltas over the passes
    layer("server.cache_response_hits", "count", Higher),
    layer("server.cache_response_partials", "count", Higher),
    layer("server.cache_response_misses", "count", Lower),
    layer("server.cache_hit_rate", "share", Higher),
    layer("server.cache_evictions", "count", Lower),
    layer("server.cache_bytes", "bytes", Lower),
    layer("server.admission_wait_p50_us", "us", Lower),
    layer("server.sheds", "count", Lower),
    // server, the daemon's own flight recorder
    layer("server.stage_http_read_us", "us", Lower),
    layer("server.stage_queue_wait_us", "us", Lower),
    layer("server.stage_catalog_us", "us", Lower),
    layer("server.stage_cache_probe_us", "us", Lower),
    layer("server.stage_plan_us", "us", Lower),
    layer("server.stage_admission_us", "us", Lower),
    layer("server.stage_phase_us", "us", Lower),
    layer("server.stage_cache_deposit_us", "us", Lower),
    layer("server.stage_response_write_us", "us", Lower),
    // the benchmark's own spans in the traced pass
    layer("bench.call_self_us", "us", Lower),
    layer("bench.check_self_us", "us", Lower),
];

/// The declaration of `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The driver's rules for names and units.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn declarations_follow_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(metric.unit), "{}", metric.unit);
            names.push(metric.name);
        }
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for metric in END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
