//! The names the benchmark is made of: workloads, end-to-end metrics
//! with their bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root lists the same names; a unit test holds the two
//! together.

/// `(name, why it exists)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "onboard_noshed",
        "2000 interleaved setups under a 4096-slot table: >=98% of verdicts come from the idle-gap detector, so scan, extract, sessionize, stage 1/2, vuln lookup and rule install all do real work",
    ),
    (
        "onboard_shed",
        "the same setups 13x denser under a 512-slot table: the session table churns under LRU eviction and assessment does almost nothing, so a stage-1/2 change must show no change here",
    ),
    (
        "iotssp_confusable",
        "2000 fingerprints from the Table III confusable families only: stage-2 discrimination runs on most items and stream/netproto do nothing, so an ingest change must show no change here",
    ),
    (
        "enforce_steady",
        "the data plane of Tables V-VI: onboarded devices' traffic replayed 4x through Packet::parse + enforce (12% packet-in), the only workload with the owning decoder on the hot path",
    ),
    (
        "fleet_presynth",
        "1000 homes x 4 devices with frames built before the clock: pooled deferred ingest, 512-row fleet-wide assessment with the verdict cache on, per-home install - gateway cost without simulator cost",
    ),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(known, _)| *known == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these. What a unit of work and
/// a latency sample are differs per workload (see `README.md`); the
/// workload-specific names (`frames_per_s`, `verdict_latency_us_p50`,
/// …) are printed as aliases of these.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_us_p95",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "resident_bytes_per_unit",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// Bound `--compare` applies to `name`: the table's for the timed
/// metrics (and their aliases), zero for everything counted.
pub fn bound_of(name: &str) -> f64 {
    let timed = match name {
        "frames_per_s" | "onboardings_per_s" | "enforced_packets_per_s" => "throughput_per_s",
        "verdict_latency_us_p50" => "latency_us_p50",
        "verdict_latency_us_p95" => "latency_us_p95",
        "setup_s" | "throughput_per_s" | "latency_us_p50" | "latency_us_p95" => name,
        // Counted for a given seed, so it must repeat exactly.
        _ => return 0.0,
    };
    END_TO_END
        .iter()
        .find(|m| m.name == timed)
        .map_or(0.0, |m| m.bound)
}

/// Whether a larger value of the end-to-end metric `name` is better.
pub fn higher_is_better(name: &str) -> bool {
    name.ends_with("_per_s") || name == "correct_type_share"
}

/// `(name, unit, better)`. With `--trace 1` a workload reports every
/// one of these; a layer that is not on the workload's path reads 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("netproto.scan_ns_per_frame", "ns", Better::Lower),
    ("netproto.scan_ns_per_frame_p99", "ns", Better::Lower),
    ("netproto.scan_fallback_share", "share", Better::Lower),
    ("netproto.decode_ns_per_packet", "ns", Better::Lower),
    ("fingerprint.extract_ns_per_frame", "ns", Better::Lower),
    ("fingerprint.finalize_ns_per_session", "ns", Better::Lower),
    ("stream.ingest_ns_per_frame", "ns", Better::Lower),
    ("stream.ingest_ns_per_frame_p99", "ns", Better::Lower),
    ("stream.sessionize_ns_per_frame", "ns", Better::Lower),
    ("stream.call_overhead_ns", "ns", Better::Lower),
    ("stream.sessions_opened_per_device", "count", Better::Lower),
    ("stream.shed_share", "share", Better::Lower),
    ("stream.detector_share", "share", Better::Higher),
    ("stream.flush_share", "share", Better::Lower),
    ("stream.devices_without_rule_share", "share", Better::Lower),
    ("stream.peak_resident_sessions", "count", Better::Lower),
    ("stream.allocs_per_frame", "count", Better::Lower),
    ("stream.alloc_bytes_per_frame", "bytes", Better::Lower),
    ("stream.verdict_latency_us_p99", "us", Better::Lower),
    ("stream.verdict_latency_us_p999", "us", Better::Lower),
    ("stream.residual_share", "share", Better::Lower),
    ("trace_overhead_share", "share", Better::Lower),
    ("core.assess_us_per_onboarding", "us", Better::Lower),
    ("core.assess_us_per_onboarding_p99", "us", Better::Lower),
    ("core.assess_rows_per_batch", "count", Better::Higher),
    ("core.stage1_us_per_onboarding", "us", Better::Lower),
    ("ml.forest_walk_ns_per_row", "ns", Better::Lower),
    ("core.stage2_us_per_onboarding", "us", Better::Lower),
    ("core.discriminated_share", "share", Better::Lower),
    ("core.candidates_per_item", "count", Better::Lower),
    ("core.vulndb_ns_per_onboarding", "ns", Better::Lower),
    ("core.verdict_cache_hit_ratio", "ratio", Better::Higher),
    ("core.correct_type_share", "share", Better::Higher),
    ("core.train_ms", "ms", Better::Lower),
    ("snapshot.encode_ms", "ms", Better::Lower),
    ("snapshot.decode_ms", "ms", Better::Lower),
    ("snapshot.bytes", "bytes", Better::Lower),
    ("sdn.install_ns_per_rule", "ns", Better::Lower),
    ("sdn.switch_ns_per_packet", "ns", Better::Lower),
    ("sdn.switch_ns_per_packet_p99", "ns", Better::Lower),
    ("sdn.flow_lookup_ns", "ns", Better::Lower),
    ("sdn.rule_cache_lookup_ns", "ns", Better::Lower),
    ("sdn.packet_in_share", "share", Better::Lower),
    ("sdn.drop_share", "share", Better::Lower),
    ("sdn.rule_cache_hit_ratio", "ratio", Better::Higher),
    ("sdn.flows_resident", "count", Better::Lower),
    ("fleet.ingest_us_per_home", "us", Better::Lower),
    ("fleet.reset_ns_per_home", "ns", Better::Lower),
    ("fleet.settle_us_per_home", "us", Better::Lower),
    ("fleet.run_fleet_homes_per_s", "homes/s", Better::Higher),
    ("fleet.synthesis_share", "share", Better::Lower),
    ("devicesim.synthesis_s", "s", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<String> {
        match list {
            Json::Arr(items) => items
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect(),
            _ => panic!("expected a list"),
        }
    }

    #[test]
    fn manifest_lists_the_same_workloads_and_metrics() {
        let manifest = manifest();
        let workloads = manifest.get("workloads").unwrap();
        assert_eq!(
            names(workloads),
            WORKLOADS
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        );
        let Json::Arr(listed) = workloads else {
            panic!()
        };
        for (entry, (_, why)) in listed.iter().zip(WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        let Json::Arr(e2e) = manifest.get("end_to_end").unwrap() else {
            panic!()
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, metric) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(metric.better.as_str())
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(metric.bound)
            );
            assert!(metric.bound <= 0.25);
        }

        let Json::Arr(layers) = manifest.get("per_layer").unwrap() else {
            panic!()
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used once");
    }

    #[test]
    fn compare_bounds_follow_the_table() {
        assert_eq!(bound_of("throughput_per_s"), bound_of("frames_per_s"));
        assert_eq!(
            bound_of("verdict_latency_us_p95"),
            bound_of("latency_us_p95")
        );
        assert_eq!(bound_of("resident_bytes_per_session"), 0.0);
        assert_eq!(bound_of("correct_type_share"), 0.0);
        assert_eq!(bound_of("failed_share"), 0.0);
        assert!(higher_is_better("onboardings_per_s"));
        assert!(!higher_is_better("latency_us_p50"));
    }
}
