//! The enforcement-overhead experiments (Tables V–VI, Fig. 6): latency
//! per device pair, CPU versus concurrent flows, memory versus cached
//! rules.

use std::time::Duration;

use sentinel_netproto::MacAddr;
use sentinel_sdn::netem::GatewayEmulator;
use sentinel_sdn::stats::Summary;
use sentinel_sdn::topology::Topology;
use sentinel_sdn::{EnforcementModule, EnforcementRule};

/// One Table V row: a source/destination pair measured with and without
/// filtering.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Source host name.
    pub source: String,
    /// Destination host name.
    pub destination: String,
    /// Latency with filtering (ms).
    pub filtering: Summary,
    /// Latency without filtering (ms).
    pub no_filtering: Summary,
}

impl LatencyRow {
    /// Filtering overhead in percent (Table VI presentation).
    pub fn overhead_percent(&self) -> f64 {
        self.filtering.percent_over(&self.no_filtering)
    }
}

/// `iterations` latency samples (ms) from lab host `source` to
/// `destination` under `flows` concurrent flows.
fn latency_ms(
    emulator: &mut GatewayEmulator,
    (source, destination): (&str, &str),
    filtering: bool,
    flows: usize,
    iterations: usize,
) -> Summary {
    let lab = Topology::lab();
    let src = lab.host(source).expect("lab host");
    let dst = lab.host(destination).expect("lab host");
    let path = lab.path_kind(src, dst);
    let samples: Vec<Duration> = (0..iterations)
        .map(|_| emulator.measure_latency(src, dst, path, filtering, flows))
        .collect();
    Summary::of_durations_ms(&samples)
}

/// Measures the Table V latency matrix on the Fig. 4 lab topology:
/// each wireless device to `D4`, `Slocal` and `Sremote`, `iterations`
/// pings per pair (paper: 15).
pub fn latency_table(iterations: usize, concurrent_flows: usize, seed: u64) -> Vec<LatencyRow> {
    let mut emulator = GatewayEmulator::new(seed);
    let mut rows = Vec::new();
    for source in ["D1", "D2", "D3"] {
        for destination in ["D4", "Slocal", "Sremote"] {
            let mut measure = |filtering| {
                let pair = (source, destination);
                latency_ms(&mut emulator, pair, filtering, concurrent_flows, iterations)
            };
            rows.push(LatencyRow {
                source: source.to_owned(),
                destination: destination.to_owned(),
                filtering: measure(true),
                no_filtering: measure(false),
            });
        }
    }
    rows
}

/// One point of the Fig. 6a/6b sweeps.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Concurrent flows at this point.
    pub flows: usize,
    /// Measurement with filtering.
    pub filtering: Summary,
    /// Measurement without filtering.
    pub no_filtering: Summary,
}

/// Fig. 6a: device-to-device latency versus concurrent flows.
pub fn latency_vs_flows(flow_points: &[usize], iterations: usize, seed: u64) -> Vec<LoadPoint> {
    let mut emulator = GatewayEmulator::new(seed);
    flow_points
        .iter()
        .map(|&flows| {
            let mut sample =
                |filtering| latency_ms(&mut emulator, ("D1", "D2"), filtering, flows, iterations);
            LoadPoint {
                flows,
                filtering: sample(true),
                no_filtering: sample(false),
            }
        })
        .collect()
}

/// Fig. 6b: gateway CPU utilization versus concurrent flows.
pub fn cpu_vs_flows(flow_points: &[usize], iterations: usize, seed: u64) -> Vec<LoadPoint> {
    let mut emulator = GatewayEmulator::new(seed);
    flow_points
        .iter()
        .map(|&flows| {
            let mut sample = |filtering: bool| {
                let samples: Vec<f64> = (0..iterations)
                    .map(|_| emulator.measure_cpu(flows, filtering))
                    .collect();
                Summary::of(&samples)
            };
            LoadPoint {
                flows,
                filtering: sample(true),
                no_filtering: sample(false),
            }
        })
        .collect()
}

/// One point of the Fig. 6c memory sweep.
#[derive(Debug, Clone)]
pub struct MemoryPoint {
    /// Enforcement rules cached.
    pub rules: usize,
    /// Gateway memory with filtering (MB).
    pub filtering_mb: f64,
    /// Gateway memory without filtering (MB).
    pub no_filtering_mb: f64,
    /// Actual bytes of the populated in-process rule cache (ground
    /// truth for the model's linearity).
    pub cache_bytes: usize,
}

/// Fig. 6c: memory consumption versus enforcement-rule count. Each point
/// actually populates the rule cache so the in-process footprint is
/// measured alongside the calibrated process-level model.
pub fn memory_vs_rules(rule_points: &[usize], seed: u64) -> Vec<MemoryPoint> {
    let mut emulator = GatewayEmulator::new(seed);
    rule_points
        .iter()
        .map(|&rules| {
            let mut module = EnforcementModule::new();
            for i in 0..rules {
                let mac = MacAddr::new([
                    0x02,
                    0xff,
                    (i >> 24) as u8,
                    (i >> 16) as u8,
                    (i >> 8) as u8,
                    i as u8,
                ]);
                module.install_rule(EnforcementRule::strict(mac));
            }
            MemoryPoint {
                rules,
                filtering_mb: emulator.measure_memory_mb(rules, true),
                no_filtering_mb: emulator.measure_memory_mb(rules, false),
                cache_bytes: module.cache().memory_bytes(),
            }
        })
        .collect()
}

/// Aggregate overheads for Table VI.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// D1–D2 latency overhead (%).
    pub d1d2_latency: f64,
    /// D1–D3 latency overhead (%).
    pub d1d3_latency: f64,
    /// CPU utilization overhead (percentage points→relative %).
    pub cpu: f64,
    /// Memory overhead (%).
    pub memory: f64,
}

/// Computes the Table VI overhead summary.
pub fn overhead(iterations: usize, seed: u64) -> OverheadReport {
    let mut emulator = GatewayEmulator::new(seed);
    let mut overhead = |pair| {
        let with = latency_ms(&mut emulator, pair, true, 20, iterations);
        with.percent_over(&latency_ms(&mut emulator, pair, false, 20, iterations))
    };
    let d1d2_latency = overhead(("D1", "D2"));
    let d1d3_latency = overhead(("D1", "D3"));
    let cpu_with = Summary::of(
        &(0..iterations)
            .map(|_| emulator.measure_cpu(50, true))
            .collect::<Vec<_>>(),
    );
    let cpu_without = Summary::of(
        &(0..iterations)
            .map(|_| emulator.measure_cpu(50, false))
            .collect::<Vec<_>>(),
    );
    // Memory overhead for a realistically sized home deployment
    // (~100 devices ⇒ ~100 rules).
    let mem_with = emulator.measure_memory_mb(100, true);
    let mem_without = emulator.measure_memory_mb(100, false);
    OverheadReport {
        d1d2_latency,
        d1d3_latency,
        cpu: cpu_with.percent_over(&cpu_without),
        memory: (mem_with - mem_without) / mem_without * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_table_has_nine_rows_with_small_overhead() {
        let rows = latency_table(15, 20, 7);
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(
                row.overhead_percent() < 15.0,
                "{}-{} overhead {}%",
                row.source,
                row.destination,
                row.overhead_percent()
            );
            assert!(row.filtering.mean > 5.0, "latency magnitudes in ms");
        }
    }

    #[test]
    fn latency_flat_in_flows() {
        let points = latency_vs_flows(&[20, 150], 40, 8);
        let low = points[0].filtering.mean;
        let high = points[1].filtering.mean;
        assert!(
            (high - low).abs() < 2.0,
            "latency increase {low} -> {high} must be insignificant"
        );
    }

    #[test]
    fn memory_sweep_is_linear() {
        let points = memory_vs_rules(&[0, 10_000, 20_000], 9);
        assert!(points[2].filtering_mb > 80.0);
        assert!(points[2].no_filtering_mb < 10.0);
        assert!(points[2].cache_bytes > points[1].cache_bytes);
    }

    #[test]
    fn overhead_within_table_vi_regime() {
        let report = overhead(60, 10);
        assert!(report.d1d2_latency.abs() < 10.0);
        assert!(report.cpu.abs() < 5.0);
        assert!(report.memory > 0.0);
    }
}
