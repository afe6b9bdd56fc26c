//! The gateway cost model: latency, CPU and memory of the Raspberry Pi 2
//! Security Gateway deployment (Tables V–VI, Fig. 6).
//!
//! The paper measured a physical Raspberry Pi running OVS + the
//! controller. We substitute a calibrated analytical model with
//! stochastic noise: parameters are matched to the magnitudes the paper
//! reports, and the *experiments* then measure the same relationships
//! the paper's figures show (flat latency/CPU versus concurrent flows,
//! linear memory versus rule count, sub-10 % filtering overhead). The
//! enforcement code path itself (switch + rule cache) is real — the
//! model only prices it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

use crate::topology::{Host, PathKind};

/// Calibration constants for the gateway cost model.
///
/// Defaults reproduce the paper's reported magnitudes; the fields are
/// public so ablations can sweep them.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed forwarding cost through the gateway data plane (ms).
    pub forwarding_ms: f64,
    /// Internet transit added on remote paths (ms).
    pub internet_ms: f64,
    /// Per-packet cost of the filtering lookup (hash-table rule cache +
    /// flow-table match), in ms. O(1): independent of rule count.
    pub filter_lookup_ms: f64,
    /// Additional per-concurrent-flow queueing cost (ms per flow).
    pub per_flow_ms: f64,
    /// Gaussian latency jitter (stdev, ms).
    pub jitter_ms: f64,
    /// Baseline CPU utilization of the gateway stack (%).
    pub cpu_base: f64,
    /// CPU cost per concurrent flow (%).
    pub cpu_per_flow: f64,
    /// Additional CPU cost of the filtering mechanism (%).
    pub cpu_filtering: f64,
    /// CPU noise (stdev, %).
    pub cpu_jitter: f64,
    /// Baseline process memory (MB).
    pub memory_base_mb: f64,
    /// Memory per cached enforcement rule (KB). The paper's Fig. 6c
    /// slope (~100 MB at 20 000 rules) includes JVM/controller object
    /// overhead, far above the raw rule struct size.
    pub memory_per_rule_kb: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            forwarding_ms: 0.4,
            internet_ms: 5.3,
            filter_lookup_ms: 0.22,
            per_flow_ms: 0.004,
            jitter_ms: 1.35,
            cpu_base: 36.8,
            cpu_per_flow: 0.078,
            cpu_filtering: 0.63,
            cpu_jitter: 0.9,
            memory_base_mb: 5.8,
            memory_per_rule_kb: 4.9,
        }
    }
}

/// The gateway emulator: applies the [`CostModel`] with seeded noise.
#[derive(Debug)]
pub struct GatewayEmulator {
    model: CostModel,
    rng: StdRng,
}

impl GatewayEmulator {
    /// Creates an emulator with the default calibration and a noise seed.
    pub fn new(seed: u64) -> Self {
        GatewayEmulator {
            model: CostModel::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The calibration in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// One round-trip latency measurement between two hosts (the paper's
    /// Table V methodology: ping through the gateway).
    pub fn measure_latency(
        &mut self,
        src: &Host,
        dst: &Host,
        path: PathKind,
        filtering: bool,
        concurrent_flows: usize,
    ) -> Duration {
        let mut ms = self.model.forwarding_ms + src.link_latency_ms + dst.link_latency_ms;
        if path == PathKind::DeviceToRemote {
            ms += self.model.internet_ms;
        }
        if filtering {
            ms += self.model.filter_lookup_ms;
            ms += self.model.per_flow_ms * concurrent_flows as f64;
        }
        ms += self.gaussian(self.model.jitter_ms);
        Duration::from_secs_f64((ms.max(0.1)) / 1e3)
    }

    /// One CPU-utilization sample (%) for the given load (Fig. 6b).
    pub fn measure_cpu(&mut self, concurrent_flows: usize, filtering: bool) -> f64 {
        let mut cpu = self.model.cpu_base + self.model.cpu_per_flow * concurrent_flows as f64;
        if filtering {
            cpu += self.model.cpu_filtering;
        }
        cpu += self.gaussian(self.model.cpu_jitter);
        cpu.clamp(0.0, 100.0)
    }

    /// Gateway process memory (MB) with the given rule-cache population
    /// (Fig. 6c). Without filtering the rule cache is not allocated.
    pub fn measure_memory_mb(&mut self, rules: usize, filtering: bool) -> f64 {
        let mut mb = self.model.memory_base_mb;
        if filtering {
            mb += rules as f64 * self.model.memory_per_rule_kb / 1024.0;
        }
        mb + self.gaussian(0.15).abs()
    }

    /// Approximate standard normal sample scaled by `stdev` (Irwin–Hall
    /// sum of 12 uniforms).
    fn gaussian(&mut self, stdev: f64) -> f64 {
        let sum: f64 = (0..12).map(|_| self.rng.gen::<f64>()).sum();
        (sum - 6.0) * stdev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn summarize(samples: Vec<f64>) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var.sqrt())
    }

    fn latency_mean(src: &str, dst: &str, filtering: bool) -> f64 {
        let lab = Topology::lab();
        let mut emulator = GatewayEmulator::new(1);
        let s = lab.host(src).unwrap();
        let d = lab.host(dst).unwrap();
        let path = lab.path_kind(s, d);
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                emulator
                    .measure_latency(s, d, path, filtering, 10)
                    .as_secs_f64()
                    * 1e3
            })
            .collect();
        summarize(samples).0
    }

    #[test]
    fn latency_magnitudes_match_table_v() {
        // D->D 24-29 ms, D->Slocal 13-19 ms, D->Sremote 19-27 ms.
        let dd = latency_mean("D1", "D4", true);
        assert!((23.0..30.0).contains(&dd), "D1-D4 {dd}");
        let dl = latency_mean("D1", "Slocal", true);
        assert!((12.0..20.0).contains(&dl), "D1-Slocal {dl}");
        let dr = latency_mean("D1", "Sremote", true);
        assert!((18.0..32.0).contains(&dr), "D1-Sremote {dr}");
        assert!(dd > dl, "two radio hops beat one");
        assert!(dr > dl, "internet transit adds latency");
    }

    #[test]
    fn filtering_overhead_is_small() {
        let with = latency_mean("D1", "D2", true);
        let without = latency_mean("D1", "D2", false);
        let overhead = (with - without) / without * 100.0;
        assert!(
            (-2.0..10.0).contains(&overhead),
            "filtering overhead {overhead}% out of Table VI range"
        );
    }

    #[test]
    fn cpu_grows_mildly_with_flows() {
        let mut emulator = GatewayEmulator::new(2);
        let low: Vec<f64> = (0..50).map(|_| emulator.measure_cpu(0, true)).collect();
        let high: Vec<f64> = (0..50).map(|_| emulator.measure_cpu(150, true)).collect();
        let (low_mean, _) = summarize(low);
        let (high_mean, _) = summarize(high);
        assert!((35.0..40.0).contains(&low_mean), "{low_mean}");
        assert!((46.0..52.0).contains(&high_mean), "{high_mean}");
    }

    #[test]
    fn memory_linear_in_rules() {
        let mut emulator = GatewayEmulator::new(3);
        let at_0 = emulator.measure_memory_mb(0, true);
        let at_10k = emulator.measure_memory_mb(10_000, true);
        let at_20k = emulator.measure_memory_mb(20_000, true);
        assert!(at_0 < 8.0);
        assert!((85.0..110.0).contains(&at_20k), "{at_20k}");
        let slope1 = at_10k - at_0;
        let slope2 = at_20k - at_10k;
        assert!((slope1 - slope2).abs() < 3.0, "linear growth");
        // Without filtering memory stays flat.
        let no_filter = emulator.measure_memory_mb(20_000, false);
        assert!(no_filter < 8.0);
    }

    #[test]
    fn noise_is_reproducible_per_seed() {
        let lab = Topology::lab();
        let d1 = lab.host("D1").unwrap();
        let d2 = lab.host("D2").unwrap();
        let sample = |seed| {
            GatewayEmulator::new(seed).measure_latency(d1, d2, PathKind::DeviceToDevice, true, 5)
        };
        assert_eq!(sample(9), sample(9));
        assert_ne!(sample(9), sample(10));
    }
}
