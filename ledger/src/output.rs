//! Turning a run into its outputs: `name value unit` lines on stdout,
//! the `--json` document, the trace file, and the one-line result the
//! benchmark driver reads last.

use std::path::{Path, PathBuf};

use crate::host;
use crate::json::Json;
use crate::measure::{Traced, Untraced};
use crate::model::Model;
use crate::registry::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::{Facts, Metric};

pub const SCHEMA: &str = "sentinel-ledger/1";

/// Everything one workload run produced.
pub struct Run<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub smoke: bool,
    pub setup_s: Summary,
    pub facts: &'a Facts,
    pub model: &'a Model,
    pub untraced: Option<&'a Untraced>,
    pub traced: Option<&'a Traced>,
}

/// Which measured quantity a workload-specific metric name stands for.
#[derive(Clone, Copy)]
enum Source {
    Throughput,
    /// Throughput re-expressed in devices onboarded.
    Onboardings,
    LatencyP50,
    LatencyP95,
    Resident,
}

/// The issue's per-workload metric names, as aliases of the five
/// every workload reports.
fn aliases(workload: &str) -> &'static [(&'static str, &'static str, Source)] {
    use Source::*;
    match workload {
        "onboard_noshed" => &[
            ("frames_per_s", "frames/s", Throughput),
            ("onboardings_per_s", "devices/s", Onboardings),
            ("verdict_latency_us_p50", "us", LatencyP50),
            ("verdict_latency_us_p95", "us", LatencyP95),
            ("resident_bytes_per_session", "bytes", Resident),
        ],
        "onboard_shed" => &[
            ("frames_per_s", "frames/s", Throughput),
            ("resident_bytes_per_session", "bytes", Resident),
        ],
        "iotssp_confusable" => &[
            ("onboardings_per_s", "devices/s", Throughput),
            ("verdict_latency_us_p50", "us", LatencyP50),
            ("verdict_latency_us_p95", "us", LatencyP95),
        ],
        "enforce_steady" => &[
            ("enforced_packets_per_s", "packets/s", Throughput),
            ("rule_cache_bytes_per_device", "bytes", Resident),
        ],
        "fleet_presynth" => &[
            ("frames_per_s", "frames/s", Throughput),
            ("onboardings_per_s", "devices/s", Onboardings),
            ("resident_bytes_per_home", "bytes", Resident),
        ],
        _ => &[],
    }
}

fn scaled(summary: Summary, factor: f64) -> Summary {
    Summary {
        value: summary.value * factor,
        q1: summary.q1 * factor,
        q3: summary.q3 * factor,
        ..summary
    }
}

impl Run<'_> {
    /// The five metrics every workload reports, in table order, then
    /// the counted shares, then the workload's aliases.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let Some(untraced) = self.untraced else {
            return Vec::new();
        };
        let facts = self.facts;
        let resident = Summary::exact(facts.resident_bytes_per_unit);
        let mut out = vec![
            Metric {
                name: "setup_s",
                unit: "s",
                summary: self.setup_s,
            },
            Metric {
                name: "throughput_per_s",
                unit: "1/s",
                summary: untraced.throughput,
            },
            Metric {
                name: "latency_us_p50",
                unit: "us",
                summary: untraced.latency_us_p50,
            },
            Metric {
                name: "latency_us_p95",
                unit: "us",
                summary: untraced.latency_us_p95,
            },
            Metric {
                name: "resident_bytes_per_unit",
                unit: "bytes",
                summary: resident,
            },
        ];
        debug_assert!(out
            .iter()
            .map(|m| m.name)
            .eq(END_TO_END.iter().map(|m| m.name)));
        if let Some(share) = facts.correct_type_share {
            out.push(Metric::exact("correct_type_share", "share", share));
        }
        out.push(Metric::exact(
            "failed_share",
            "share",
            untraced.failed as f64 / untraced.attempted.max(1) as f64,
        ));
        for &(name, unit, source) in aliases(self.workload) {
            let summary = match source {
                Source::Throughput => untraced.throughput,
                Source::Onboardings => scaled(
                    untraced.throughput,
                    facts.onboardings_per_pass as f64 / facts.units_per_pass as f64,
                ),
                Source::LatencyP50 => untraced.latency_us_p50,
                Source::LatencyP95 => untraced.latency_us_p95,
                Source::Resident => resident,
            };
            out.push(Metric {
                name,
                unit,
                summary,
            });
        }
        out
    }

    /// Per-layer metrics: the traced run's, plus what set-up timed.
    pub fn layers(&self) -> Vec<Metric> {
        let Some(traced) = self.traced else {
            return Vec::new();
        };
        let mut out = traced.layers.clone();
        out.extend([
            Metric::exact("core.train_ms", "ms", self.model.train_ms),
            Metric::exact("snapshot.encode_ms", "ms", self.model.encode_ms),
            Metric::exact("snapshot.decode_ms", "ms", self.model.decode_ms),
            Metric::exact(
                "snapshot.bytes",
                "bytes",
                self.model.snapshot_bytes() as f64,
            ),
            Metric::exact("devicesim.synthesis_s", "s", self.facts.synthesis_s),
        ]);
        if let Some(share) = self.facts.correct_type_share {
            out.push(Metric::exact("core.correct_type_share", "share", share));
        }
        out.sort_by_key(|m| m.name);
        out
    }

    /// `name value unit n=… q1=… q3=…` lines for a human (and `grep`).
    pub fn print(&self) {
        let facts = self.facts;
        println!("workload {} seed {}", self.workload, self.seed);
        println!("unit_of_work {}", facts.unit);
        println!("latency_of {}", facts.latency_of);
        for (name, value) in &facts.params {
            println!("param.{name} {value}");
        }
        if let Some(untraced) = self.untraced {
            println!(
                "param.latency_samples_per_pass {}",
                untraced.samples_per_pass
            );
        }
        if let Some(traced) = self.traced {
            println!("param.traced_passes {}", traced.passes);
        }
        for metric in self.end_to_end().iter().chain(&self.layers()) {
            let s = metric.summary;
            println!(
                "{} {} {} n={} q1={} q3={}",
                metric.name, s.value, metric.unit, s.n, s.q1, s.q3
            );
        }
        for (name, note) in self.traced.iter().flat_map(|t| &t.notes) {
            println!("{name} {note}");
        }
        for check in &facts.checks {
            println!("check {check} ok");
        }
    }

    /// The `--json` document.
    pub fn document(&self) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Obj(
                list.iter()
                    .map(|m| {
                        let s = m.summary;
                        (
                            m.name.to_owned(),
                            Json::obj([
                                ("value", Json::Num(s.value)),
                                ("unit", Json::Str(m.unit.into())),
                                ("n", Json::Num(s.n as f64)),
                                ("q1", Json::Num(s.q1)),
                                ("q3", Json::Num(s.q3)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let mut params: Vec<(String, Json)> = self
            .facts
            .params
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
            .collect();
        params.push(("smoke".into(), Json::Bool(self.smoke)));
        params.push(("unit_of_work".into(), Json::Str(self.facts.unit.into())));
        params.push(("latency_of".into(), Json::Str(self.facts.latency_of.into())));
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("host", host::fingerprint()),
            ("params", Json::Obj(params)),
            ("end_to_end", metrics(&self.end_to_end())),
            ("layers", metrics(&self.layers())),
            (
                "notes",
                Json::Obj(
                    self.traced
                        .iter()
                        .flat_map(|t| &t.notes)
                        .map(|(name, note)| ((*name).to_owned(), Json::Str((*note).into())))
                        .collect(),
                ),
            ),
            (
                "checks",
                Json::Arr(
                    self.facts
                        .checks
                        .iter()
                        .map(|c| Json::Str((*c).into()))
                        .collect(),
                ),
            ),
            (
                "ops_attempted",
                Json::Num(self.untraced.map_or(0, |u| u.attempted) as f64),
            ),
            (
                "ops_failed",
                Json::Num(self.untraced.map_or(0, |u| u.failed) as f64),
            ),
        ])
    }

    /// The driver's result: every end-to-end metric of the table after
    /// an untraced run, every per-layer metric after a traced one (a
    /// layer off this workload's path reads 0).
    pub fn driver_line(&self) -> String {
        let value_of = |list: &[Metric], name: &str| {
            list.iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.summary.value)
        };
        let metrics: Vec<(String, Json)> = if self.traced.is_some() && self.untraced.is_none() {
            let layers = self.layers();
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, unit, value_of(&layers, name)))
                .map(driver_metric)
                .collect()
        } else {
            let end_to_end = self.end_to_end();
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, value_of(&end_to_end, m.name)))
                .map(driver_metric)
                .collect()
        };
        let (attempted, failed) = match (self.untraced, self.traced) {
            (Some(untraced), _) => (untraced.attempted, untraced.failed),
            (None, Some(traced)) => (
                traced.passes as u64 * self.facts.attempted_per_pass,
                traced.passes as u64 * self.facts.failed_per_pass,
            ),
            (None, None) => (0, 0),
        };
        Json::obj([
            // An oracle failure exits before any result is printed.
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }
}

fn driver_metric((name, unit, value): (&str, &str, f64)) -> (String, Json) {
    (
        name.to_owned(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ]),
    )
}

/// Where the traced run's spans go: next to the binary, which is
/// inside whatever target directory built it.
pub fn trace_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(
        exe.parent()?
            .join("ledger")
            .join(format!("trace_{workload}.json")),
    )
}

pub fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, contents)
}
