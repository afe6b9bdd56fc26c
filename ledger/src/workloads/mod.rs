//! The five fixed workloads and what they share: the pass interface the
//! measuring loop drives, the oracle failure type, and the assess →
//! install tail every onboarding workload runs.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use sentinel_core::vulndb::VulnerabilityDatabase;
use sentinel_core::{
    AssessKey, AssessScratch, ClassifyScratch, IoTSecurityService, OnboardingReport, Outcome,
    SecurityService, ServiceResponse,
};
use sentinel_fingerprint::{Fingerprint, FixedFingerprint};
use sentinel_sdn::EnforcementModule;
use sentinel_stream::{apply_onboarding, Completion, StreamStats};

use crate::clock::{Laps, PassCost};
use crate::model::Model;
use crate::stats::Summary;
use crate::trace::{self_time_ns, Span, Tracer};

pub mod enforce;
pub mod fleet;
pub mod iotssp;
pub mod onboard;

/// A failed oracle: the named check, and what it saw.
#[derive(Debug)]
pub struct Failed {
    pub check: &'static str,
    pub detail: String,
}

impl Failed {
    pub fn new(check: &'static str, detail: impl fmt::Display) -> Self {
        Failed {
            check,
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for Failed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle `{}` failed: {}", self.check, self.detail)
    }
}

/// Turns a boolean oracle into a `Result`, recording the passed check.
pub fn check(
    passed: &mut Vec<&'static str>,
    name: &'static str,
    holds: bool,
    detail: impl FnOnce() -> String,
) -> Result<(), Failed> {
    if holds {
        passed.push(name);
        Ok(())
    } else {
        Err(Failed::new(name, detail()))
    }
}

/// Workload sizes: the full run, or `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub devices: usize,
    pub homes: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        devices: 2000,
        homes: 1000,
    };
    pub const SMOKE: Scale = Scale {
        devices: 200,
        homes: 40,
    };
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            summary: Summary::exact(value),
        }
    }
}

/// What set-up established about a workload: fixed for a given
/// `(workload, seed, scale)`, counted rather than timed.
#[derive(Default)]
pub struct Facts {
    /// What one unit of `throughput_per_s` is.
    pub unit: &'static str,
    pub units_per_pass: u64,
    /// What one `latency_us_*` sample times.
    pub latency_of: &'static str,
    /// Devices taken to an installed rule per pass (0 when the workload
    /// onboards nothing).
    pub onboardings_per_pass: u64,
    /// Operations one pass attempts, and how many of them failed.
    pub attempted_per_pass: u64,
    pub failed_per_pass: u64,
    /// Live heap per resident unit (session, home, device or item).
    pub resident_bytes_per_unit: f64,
    /// Reports naming the generator's true type ÷ devices; `None` when
    /// the workload identifies nothing.
    pub correct_type_share: Option<f64>,
    pub synthesis_s: f64,
    pub params: Vec<(&'static str, f64)>,
    /// Names of the oracles that held during set-up.
    pub checks: Vec<&'static str>,
    /// Counted per-layer metrics.
    pub layers: Vec<Metric>,
}

/// Per-layer samples of a trace: one value per span, already
/// normalised (ns per frame, µs per onboarding, …).
#[derive(Default)]
pub struct LayerSamples {
    samples: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
}

impl LayerSamples {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.samples
            .entry(name)
            .or_insert_with(|| (unit, Vec::new()))
            .1
            .push(value);
    }

    /// Median (with quartiles) of every layer, plus `<name>_p99` for
    /// the layers named in `tails`.
    pub fn metrics(&mut self, tails: &[(&'static str, &'static str)]) -> Vec<Metric> {
        let mut out = Vec::new();
        for (&name, (unit, values)) in self.samples.iter_mut() {
            let Some(summary) = Summary::of(values) else {
                continue;
            };
            out.push(Metric {
                name,
                unit,
                summary,
            });
            if let Some(&(_, tail_name)) = tails.iter().find(|(base, _)| *base == name) {
                // `Summary::of` left the values sorted.
                let p99 = crate::stats::quantile_sorted(values, 0.99);
                out.push(Metric::exact(tail_name, unit, p99));
            }
        }
        out
    }
}

/// Which kind of pass just ran. All three must report identically;
/// the few counters that depend on batch shape are compared within a
/// kind only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Throughput,
    Latency,
    Traced,
}

/// `(layer, why it has no number on this host)`.
pub type Notes = Vec<(&'static str, &'static str)>;

/// The pass interface the measuring loop drives. Every pass runs the
/// same pre-built inputs; `verify` runs off the clock after each one.
pub trait Workload {
    fn facts(&self) -> &Facts;

    /// Mode A: one pass at the workload's own batch shape, lapped at
    /// batch boundaries into `laps`.
    fn throughput_pass(&mut self, laps: &mut Vec<u64>) -> PassCost;

    /// Mode B: the same inputs as batches of one; pushes the duration
    /// (ns) of every call `Facts::latency_of` names.
    fn latency_pass(&mut self, samples: &mut Vec<u64>);

    /// One pass through the public layer boundaries, recording spans
    /// into `tracer` (cleared first). Returns the pass's wall time
    /// without the replays.
    fn traced_pass(&mut self, tracer: &mut Tracer) -> Duration;

    /// Checks the outputs of the pass that just ran (of kind `pass`)
    /// against the first pass's.
    fn verify(&mut self, pass: Pass) -> Result<(), Failed>;

    /// Spans one traced pass records at most.
    fn trace_capacity(&self) -> usize;

    /// Extra per-layer measurements that need their own short runs
    /// (thread ratio, call overhead, the library's own `run_fleet`).
    fn extra_layers(
        &mut self,
        _untraced_pass: Duration,
        _out: &mut Vec<Metric>,
        _notes: &mut Notes,
    ) {
    }
}

/// Builds a workload by name, lapping its set-up stages into `clock`.
/// The returned box borrows `model`.
pub fn build<'m>(
    name: &str,
    model: &'m Model,
    seed: u64,
    scale: Scale,
    clock: &mut Laps,
) -> Result<Box<dyn Workload + 'm>, Failed> {
    Ok(match name {
        "onboard_noshed" => Box::new(onboard::Onboard::setup(
            onboard::NOSHED,
            model,
            seed,
            scale,
            clock,
        )?),
        "onboard_shed" => Box::new(onboard::Onboard::setup(
            onboard::SHED,
            model,
            seed,
            scale,
            clock,
        )?),
        "iotssp_confusable" => Box::new(iotssp::Iotssp::setup(model, seed, scale, clock)?),
        "enforce_steady" => Box::new(enforce::Enforce::setup(model, seed, scale, clock)?),
        "fleet_presynth" => Box::new(fleet::Fleet::setup(model, seed, scale, clock)?),
        _ => unreachable!("workload names are validated by the argument parser"),
    })
}

/// FNV-1a over a value's `Debug` rendering: the ledger's "serialized
/// bytes" (shortest-round-trip floats, so equal digests mean equal
/// bytes) without buffering them.
pub fn digest(value: &impl fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for byte in s.bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut sink = Fnv(0xcbf2_9ce4_8422_2325);
    fmt::write(&mut sink, format_args!("{value:?}")).expect("the sink never fails");
    sink.0
}

/// Adds the onboarding-side counters `apply_onboarding` accumulated in
/// `tail` to the ingest-side counters of a deferred runtime, giving the
/// `StreamStats` the inline path would have produced.
pub fn merged_stats(ingest: &StreamStats, tail: &StreamStats) -> StreamStats {
    StreamStats {
        completed_idle_gap: tail.completed_idle_gap,
        completed_packet_cap: tail.completed_packet_cap,
        completed_byte_cap: tail.completed_byte_cap,
        completed_flush: tail.completed_flush,
        identified: tail.identified,
        unknown: tail.unknown,
        strict: tail.strict,
        restricted: tail.restricted,
        trusted: tail.trusted,
        ..ingest.clone()
    }
}

/// Share of `reports` whose identified label is the sender's true type.
pub fn correct_type_share(
    reports: &[OnboardingReport],
    truth: impl Fn(&OnboardingReport) -> Option<usize>,
    devices: usize,
) -> f64 {
    let correct = reports
        .iter()
        .filter(|r| {
            let label = r.response.identification.label();
            label.is_some() && label == truth(r)
        })
        .count();
    correct as f64 / devices as f64
}

/// `core.discriminated_share` and `core.candidates_per_item` of a set
/// of reports.
pub fn stage2_counts(reports: &[OnboardingReport], out: &mut Vec<Metric>) {
    let n = reports.len().max(1) as f64;
    let discriminated = reports
        .iter()
        .filter(|r| r.response.identification.discriminated)
        .count();
    let candidates: usize = reports
        .iter()
        .map(|r| r.response.identification.candidates.len())
        .sum();
    out.push(Metric::exact(
        "core.discriminated_share",
        "share",
        discriminated as f64 / n,
    ));
    out.push(Metric::exact(
        "core.candidates_per_item",
        "count",
        candidates as f64 / n,
    ));
}

/// A service for runtimes that only ever ingest *deferred*: the
/// deferred path must not consult the service, and this one proves it.
pub struct NoService;

impl SecurityService for NoService {
    fn assess(&self, _: &Fingerprint, _: &FixedFingerprint) -> ServiceResponse {
        unreachable!("deferred ingest never assesses")
    }
}

/// The assess → install tail shared by the onboarding workloads: keyed
/// batch assessment out of warm caller-owned scratch, then
/// `apply_onboarding` per completion in order.
pub struct Tail {
    scratch: AssessScratch,
    responses: Vec<ServiceResponse>,
    /// Scratch of the stage-1 replay (traced passes only).
    classify: ClassifyScratch,
}

impl Tail {
    pub fn new() -> Self {
        Tail {
            scratch: AssessScratch::default(),
            responses: Vec::new(),
            classify: ClassifyScratch::default(),
        }
    }

    /// Assesses `completions` in one keyed batch.
    pub fn assess(&mut self, service: &IoTSecurityService, completions: &[Completion]) {
        let items: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = completions
            .iter()
            .map(|c| (&c.full, &c.fixed, c.assess_key()))
            .collect();
        service.assess_keyed_batch_into(&items, &mut self.scratch, &mut self.responses);
    }

    /// Installs the rule of every assessed completion, in order.
    /// `completions` must be exactly what was assessed since the last
    /// install.
    pub fn install(
        &mut self,
        completions: &[Completion],
        stats: &mut StreamStats,
        module: &mut EnforcementModule,
        reports: &mut Vec<OnboardingReport>,
    ) {
        assert_eq!(completions.len(), self.responses.len());
        for (completion, response) in completions.iter().zip(self.responses.drain(..)) {
            reports.push(apply_onboarding(stats, module, completion, response));
        }
    }

    /// Hands out the pending responses in assessment order, for a
    /// caller that installs them across several modules.
    pub fn responses(&mut self) -> std::vec::Drain<'_, ServiceResponse> {
        self.responses.drain(..)
    }

    /// [`Tail::assess`] under a `core.assess` span, with stage 1 and
    /// the vulnerability lookup replayed as its children. `mirror`
    /// serves the stage-1 replay: a service whose verdict-cache state
    /// equals what `service`'s was before the real call (the same
    /// service when the cache is off).
    pub fn assess_traced(
        &mut self,
        tracer: &mut Tracer,
        op: u32,
        service: &IoTSecurityService,
        mirror: &IoTSecurityService,
        completions: &[Completion],
    ) {
        if completions.is_empty() {
            return;
        }
        let rows = completions.len();
        let already = self.responses.len();
        let span = tracer.begin("core.assess", op, rows);
        self.assess(service, completions);
        tracer.end(span);

        let fixed: Vec<&FixedFingerprint> = completions.iter().map(|c| &c.fixed).collect();
        let classify = &mut self.classify;
        tracer.replay("core.stage1", span, rows, || {
            std::hint::black_box(mirror.identifier().classify_batch_in(&fixed, classify));
        });
        let responses = &self.responses[already..];
        tracer.replay("core.vulndb", span, rows, || {
            let vulndb = service.vulndb();
            for response in responses {
                let name = match &response.identification.outcome {
                    Outcome::Identified { name, .. } => Some(name.as_str()),
                    Outcome::Unknown => None,
                };
                std::hint::black_box(vulndb.assess(name));
                if let Some(name) = name {
                    std::hint::black_box(vulndb.vendor_endpoints(name));
                }
            }
        });
    }

    /// [`Tail::assess_traced`], then [`Tail::install`] under an
    /// `sdn.install` span.
    #[allow(clippy::too_many_arguments)]
    pub fn settle_traced(
        &mut self,
        tracer: &mut Tracer,
        op: u32,
        service: &IoTSecurityService,
        completions: &[Completion],
        stats: &mut StreamStats,
        module: &mut EnforcementModule,
        reports: &mut Vec<OnboardingReport>,
    ) {
        if completions.is_empty() {
            return;
        }
        self.assess_traced(tracer, op, service, service, completions);
        let span = tracer.begin("sdn.install", op, completions.len());
        self.install(completions, stats, module, reports);
        tracer.end(span);
    }
}

/// What of a span becomes the per-layer sample.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Take {
    /// Duration ÷ items.
    PerItem,
    /// Self time ÷ items: for a layer with no public function of its
    /// own to replay, what remains of the parent once its children are
    /// subtracted.
    SelfPerItem,
    /// Duration ÷ (items × device-types): one forest walk.
    PerItemAndForest,
    /// Duration of the whole span.
    Whole,
    /// The item count itself.
    Items,
}

const NS: f64 = 1.0;
const US: f64 = 1e-3;

/// The metric ↔ span table: `(span, metric, unit, what to take, scale
/// applied to nanoseconds)`.
const SPAN_METRICS: &[(&str, &str, &str, Take, f64)] = &[
    (
        "netproto.scan",
        "netproto.scan_ns_per_frame",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "netproto.decode",
        "netproto.decode_ns_per_packet",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "fingerprint.extract",
        "fingerprint.extract_ns_per_frame",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "fingerprint.finalize",
        "fingerprint.finalize_ns_per_session",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "stream.ingest",
        "stream.ingest_ns_per_frame",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "stream.ingest",
        "stream.sessionize_ns_per_frame",
        "ns",
        Take::SelfPerItem,
        NS,
    ),
    (
        "core.assess",
        "core.assess_us_per_onboarding",
        "us",
        Take::PerItem,
        US,
    ),
    (
        "core.assess",
        "core.stage2_us_per_onboarding",
        "us",
        Take::SelfPerItem,
        US,
    ),
    (
        "core.assess",
        "core.assess_rows_per_batch",
        "count",
        Take::Items,
        1.0,
    ),
    (
        "core.stage1",
        "core.stage1_us_per_onboarding",
        "us",
        Take::PerItem,
        US,
    ),
    (
        "core.stage1",
        "ml.forest_walk_ns_per_row",
        "ns",
        Take::PerItemAndForest,
        NS,
    ),
    (
        "core.vulndb",
        "core.vulndb_ns_per_onboarding",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "sdn.install",
        "sdn.install_ns_per_rule",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "fleet.settle",
        "sdn.install_ns_per_rule",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "fleet.settle",
        "fleet.settle_us_per_home",
        "us",
        Take::Whole,
        US,
    ),
    (
        "sdn.switch",
        "sdn.switch_ns_per_packet",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "sdn.flow_lookup",
        "sdn.flow_lookup_ns",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "sdn.rule_cache_lookup",
        "sdn.rule_cache_lookup_ns",
        "ns",
        Take::PerItem,
        NS,
    ),
    (
        "fleet.home",
        "fleet.ingest_us_per_home",
        "us",
        Take::Whole,
        US,
    ),
    (
        "fleet.reset",
        "fleet.reset_ns_per_home",
        "ns",
        Take::Whole,
        NS,
    ),
];

/// Layers whose p99 over spans is reported next to the median.
pub const TAILS: &[(&str, &str)] = &[
    (
        "netproto.scan_ns_per_frame",
        "netproto.scan_ns_per_frame_p99",
    ),
    (
        "stream.ingest_ns_per_frame",
        "stream.ingest_ns_per_frame_p99",
    ),
    (
        "core.assess_us_per_onboarding",
        "core.assess_us_per_onboarding_p99",
    ),
    ("sdn.switch_ns_per_packet", "sdn.switch_ns_per_packet_p99"),
];

/// Folds a trace into per-layer samples, one per span.
pub fn fold_spans(spans: &[Span], n_types: usize, layers: &mut LayerSamples) {
    for (id, span) in spans.iter().enumerate() {
        for &(_, metric, unit, take, scale) in SPAN_METRICS.iter().filter(|row| row.0 == span.name)
        {
            let items = f64::from(span.items);
            if items == 0.0 && take != Take::Whole {
                continue;
            }
            let ns = span.duration_ns() as f64;
            let value = match take {
                Take::PerItem => ns / items,
                Take::SelfPerItem => self_time_ns(spans, id as u32) as f64 / items,
                Take::PerItemAndForest => ns / (items * n_types as f64),
                Take::Whole => ns,
                Take::Items => items,
            };
            layers.push(metric, unit, value * scale);
        }
    }
}
