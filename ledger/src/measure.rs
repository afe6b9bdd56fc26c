//! The measuring loops: closed loop, one client, one thread. The two
//! modes take turns in half-second slices, so slow drift of the host
//! falls on both alike.
//!
//! # Quiet-time estimators
//!
//! The host is a shared VM. For seconds at a time a neighbour slows it
//! to 0.55–0.7× (measured: the median pass rate of one binary on one
//! seed wandered 20–30 % between back-to-back 10 s runs, the fastest
//! pass 2–7 %), and interference only ever *adds* time. So every
//! reported time is a quiet time: each repetition runs the same code
//! over the same inputs, the loop keeps the fastest repetition of each
//! short piece, and the metric is built from those.
//!
//! * throughput: a pass is lapped at batch boundaries; its quiet time
//!   is the sum over laps of the fastest repetition of that lap.
//! * latency: every timed call keeps its fastest repetition over the
//!   passes; the percentiles are taken over calls.
//! * per-layer: every span keeps its fastest repetition.
//!
//! The per-pass medians and quartiles are still computed and printed
//! (`n`, `q1`, `q3`), so a disturbed run shows: its quartiles sit well
//! below the reported value, and `--compare` calls it unresolved.

use std::time::{Duration, Instant};

use crate::clock::keep_fastest;
use crate::stats::{percentile_sorted, Log2Histogram, Summary};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{fold_spans, Failed, LayerSamples, Metric, Notes, Pass, Workload, TAILS};

const SLICE: Duration = Duration::from_millis(500);
/// Fewest passes per mode a run reports on, however short.
const MIN_PASSES: usize = 3;

/// What the untraced run measured.
pub struct Untraced {
    /// Units of work per second over a quiet mode-A pass; `n`, `q1` and
    /// `q3` describe the per-pass rates.
    pub throughput: Summary,
    /// Quiet mode-A pass time.
    pub pass: Duration,
    /// Percentiles over calls of each call's quiet time; `n`, `q1` and
    /// `q3` describe the per-pass percentiles.
    pub latency_us_p50: Summary,
    pub latency_us_p95: Summary,
    pub latency_us_p99: Summary,
    /// Of all mode-B samples as they fell, disturbed or not (pooled in a
    /// fixed-bucket histogram).
    pub latency_us_p999: f64,
    pub samples_per_pass: usize,
    /// Heap allocations inside mode A's timed region, per unit of work.
    pub allocs_per_unit: f64,
    pub alloc_bytes_per_unit: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// `value` with the count and quartiles of the per-pass `values`.
fn around(value: f64, values: &mut [f64]) -> Summary {
    Summary {
        value,
        ..Summary::of(values).expect("at least MIN_PASSES passes")
    }
}

/// Runs both modes for `seconds` in total, the first tenth (at most one
/// second) as warm-up. `pause` is called `pauses` times, evenly spaced
/// over the run and off its clock: the further set-up rounds go there,
/// so that they sample the host at other moments than process start.
pub fn untraced(
    workload: &mut dyn Workload,
    seconds: f64,
    pauses: u32,
    pause: &mut dyn FnMut() -> Result<(), Failed>,
) -> Result<Untraced, Failed> {
    let total = Duration::from_secs_f64(seconds);
    let warm_up = (total / 10).min(Duration::from_secs(1));
    let units = workload.facts().units_per_pass as f64;
    let begin = Instant::now();

    let mut laps: Vec<u64> = Vec::new();
    let mut samples: Vec<u64> = Vec::new();
    loop {
        workload.throughput_pass(&mut laps);
        workload.verify(Pass::Throughput)?;
        samples.clear();
        workload.latency_pass(&mut samples);
        workload.verify(Pass::Latency)?;
        if begin.elapsed() >= warm_up {
            break;
        }
    }
    let samples_per_pass = samples.len();
    if samples_per_pass == 0 {
        return Err(Failed::new(
            "ledger.latency_pass_yields_samples",
            "mode B timed no call",
        ));
    }

    let mut quiet_laps: Vec<u64> = Vec::new();
    let mut quiet_calls: Vec<u64> = Vec::new();
    let mut rates = Vec::new();
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let (mut p50, mut p95, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut pooled = Log2Histogram::new();
    let mut paused = Duration::ZERO;
    let mut taken = 0;
    while begin.elapsed() - paused < total || rates.len() < MIN_PASSES || p50.len() < MIN_PASSES {
        if taken < pauses && begin.elapsed() - paused >= total * (taken + 1) / (pauses + 1) {
            let start = Instant::now();
            pause()?;
            paused += start.elapsed();
            taken += 1;
        }
        let slice = Instant::now();
        loop {
            let cost = workload.throughput_pass(&mut laps);
            workload.verify(Pass::Throughput)?;
            keep_fastest(&mut quiet_laps, &laps);
            rates.push(units / cost.elapsed.as_secs_f64());
            allocs += cost.allocs;
            alloc_bytes += cost.alloc_bytes;
            if slice.elapsed() >= SLICE {
                break;
            }
        }
        let slice = Instant::now();
        loop {
            samples.clear();
            workload.latency_pass(&mut samples);
            workload.verify(Pass::Latency)?;
            keep_fastest(&mut quiet_calls, &samples);
            for &ns in &samples {
                pooled.record(ns);
            }
            samples.sort_unstable();
            for (into, p) in [(&mut p50, 50.0), (&mut p95, 95.0), (&mut p99, 99.0)] {
                into.push(percentile_sorted(&samples, p) as f64 / 1e3);
            }
            if slice.elapsed() >= SLICE {
                break;
            }
        }
    }

    // A run too short to reach them all still owes the rest.
    for _ in taken..pauses {
        pause()?;
    }

    let passes = (rates.len() + p50.len()) as u64;
    let work = units * rates.len() as f64;
    let pass = Duration::from_nanos(quiet_laps.iter().sum());
    quiet_calls.sort_unstable();
    let quiet_us = |p| percentile_sorted(&quiet_calls, p) as f64 / 1e3;
    let facts = workload.facts();
    Ok(Untraced {
        throughput: around(units / pass.as_secs_f64(), &mut rates),
        pass,
        latency_us_p50: around(quiet_us(50.0), &mut p50),
        latency_us_p95: around(quiet_us(95.0), &mut p95),
        latency_us_p99: around(quiet_us(99.0), &mut p99),
        latency_us_p999: pooled.percentile(99.9).expect("samples were pooled") as f64 / 1e3,
        samples_per_pass,
        allocs_per_unit: allocs as f64 / work,
        alloc_bytes_per_unit: alloc_bytes as f64 / work,
        attempted: passes * facts.attempted_per_pass,
        failed: passes * facts.failed_per_pass,
    })
}

/// What the traced run measured.
pub struct Traced {
    /// Per-layer metrics: median (and p99 where marked) over the spans
    /// of the quiet trace.
    pub layers: Vec<Metric>,
    /// Layers that have no number on this host, and why.
    pub notes: Notes,
    /// The quiet trace: every span at its fastest repetition.
    pub spans: Vec<Span>,
    pub passes: usize,
}

/// Runs the traced pipeline for `seconds`, decomposing against
/// `reference` (an untraced run of the same inputs).
pub fn traced(
    workload: &mut dyn Workload,
    seconds: f64,
    reference: &Untraced,
    n_types: usize,
) -> Result<Traced, Failed> {
    let total = Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::with_capacity(workload.trace_capacity());
    let mut spans: Vec<Span> = Vec::new();
    let mut wall = Duration::MAX;
    let mut passes = 0;
    let begin = Instant::now();
    while begin.elapsed() < total || passes < MIN_PASSES {
        wall = wall.min(workload.traced_pass(&mut tracer));
        workload.verify(Pass::Traced)?;
        trace::keep_fastest(&mut spans, tracer.spans());
        passes += 1;
    }

    let mut samples = LayerSamples::default();
    fold_spans(&spans, n_types, &mut samples);
    let mut layers = samples.metrics(TAILS);
    let untraced_ns = reference.pass.as_nanos() as f64;
    // What the layer boundaries do not explain of the untraced pass
    // (absorb's sort, report clones, shard locks): printed, not hidden.
    // Negative when the traced (deferred) pipeline is the slower one.
    layers.push(Metric::exact(
        "stream.residual_share",
        "share",
        (untraced_ns - trace::root_ns(&spans) as f64) / untraced_ns,
    ));
    layers.push(Metric::exact(
        "trace_overhead_share",
        "share",
        (wall.as_nanos() as f64 - untraced_ns) / untraced_ns,
    ));
    layers.push(Metric {
        name: "stream.verdict_latency_us_p99",
        unit: "us",
        summary: reference.latency_us_p99,
    });
    layers.push(Metric::exact(
        "stream.verdict_latency_us_p999",
        "us",
        reference.latency_us_p999,
    ));
    layers.push(Metric::exact(
        "stream.allocs_per_frame",
        "count",
        reference.allocs_per_unit,
    ));
    layers.push(Metric::exact(
        "stream.alloc_bytes_per_frame",
        "bytes",
        reference.alloc_bytes_per_unit,
    ));
    let mut notes = Vec::new();
    workload.extra_layers(reference.pass, &mut layers, &mut notes);
    layers.extend(workload.facts().layers.iter().cloned());
    Ok(Traced {
        layers,
        notes,
        spans,
        passes,
    })
}
