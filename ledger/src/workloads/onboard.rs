//! `onboard_noshed` and `onboard_shed`: thousands of interleaved device
//! setups through one `StreamRuntime`, once with room for every session
//! (completions come from the idle-gap detector) and once with a table
//! a quarter the size of the storm (the table churns under LRU
//! eviction and almost nothing reaches assessment).

use std::hint::black_box;
use std::time::{Duration, Instant};

use sentinel_core::{IoTSecurityService, OnboardingReport};
use sentinel_fingerprint::{FeatureExtractor, FixedFingerprint};
use sentinel_netproto::{RawFeatures, ScanOutcome, WireScan};
use sentinel_stream::{Completion, StreamConfig, StreamRuntime, StreamStats};

use super::{
    check, correct_type_share, digest, merged_stats, stage2_counts, Facts, Failed, Metric, Notes,
    Pass, Scale, Tail, Workload,
};
use crate::alloc::HEAP;
use crate::clock::{timed, Laps, PassCost};
use crate::model::Model;
use crate::stats::Summary;
use crate::synth::{self, Capture, Device};
use crate::trace::{SpanId, Tracer};

/// Frames per `ingest_frames` call in mode A and in the traced run.
const BATCH: usize = 1024;

/// The two onboarding shapes.
#[derive(Clone, Copy)]
pub struct Spec {
    pub(super) stagger: Duration,
    max_sessions: usize,
    /// Whether the table is meant to shed (selects the validity oracles
    /// and what a mode-B latency sample is).
    shed: bool,
}

impl Spec {
    /// The gateway configuration of this shape. `--smoke` shrinks the
    /// shedding table with the storm, so it sheds like the full run.
    pub(super) fn stream_config(&self, scale: Scale) -> StreamConfig {
        StreamConfig {
            max_sessions: if self.shed {
                self.max_sessions * scale.devices / Scale::FULL.devices
            } else {
                self.max_sessions
            },
            shards: 64,
            threads: 1,
            ..StreamConfig::default()
        }
    }
}

/// Capacity ≥ sessions: 20 ms between joins keeps ≈ 700 setups in
/// flight under a 4096-slot table.
pub const NOSHED: Spec = Spec {
    stagger: Duration::from_millis(20),
    max_sessions: 4096,
    shed: false,
};

/// The historical `stream_soak` shape: 1.5 ms between joins puts every
/// device mid-setup at once under a 512-slot table.
pub const SHED: Spec = Spec {
    stagger: Duration::from_micros(1500),
    max_sessions: 512,
    shed: true,
};

pub struct Onboard<'m> {
    service: &'m IoTSecurityService,
    devices: Vec<Device>,
    capture: Capture,
    config: StreamConfig,
    runtime: StreamRuntime<&'m IoTSecurityService>,
    /// First pass's outputs: what every later pass must reproduce.
    reference: (Vec<OnboardingReport>, StreamStats),
    /// Peak residency is sampled per ingest call, so one-frame calls
    /// see a (higher) peak of their own; everything else in the stats
    /// is independent of batch shape.
    peak_by_one: usize,
    /// The pass that just ran.
    reports: Vec<OnboardingReport>,
    stats: StreamStats,
    /// Mode B: whether frame `i`'s one-frame call is a latency sample.
    sampled: Vec<bool>,
    /// Traced run: whether frame `i` is absorbed into a session (a
    /// closing keep-alive is scanned but never extracted).
    absorbed: Vec<bool>,
    tail: Tail,
    completions: Vec<Completion>,
    raws: Vec<RawFeatures>,
    facts: Facts,
}

impl<'m> Onboard<'m> {
    pub fn setup(
        spec: Spec,
        model: &'m Model,
        seed: u64,
        scale: Scale,
        clock: &mut Laps,
    ) -> Result<Self, Failed> {
        let start = Instant::now();
        let devices = synth::devices(seed, scale.devices, &synth::all_types());
        let capture = synth::capture(&devices, spec.stagger)?;
        let synthesis_s = start.elapsed().as_secs_f64();
        clock.lap();

        let config = spec.stream_config(scale);
        let frames = capture.frames.len();
        let mut this = Onboard {
            service: &model.service,
            runtime: StreamRuntime::with_config(&model.service, config.clone()),
            config,
            devices,
            capture,
            reference: (Vec::new(), StreamStats::default()),
            peak_by_one: 0,
            reports: Vec::new(),
            stats: StreamStats::default(),
            sampled: vec![false; frames],
            absorbed: vec![true; frames],
            tail: Tail::new(),
            completions: Vec::new(),
            raws: Vec::with_capacity(BATCH),
            facts: Facts::default(),
        };
        this.oracles(spec, scale, synthesis_s, clock)?;
        Ok(this)
    }

    /// Runs every set-up oracle and fills in the facts.
    fn oracles(
        &mut self,
        spec: Spec,
        scale: Scale,
        synthesis_s: f64,
        clock: &mut Laps,
    ) -> Result<(), Failed> {
        let mut checks = Vec::new();
        let devices = self.devices.len();

        // Reference: batches of 1024.
        self.throughput_pass(&mut Vec::new());
        clock.lap();
        self.reference = (std::mem::take(&mut self.reports), self.stats.clone());
        let stats = &self.reference.1;
        let reports_digest = digest(&self.reference.0);
        let without_rule = self
            .devices
            .iter()
            .filter(|d| {
                self.runtime
                    .enforcement()
                    .cache()
                    .get(d.trace.mac)
                    .is_none()
            })
            .count();
        let bad_frames = stats.frames_malformed + stats.frames_decoded;
        check(
            &mut checks,
            "netproto.scan_certifies_every_frame",
            bad_frames == 0,
            || format!("{stats}"),
        )?;
        check(
            &mut checks,
            "stream.opened_equals_completed_plus_evicted",
            stats.sessions_opened == stats.sessions_completed() + stats.sessions_evicted,
            || format!("{stats}"),
        )?;
        let detector_share = (stats.sessions_completed() - stats.completed_flush) as f64
            / stats.sessions_completed().max(1) as f64;
        if spec.shed {
            check(
                &mut checks,
                "stream.peak_within_capacity",
                stats.peak_resident_sessions <= self.config.effective_capacity(),
                || format!("{stats}"),
            )?;
            check(
                &mut checks,
                "stream.at_least_one_eviction_per_device",
                stats.sessions_evicted >= devices as u64,
                || format!("{stats}"),
            )?;
        } else {
            check(
                &mut checks,
                "stream.no_evictions",
                stats.sessions_evicted == 0,
                || format!("{stats}"),
            )?;
            // A device with fewer than `min_packets` setup frames cannot
            // complete by gap: its keep-alive joins the session and the
            // flush completes it. Every other completion must come from
            // the detector. (How many devices are that short depends on
            // the seed: 1.6-2.3 % of 2000.)
            let short = self
                .devices
                .iter()
                .filter(|d| d.trace.packets.len() - 1 < self.config.detector.min_packets)
                .count() as u64;
            check(
                &mut checks,
                "stream.only_short_setups_complete_by_flush",
                stats.completed_flush == short,
                || format!("{short} short setups: {stats}"),
            )?;
            check(
                &mut checks,
                "stream.detector_share_at_least_0.95",
                detector_share >= 0.95,
                || format!("detector share {detector_share:.4}: {stats}"),
            )?;
            check(
                &mut checks,
                "stream.every_device_has_a_rule",
                without_rule == 0,
                || format!("{without_rule} devices without a rule"),
            )?;
        }

        // Batches of one: same reports and stats, and which calls are
        // latency samples.
        self.mark_samples(spec);
        clock.lap();
        self.peak_by_one = self.stats.peak_resident_sessions;
        check(
            &mut checks,
            "stream.batch_of_one_reports_byte_equal",
            digest(&self.reports) == reports_digest && self.verify(Pass::Latency).is_ok(),
            || "batch-1 run diverged from batch-1024".into(),
        )?;

        // The traced (deferred) pipeline: same again.
        let mut tracer = Tracer::with_capacity(self.trace_capacity());
        self.traced_pass(&mut tracer);
        clock.lap();
        check(
            &mut checks,
            "stream.traced_pipeline_reports_byte_equal",
            digest(&self.reports) == reports_digest && self.verify(Pass::Traced).is_ok(),
            || "deferred pipeline diverged from inline ingest".into(),
        )?;
        self.reports.clear();

        let (reports, stats) = &self.reference;
        let truth = |r: &OnboardingReport| {
            self.capture
                .index_of
                .get(&r.mac)
                .map(|&i| self.devices[i as usize].type_index)
        };
        let mut layers = vec![
            Metric::exact(
                "netproto.scan_fallback_share",
                "share",
                bad_frames as f64 / self.capture.frames.len() as f64,
            ),
            Metric::exact(
                "stream.sessions_opened_per_device",
                "count",
                stats.sessions_opened as f64 / devices as f64,
            ),
            Metric::exact(
                "stream.shed_share",
                "share",
                stats.sessions_evicted as f64 / stats.sessions_opened.max(1) as f64,
            ),
            Metric::exact("stream.detector_share", "share", detector_share),
            Metric::exact("stream.flush_share", "share", 1.0 - detector_share),
            Metric::exact(
                "stream.devices_without_rule_share",
                "share",
                without_rule as f64 / devices as f64,
            ),
            Metric::exact(
                "stream.peak_resident_sessions",
                "count",
                stats.peak_resident_sessions as f64,
            ),
        ];
        stage2_counts(reports, &mut layers);
        let frames = self.capture.frames.len() as u64;
        let onboardings = reports.len() as u64;
        let correct = correct_type_share(reports, truth, devices);
        let resident_bytes_per_unit = self.resident_bytes_per_session();
        clock.lap();
        self.facts = Facts {
            unit: "frames",
            units_per_pass: frames,
            latency_of: if spec.shed {
                "one-frame ingest call that admits a new session (evicting the LRU one)"
            } else {
                "one-frame ingest call that returns the device's report, rule installed"
            },
            onboardings_per_pass: onboardings,
            // Shedding is the load `onboard_shed` exists to apply, so a
            // shed device is not a failed operation there; it is
            // reported as `stream.devices_without_rule_share`.
            attempted_per_pass: frames + if spec.shed { 0 } else { devices as u64 },
            failed_per_pass: bad_frames + if spec.shed { 0 } else { without_rule as u64 },
            resident_bytes_per_unit,
            // Under shedding almost no session lives long enough to be
            // identifiable; accuracy there says nothing.
            correct_type_share: (!spec.shed).then_some(correct),
            synthesis_s,
            params: vec![
                ("devices", scale.devices as f64),
                ("frames", frames as f64),
                ("stagger_us", spec.stagger.as_micros() as f64),
                ("max_sessions", self.config.max_sessions as f64),
                ("shards", 64.0),
                ("threads", 1.0),
                ("batch_frames", BATCH as f64),
            ],
            checks,
            layers,
        };
        Ok(())
    }

    /// The set-up run of mode B: one frame per call, watching what each
    /// call did. Leaves the run's reports and stats in `self`.
    fn mark_samples(&mut self, spec: Spec) {
        self.runtime.reset();
        self.reports.clear();
        let mut opened = 0;
        for (i, frame) in self.capture.frames.iter().enumerate() {
            let before = self.reports.len();
            self.reports
                .extend(self.runtime.ingest_frames(std::slice::from_ref(frame)));
            let closed = self.reports.len() > before;
            let now_opened = self.runtime.stats().sessions_opened;
            self.sampled[i] = if spec.shed {
                now_opened > opened
            } else {
                closed
            };
            opened = now_opened;
            // A gap-closing frame ends the session without joining it.
            self.absorbed[i] = !closed;
        }
        self.reports.extend(self.runtime.flush());
        self.stats = self.runtime.stats().clone();
    }

    /// Live heap at the batch boundary with the most resident sessions,
    /// above the warm empty runtime, per resident session.
    fn resident_bytes_per_session(&mut self) -> f64 {
        self.runtime.reset();
        let empty = HEAP.live();
        let mut most = (0usize, 0usize);
        for batch in self.capture.frames.chunks(BATCH) {
            drop(self.runtime.ingest_frames(batch));
            let resident = self.runtime.resident_sessions();
            if resident > most.0 {
                most = (resident, HEAP.live().saturating_sub(empty));
            }
        }
        drop(self.runtime.flush());
        most.1 as f64 / most.0.max(1) as f64
    }

    /// Fastest of `passes` mode-A passes at `threads`, on a runtime of
    /// its own.
    fn pass_ns_at_threads(&self, threads: usize, passes: usize) -> f64 {
        let mut runtime = StreamRuntime::with_config(
            self.service,
            StreamConfig {
                threads,
                ..self.config.clone()
            },
        );
        (0..passes)
            .map(|_| {
                runtime.reset();
                let start = Instant::now();
                for batch in self.capture.frames.chunks(BATCH) {
                    black_box(runtime.ingest_frames(batch));
                }
                black_box(runtime.flush());
                start.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Takes the replay extractors of the devices whose sessions
/// `completed`, leaving empty ones behind.
fn take_extractors(
    capture: &Capture,
    extractors: &mut [FeatureExtractor],
    completed: &[Completion],
) -> Vec<FeatureExtractor> {
    completed
        .iter()
        .map(|c| std::mem::take(&mut extractors[capture.index_of[&c.mac] as usize]))
        .collect()
}

/// Replays session finalisation (`finish` + `F'` derivation) for the
/// extractors of the sessions `span` completed.
pub fn replay_finalize(tracer: &mut Tracer, span: SpanId, done: Vec<FeatureExtractor>) {
    tracer.replay("fingerprint.finalize", span, done.len(), || {
        for extractor in done {
            let full = extractor.finish();
            black_box(FixedFingerprint::from_fingerprint(&full));
            black_box(full);
        }
    });
}

impl Workload for Onboard<'_> {
    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn throughput_pass(&mut self, laps: &mut Vec<u64>) -> PassCost {
        self.runtime.reset();
        self.reports.clear();
        let (runtime, reports, frames) =
            (&mut self.runtime, &mut self.reports, &self.capture.frames);
        let cost = timed(laps, |clock| {
            for batch in frames.chunks(BATCH) {
                reports.extend(runtime.ingest_frames(batch));
                clock.lap();
            }
            reports.extend(runtime.flush());
        });
        self.stats = self.runtime.stats().clone();
        cost
    }

    fn latency_pass(&mut self, samples: &mut Vec<u64>) {
        self.runtime.reset();
        self.reports.clear();
        for (frame, &sampled) in self.capture.frames.iter().zip(&self.sampled) {
            let frame = std::slice::from_ref(frame);
            if sampled {
                let start = Instant::now();
                let delivered = self.runtime.ingest_frames(frame);
                samples.push(start.elapsed().as_nanos() as u64);
                self.reports.extend(delivered);
            } else {
                self.reports.extend(self.runtime.ingest_frames(frame));
            }
        }
        self.reports.extend(self.runtime.flush());
        self.stats = self.runtime.stats().clone();
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Duration {
        tracer.clear();
        self.runtime.reset();
        self.reports.clear();
        self.completions.clear();
        let mut tail_stats = StreamStats::default();
        // One extractor per device for the extract/finalize replays,
        // sized off the clock like `Session::open_sized` sizes its own.
        let mut extractors: Vec<FeatureExtractor> = self
            .devices
            .iter()
            .map(|d| FeatureExtractor::with_capacity(d.trace.packets.len()))
            .collect();

        let start = Instant::now();
        let mut offset = 0usize;
        for (op, batch) in self.capture.frames.chunks(BATCH).enumerate() {
            let op = op as u32;
            let span = tracer.begin("stream.ingest", op, batch.len());
            let fresh = self
                .runtime
                .ingest_frames_deferred(batch, &mut self.completions);
            tracer.end(span);
            let fresh = &self.completions[self.completions.len() - fresh..];
            self.tail.settle_traced(
                tracer,
                op,
                self.service,
                fresh,
                &mut tail_stats,
                self.runtime.enforcement_mut(),
                &mut self.reports,
            );

            let raws = &mut self.raws;
            raws.clear();
            tracer.replay("netproto.scan", span, batch.len(), || {
                for (_, frame) in batch {
                    if let ScanOutcome::Features(raw) = WireScan::scan(frame) {
                        raws.push(raw);
                    }
                }
            });
            let absorbed = &self.absorbed[offset..offset + batch.len()];
            let device_of = &self.capture.device_of[offset..offset + batch.len()];
            let pushed = absorbed.iter().filter(|&&a| a).count();
            tracer.replay("fingerprint.extract", span, pushed, || {
                for ((raw, &absorbed), &device) in raws.iter().zip(absorbed).zip(device_of) {
                    if absorbed {
                        extractors[device as usize].push_raw(raw);
                    }
                }
            });
            let done = take_extractors(&self.capture, &mut extractors, fresh);
            replay_finalize(tracer, span, done);
            offset += batch.len();
        }
        let op = self.capture.frames.len().div_ceil(BATCH) as u32;
        let span = tracer.begin("stream.flush", op, 0);
        let fresh = self.runtime.flush_deferred(&mut self.completions);
        tracer.end(span);
        tracer.set_items(span, fresh);
        let fresh = &self.completions[self.completions.len() - fresh..];
        self.tail.settle_traced(
            tracer,
            op,
            self.service,
            fresh,
            &mut tail_stats,
            self.runtime.enforcement_mut(),
            &mut self.reports,
        );
        let done = take_extractors(&self.capture, &mut extractors, fresh);
        replay_finalize(tracer, span, done);
        let wall = tracer.wall_since(start);

        self.stats = merged_stats(self.runtime.stats(), &tail_stats);
        wall
    }

    fn verify(&mut self, pass: Pass) -> Result<(), Failed> {
        let (reports, stats) = &self.reference;
        let stats = &StreamStats {
            peak_resident_sessions: match pass {
                Pass::Latency => self.peak_by_one,
                Pass::Throughput | Pass::Traced => stats.peak_resident_sessions,
            },
            ..stats.clone()
        };
        if self.reports != *reports {
            return Err(Failed::new(
                "stream.every_pass_reproduces_the_first_reports",
                format!("{} reports vs {}", self.reports.len(), reports.len()),
            ));
        }
        if self.stats != *stats {
            return Err(Failed::new(
                "stream.every_pass_reproduces_the_first_stats",
                format!("{} vs {}", self.stats, stats),
            ));
        }
        Ok(())
    }

    fn trace_capacity(&self) -> usize {
        // Per batch: ingest, assess, install and five replays.
        (self.capture.frames.len().div_ceil(BATCH) + 1) * 8
    }

    fn extra_layers(&mut self, _untraced_pass: Duration, out: &mut Vec<Metric>, notes: &mut Notes) {
        // The 64-shard walk every call pays, seen alone: one frame of an
        // already-onboarded device, which the runtime ignores.
        self.throughput_pass(&mut Vec::new());
        let onboarded = self.capture.index_of[&self.reference.0[0].mac];
        let frame = self
            .capture
            .device_of
            .iter()
            .position(|&d| d == onboarded)
            .expect("every device sends frames");
        let ignored = std::slice::from_ref(&self.capture.frames[frame]);
        let mut calls: Vec<f64> = (0..2000)
            .map(|_| {
                let start = Instant::now();
                black_box(self.runtime.ingest_frames(ignored));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        if let Some(summary) = Summary::of(&mut calls) {
            out.push(Metric {
                name: "stream.call_overhead_ns",
                unit: "ns",
                summary,
            });
        }
        // Two workers only mean something on two cores; otherwise the
        // ratio would record fork/join overhead and is left out.
        if std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
            let one = self.pass_ns_at_threads(1, 8);
            let two = self.pass_ns_at_threads(2, 8);
            out.push(Metric::exact("stream.threads2_ratio", "ratio", one / two));
        } else {
            notes.push(("stream.threads2_ratio", "oversubscribed"));
        }
    }
}
