//! `fleet_presynth`: a thousand home gateways against one shared model,
//! with every home's frames built before the clock. The timed pass is
//! the lockstep fleet tick composed from public pieces — one pooled
//! runtime ingesting deferred, fleet-wide keyed assessment in 512-row
//! chunks with the stage-1 verdict cache on, per-home rule install —
//! so it measures gateway cost without simulator cost.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sentinel_core::{IoTSecurityService, OnboardingReport};
use sentinel_devicesim::catalog;
use sentinel_fingerprint::FeatureExtractor;
use sentinel_fleet::{run_fleet, FleetConfig};
use sentinel_netproto::{MacAddr, RawFeatures, ScanOutcome, WireScan};
use sentinel_sdn::EnforcementModule;
use sentinel_stream::{apply_onboarding, Completion, StreamRuntime, StreamStats};

use super::onboard::replay_finalize;
use super::{
    check, correct_type_share, merged_stats, stage2_counts, Facts, Failed, Metric, NoService,
    Notes, Pass, Scale, Tail, Workload,
};
use crate::alloc::HEAP;
use crate::clock::{timed, Laps, PassCost};
use crate::model::Model;
use crate::synth::{self, Home};
use crate::trace::Tracer;

const DEVICES_PER_HOME: usize = 4;
/// Homes per lap of the timed pass (≈ 1 ms of ingest).
const LAP_HOMES: usize = 50;

/// What one home gateway holds after its devices settled.
struct Settled {
    /// Held, not read: the rules stay resident until the next pass, as
    /// they would in the home's gateway.
    _module: EnforcementModule,
    reports: Vec<OnboardingReport>,
    stats: StreamStats,
}

pub struct Fleet {
    /// Owned, because the verdict cache is emptied before every pass.
    service: IoTSecurityService,
    /// Stage-1 replay target whose cache is emptied in step with
    /// `service`'s, so a replayed batch sees the hits the real one saw.
    mirror: IoTSecurityService,
    config: FleetConfig,
    homes: Vec<Home>,
    runtime: StreamRuntime<NoService>,
    /// Every home's deferred completions, in home order.
    completions: Vec<Completion>,
    /// `completions[ends[h - 1]..ends[h]]` belong to home `h`.
    ends: Vec<usize>,
    ingest_stats: Vec<StreamStats>,
    tail: Tail,
    settled: Vec<Settled>,
    /// First pass's per-home reports and stats, and its verdict-cache
    /// `(hits, lookups)`.
    reference: Vec<(Vec<OnboardingReport>, StreamStats)>,
    reference_cache: (u64, u64),
    raws: Vec<RawFeatures>,
    facts: Facts,
}

impl Fleet {
    pub fn setup(model: &Model, seed: u64, scale: Scale, clock: &mut Laps) -> Result<Self, Failed> {
        let config = FleetConfig {
            homes: scale.homes,
            devices_per_home: DEVICES_PER_HOME,
            seed,
            threads: 1,
            ..FleetConfig::default()
        };
        let catalog = catalog();
        let start = Instant::now();
        let homes = synth::homes(&config, &catalog);
        let synthesis_s = start.elapsed().as_secs_f64();
        clock.lap();

        let mut this = Fleet {
            service: model.boot(),
            mirror: model.boot(),
            runtime: StreamRuntime::with_config(NoService, config.stream_config()),
            config,
            homes,
            completions: Vec::new(),
            ends: Vec::new(),
            ingest_stats: Vec::new(),
            tail: Tail::new(),
            settled: Vec::new(),
            reference: Vec::new(),
            reference_cache: (0, 0),
            raws: Vec::new(),
            facts: Facts::default(),
        };
        let mut checks = Vec::new();

        this.throughput_pass(&mut Vec::new());
        clock.lap();
        this.reference = this
            .settled
            .iter()
            .map(|s| (s.reports.clone(), s.stats.clone()))
            .collect();
        this.reference_cache = this.service.verdict_cache_stats();
        let with = HEAP.live();
        this.settled = Vec::new();
        let held = with.saturating_sub(HEAP.live());

        // The library's own fleet run (synthesis inside) must agree.
        let library = run_fleet(&this.service, &this.config);
        clock.lap();
        let mut sums = StreamStats::default();
        let mut onboarded = 0u64;
        for (reports, stats) in &this.reference {
            onboarded += reports.len() as u64;
            sums.packets_in += stats.packets_in;
            sums.sessions_opened += stats.sessions_opened;
            sums.frames_decoded += stats.frames_decoded;
            sums.frames_malformed += stats.frames_malformed;
            sums.identified += stats.identified;
            sums.unknown += stats.unknown;
            sums.strict += stats.strict;
            sums.restricted += stats.restricted;
            sums.trusted += stats.trusted;
        }
        let l = &library.stats;
        check(
            &mut checks,
            "fleet.summed_counters_equal_run_fleet",
            (
                sums.packets_in,
                sums.sessions_opened,
                onboarded,
                sums.identified,
                sums.unknown,
            ) == (
                l.packets_in,
                l.sessions_opened,
                l.onboarded,
                l.identified,
                l.unknown,
            ) && (sums.strict, sums.restricted, sums.trusted)
                == (l.strict, l.restricted, l.trusted),
            || format!("composed {sums}, {onboarded} onboarded; run_fleet {l}"),
        )?;
        check(
            &mut checks,
            "fleet.reports_equal_run_fleet",
            this.reference
                .iter()
                .zip(&library.homes)
                .all(|((reports, _), home)| *reports == home.reports),
            || "a home's reports differ from run_fleet's".into(),
        )?;
        let bad_frames = sums.frames_decoded + sums.frames_malformed;
        check(
            &mut checks,
            "netproto.scan_certifies_every_frame",
            bad_frames == 0,
            || format!("{sums}"),
        )?;

        // Homes one at a time, and the traced pipeline: same reports.
        this.latency_pass(&mut Vec::new());
        clock.lap();
        this.verify(Pass::Latency)?;
        let frames: usize = this.homes.iter().map(|h| h.frames.len()).sum();
        let mut tracer = Tracer::with_capacity(this.trace_capacity());
        this.traced_pass(&mut tracer);
        clock.lap();
        this.verify(Pass::Traced)?;
        checks.push("fleet.every_path_reports_byte_equal");

        let truth = synth::fleet_truth(&this.config, &catalog);
        clock.lap();
        let all_reports: Vec<OnboardingReport> = this
            .reference
            .iter()
            .flat_map(|(reports, _)| reports.iter().cloned())
            .collect();
        let unknown_mac = this
            .homes
            .iter()
            .flat_map(|h| &h.frames)
            .find(|(_, frame)| {
                !truth.contains_key(&MacAddr::new(frame[6..12].try_into().expect("six bytes")))
            });
        check(
            &mut checks,
            "fleet.truth_covers_every_device",
            unknown_mac.is_none(),
            || "a frame's source MAC is not in the re-derived ground truth".into(),
        )?;
        let correct = correct_type_share(
            &all_reports,
            |r| truth.get(&r.mac).copied(),
            all_reports.len(),
        );
        let (hits, lookups) = this.reference_cache;
        let mut layers = vec![
            Metric::exact(
                "netproto.scan_fallback_share",
                "share",
                bad_frames as f64 / frames as f64,
            ),
            Metric::exact(
                "core.verdict_cache_hit_ratio",
                "ratio",
                hits as f64 / lookups.max(1) as f64,
            ),
            Metric::exact(
                "stream.sessions_opened_per_device",
                "count",
                sums.sessions_opened as f64 / onboarded.max(1) as f64,
            ),
        ];
        stage2_counts(&all_reports, &mut layers);
        this.facts = Facts {
            unit: "frames",
            units_per_pass: frames as u64,
            latency_of: "one home taken alone from reset through ingest, assessment of its own \
                         completions and rule install",
            onboardings_per_pass: onboarded,
            attempted_per_pass: frames as u64 + onboarded,
            failed_per_pass: bad_frames,
            resident_bytes_per_unit: held as f64 / this.homes.len() as f64,
            correct_type_share: Some(correct),
            synthesis_s,
            params: vec![
                ("homes", this.homes.len() as f64),
                ("devices_per_home", DEVICES_PER_HOME as f64),
                ("frames", frames as f64),
                ("onboardings", onboarded as f64),
                ("assess_batch_rows", this.config.assess_batch_rows as f64),
                ("tick_ms", this.config.tick.as_millis() as f64),
                ("threads", 1.0),
            ],
            checks,
            layers,
        };
        Ok(this)
    }

    /// Off the clock: drop the last pass's outputs and empty the
    /// verdict cache, so every pass sees the workload's own duplicate
    /// rate instead of a cache warmed by the pass before.
    fn fresh_state(&mut self) {
        self.settled.clear();
        self.completions.clear();
        self.ends.clear();
        self.ingest_stats.clear();
        self.service.enable_verdict_cache(true);
    }
}

/// One home through the pooled runtime: reset, every tick deferred,
/// then the end-of-stream flush.
fn ingest_home(
    runtime: &mut StreamRuntime<NoService>,
    home: &Home,
    completions: &mut Vec<Completion>,
) {
    let mut from = 0usize;
    for &end in &home.tick_ends {
        runtime.ingest_frames_deferred(&home.frames[from..end], completions);
        from = end;
    }
    runtime.flush_deferred(completions);
}

/// Installs one home's rules into a fresh enforcement module.
fn settle_home(
    ingest_stats: &StreamStats,
    completions: &[Completion],
    responses: &mut impl Iterator<Item = sentinel_core::ServiceResponse>,
) -> Settled {
    let mut module = EnforcementModule::new();
    let mut tail_stats = StreamStats::default();
    let mut reports = Vec::with_capacity(completions.len());
    for completion in completions {
        let response = responses.next().expect("one response per completion");
        reports.push(apply_onboarding(
            &mut tail_stats,
            &mut module,
            completion,
            response,
        ));
    }
    Settled {
        _module: module,
        reports,
        stats: merged_stats(ingest_stats, &tail_stats),
    }
}

impl Workload for Fleet {
    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn throughput_pass(&mut self, laps: &mut Vec<u64>) -> PassCost {
        self.fresh_state();
        let Fleet {
            service,
            config,
            homes,
            runtime,
            completions,
            ends,
            ingest_stats,
            tail,
            settled,
            ..
        } = self;
        timed(laps, |clock| {
            for (h, home) in homes.iter().enumerate() {
                runtime.reset();
                ingest_home(runtime, home, completions);
                ends.push(completions.len());
                ingest_stats.push(runtime.stats().clone());
                if (h + 1) % LAP_HOMES == 0 {
                    clock.lap();
                }
            }
            for chunk in completions.chunks(config.assess_batch_rows) {
                tail.assess(service, chunk);
                clock.lap();
            }
            let mut responses = tail.responses();
            let mut from = 0usize;
            for (h, (&end, stats)) in ends.iter().zip(ingest_stats.iter()).enumerate() {
                settled.push(settle_home(stats, &completions[from..end], &mut responses));
                from = end;
                if (h + 1) % LAP_HOMES == 0 {
                    clock.lap();
                }
            }
        })
    }

    fn latency_pass(&mut self, samples: &mut Vec<u64>) {
        self.fresh_state();
        for home in &self.homes {
            let from = self.completions.len();
            let start = Instant::now();
            self.runtime.reset();
            ingest_home(&mut self.runtime, home, &mut self.completions);
            let own = &self.completions[from..];
            self.tail.assess(&self.service, own);
            let settled = settle_home(self.runtime.stats(), own, &mut self.tail.responses());
            samples.push(start.elapsed().as_nanos() as u64);
            self.settled.push(settled);
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Duration {
        tracer.clear();
        self.fresh_state();
        self.mirror.enable_verdict_cache(true);
        let start = Instant::now();
        for (h, home) in self.homes.iter().enumerate() {
            let op = h as u32;
            let whole = tracer.begin("fleet.home", op, 1);
            let reset = tracer.begin("fleet.reset", op, 1);
            self.runtime.reset();
            tracer.end(reset);
            let from = self.completions.len();
            let ingest = tracer.begin("stream.ingest", op, home.frames.len());
            ingest_home(&mut self.runtime, home, &mut self.completions);
            tracer.end(ingest);
            tracer.end(whole);
            self.ends.push(self.completions.len());
            self.ingest_stats.push(self.runtime.stats().clone());

            let raws = &mut self.raws;
            raws.clear();
            tracer.replay("netproto.scan", ingest, home.frames.len(), || {
                for (_, frame) in &home.frames {
                    if let ScanOutcome::Features(raw) = WireScan::scan(frame) {
                        raws.push(raw);
                    }
                }
            });
            let mut extractors: Vec<FeatureExtractor> = (0..home.devices)
                .map(|_| FeatureExtractor::with_capacity(64))
                .collect();
            tracer.replay("fingerprint.extract", ingest, raws.len(), || {
                for (raw, &device) in raws.iter().zip(&home.device_of) {
                    extractors[device as usize].push_raw(raw);
                }
            });
            extractors.truncate(self.completions.len() - from);
            replay_finalize(tracer, ingest, extractors);
        }
        for (op, chunk) in self
            .completions
            .chunks(self.config.assess_batch_rows)
            .enumerate()
        {
            self.tail
                .assess_traced(tracer, op as u32, &self.service, &self.mirror, chunk);
        }
        let mut responses = self.tail.responses();
        let mut from = 0usize;
        for (h, (&end, stats)) in self.ends.iter().zip(&self.ingest_stats).enumerate() {
            let span = tracer.begin("fleet.settle", h as u32, end - from);
            let settled = settle_home(stats, &self.completions[from..end], &mut responses);
            tracer.end(span);
            self.settled.push(settled);
            from = end;
        }
        drop(responses);
        tracer.wall_since(start)
    }

    fn verify(&mut self, pass: Pass) -> Result<(), Failed> {
        let same = self.settled.len() == self.reference.len()
            && self
                .settled
                .iter()
                .zip(&self.reference)
                .all(|(s, (reports, stats))| s.reports == *reports && s.stats == *stats);
        if !same {
            return Err(Failed::new(
                "fleet.every_pass_reproduces_the_first_reports",
                "a home's reports or stats changed between passes",
            ));
        }
        // Counted under mode A's batch shape: a duplicate inside one
        // batch is not a cache hit, so other shapes count differently.
        let cache = self.service.verdict_cache_stats();
        if pass == Pass::Throughput && cache != self.reference_cache {
            return Err(Failed::new(
                "core.every_pass_sees_the_same_verdict_cache_hits",
                format!("{cache:?} vs {:?}", self.reference_cache),
            ));
        }
        Ok(())
    }

    fn trace_capacity(&self) -> usize {
        // Per home: home, reset, ingest, three replays, settle; per assess
        // chunk: one span and two replays.
        self.homes.len() * 7 + (self.homes.len() * 8 / self.config.assess_batch_rows + 2) * 3
    }

    fn extra_layers(&mut self, untraced_pass: Duration, out: &mut Vec<Metric>, _: &mut Notes) {
        // The library's own run on the same config: synthesis inside,
        // probes and leaves in its settle. Never gated; it keeps the
        // simulator's cost visible next to the composed pass.
        let seconds = (0..5)
            .map(|_| {
                self.service.enable_verdict_cache(true);
                let start = Instant::now();
                black_box(run_fleet(&self.service, &self.config));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        out.push(Metric::exact(
            "fleet.run_fleet_homes_per_s",
            "homes/s",
            self.homes.len() as f64 / seconds,
        ));
        out.push(Metric::exact(
            "fleet.synthesis_share",
            "share",
            1.0 - untraced_pass.as_secs_f64() / seconds,
        ));
    }
}
