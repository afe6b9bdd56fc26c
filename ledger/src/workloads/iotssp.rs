//! `iotssp_confusable`: the IoT Security Service alone, on fingerprints
//! drawn only from the device families Table III shows are confusable,
//! so that stage-2 discrimination runs on most items. Nothing of
//! `sentinel-stream` or `sentinel-netproto` is on the clock here.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sentinel_core::{IoTSecurityService, OnboardingReport};
use sentinel_fingerprint::{extract_frames, FixedFingerprint};
use sentinel_netproto::MacAddr;
use sentinel_sdn::EnforcementModule;
use sentinel_stream::{Completion, CompletionReason, StreamStats};

use super::{
    check, correct_type_share, digest, stage2_counts, Facts, Failed, Pass, Scale, Tail, Workload,
};
use crate::alloc::HEAP;
use crate::clock::{timed, Laps, PassCost};
use crate::model::Model;
use crate::synth;
use crate::trace::Tracer;

/// Rows per `assess_keyed_batch_into` call in mode A and the traced run.
const BATCH: usize = 64;

pub struct Iotssp<'m> {
    service: &'m IoTSecurityService,
    /// One finished setup per item: fingerprints plus the `(seq, mac)`
    /// assessment key, in the shape `apply_onboarding` takes.
    items: Vec<Completion>,
    reference: (Vec<OnboardingReport>, StreamStats),
    reports: Vec<OnboardingReport>,
    stats: StreamStats,
    module: EnforcementModule,
    tail: Tail,
    facts: Facts,
}

impl<'m> Iotssp<'m> {
    pub fn setup(
        model: &'m Model,
        seed: u64,
        scale: Scale,
        clock: &mut Laps,
    ) -> Result<Self, Failed> {
        let start = Instant::now();
        let devices = synth::devices(seed, scale.devices, &synth::confusable_types());
        let mut items = Vec::with_capacity(devices.len());
        for (seq, device) in devices.iter().enumerate() {
            // Without the closing keep-alive, which ends a session but
            // never joins its fingerprint.
            let setup = &device.trace.packets[..device.trace.packets.len() - 1];
            let frames: Vec<Vec<u8>> = setup.iter().map(|p| p.encode()).collect();
            let full =
                extract_frames(&frames).map_err(|e| Failed::new("synth.frames_extract", e))?;
            items.push(Completion {
                seq: seq as u64,
                mac: device.trace.mac,
                setup_packets: frames.len(),
                reason: CompletionReason::IdleGap,
                fixed: FixedFingerprint::from_fingerprint(&full),
                full,
            });
        }
        let synthesis_s = start.elapsed().as_secs_f64();
        clock.lap();

        let mut this = Iotssp {
            service: &model.service,
            items,
            reference: (Vec::new(), StreamStats::default()),
            reports: Vec::new(),
            stats: StreamStats::default(),
            module: EnforcementModule::new(),
            tail: Tail::new(),
            facts: Facts::default(),
        };
        let mut checks = Vec::new();

        // Reference: batches of 64 (after one pass to warm the scratch),
        // with the live heap the installed rules and reports hold read
        // on both sides.
        this.throughput_pass(&mut Vec::new());
        clock.lap();
        this.reports = Vec::new();
        this.module = EnforcementModule::new();
        let before = HEAP.live();
        this.throughput_pass_keeping_state(&mut Vec::new());
        clock.lap();
        let held = HEAP.live().saturating_sub(before);
        this.reference = (std::mem::take(&mut this.reports), this.stats.clone());
        let reference_digest = digest(&this.reference);

        this.latency_pass(&mut Vec::new());
        clock.lap();
        check(
            &mut checks,
            "core.batch_of_one_reports_byte_equal",
            digest(&(&this.reports, &this.stats)) == reference_digest,
            || "single-item batches diverged from batches of 64".into(),
        )?;
        let mut tracer = Tracer::with_capacity(this.trace_capacity());
        this.traced_pass(&mut tracer);
        clock.lap();
        check(
            &mut checks,
            "core.traced_pipeline_reports_byte_equal",
            digest(&(&this.reports, &this.stats)) == reference_digest,
            || "traced run diverged from the untraced one".into(),
        )?;

        let reports = &this.reference.0;
        let mut layers = Vec::new();
        stage2_counts(reports, &mut layers);
        // 0.55-0.58 of 2000 items over sixteen seeds; a `--smoke`
        // sample of 200 wanders ±0.1 around that, so it only has to
        // show that discrimination is not rare.
        let floor = if scale.devices >= Scale::FULL.devices {
            0.5
        } else {
            0.4
        };
        let discriminated = layers[0].summary.value;
        check(
            &mut checks,
            "core.discriminated_share_at_least_half",
            discriminated >= floor,
            || format!("discrimination ran on {discriminated:.3} of the items, under {floor}"),
        )?;
        let without_response = this.items.len() - reports.len();
        let n = this.items.len();
        let type_of: HashMap<MacAddr, usize> = devices
            .iter()
            .map(|d| (d.trace.mac, d.type_index))
            .collect();
        let correct = correct_type_share(reports, |r| type_of.get(&r.mac).copied(), n);
        this.facts = Facts {
            unit: "items",
            units_per_pass: n as u64,
            latency_of: "assessing one fingerprint as a batch of one and installing its rule",
            onboardings_per_pass: n as u64,
            attempted_per_pass: n as u64,
            failed_per_pass: without_response as u64,
            resident_bytes_per_unit: held as f64 / n as f64,
            correct_type_share: Some(correct),
            synthesis_s,
            params: vec![
                ("items", n as f64),
                ("device_types", synth::confusable_types().len() as f64),
                ("batch_rows", BATCH as f64),
            ],
            checks,
            layers,
        };
        Ok(this)
    }

    /// Mode A on the current module and report buffer (the caller
    /// decides whether they start empty).
    fn throughput_pass_keeping_state(&mut self, laps: &mut Vec<u64>) -> PassCost {
        self.stats = StreamStats::default();
        let (service, tail, items) = (self.service, &mut self.tail, &self.items);
        let (stats, module, reports) = (&mut self.stats, &mut self.module, &mut self.reports);
        timed(laps, |clock| {
            for chunk in items.chunks(BATCH) {
                tail.assess(service, chunk);
                tail.install(chunk, stats, module, reports);
                clock.lap();
            }
        })
    }

    /// Off the clock: every pass starts from an empty module.
    fn fresh_state(&mut self) {
        self.reports.clear();
        self.module = EnforcementModule::new();
        self.stats = StreamStats::default();
    }
}

impl Workload for Iotssp<'_> {
    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn throughput_pass(&mut self, laps: &mut Vec<u64>) -> PassCost {
        self.fresh_state();
        self.throughput_pass_keeping_state(laps)
    }

    fn latency_pass(&mut self, samples: &mut Vec<u64>) {
        self.fresh_state();
        for item in self.items.chunks(1) {
            let start = Instant::now();
            self.tail.assess(self.service, item);
            self.tail
                .install(item, &mut self.stats, &mut self.module, &mut self.reports);
            samples.push(start.elapsed().as_nanos() as u64);
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Duration {
        tracer.clear();
        self.fresh_state();
        let start = Instant::now();
        for (op, chunk) in self.items.chunks(BATCH).enumerate() {
            self.tail.settle_traced(
                tracer,
                op as u32,
                self.service,
                chunk,
                &mut self.stats,
                &mut self.module,
                &mut self.reports,
            );
        }
        tracer.wall_since(start)
    }

    fn verify(&mut self, _: Pass) -> Result<(), Failed> {
        let (reports, stats) = &self.reference;
        if self.reports != *reports || self.stats != *stats {
            return Err(Failed::new(
                "core.every_pass_reproduces_the_first_reports",
                format!("{} reports, {}", self.reports.len(), self.stats),
            ));
        }
        Ok(())
    }

    fn trace_capacity(&self) -> usize {
        // Per batch: assess, install and two replays.
        self.items.len().div_ceil(BATCH) * 4
    }
}
