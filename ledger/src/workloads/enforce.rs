//! `enforce_steady`: the data plane. A gateway that has already
//! onboarded every device replays their traffic through
//! `Packet::parse` + `StreamRuntime::enforce`; identification does
//! nothing here. The first of four rounds raises one packet-in per
//! distinct flow, the other three hit the flow table.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sentinel_core::IoTSecurityService;
use sentinel_netproto::{Packet, Timestamp};
use sentinel_sdn::{FlowAction, FlowKey, SwitchDecision};
use sentinel_stream::StreamRuntime;

use super::{check, Facts, Failed, Metric, Pass, Scale, Workload};
use crate::clock::{timed, Laps, PassCost};
use crate::model::Model;
use crate::synth::{self, Frame};
use crate::trace::Tracer;

/// Times the capture is replayed as post-onboarding traffic per pass.
const ROUNDS: usize = 4;
/// Packets per decode/switch span in the traced run.
const BLOCK: usize = 1024;

/// What a pass decided, tallied on the clock (three adds per packet).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    forwarded: u64,
    dropped: u64,
    packet_ins: u64,
}

impl Tally {
    fn count(&mut self, decision: SwitchDecision) {
        match decision.action {
            FlowAction::Forward => self.forwarded += 1,
            FlowAction::Drop => self.dropped += 1,
        }
        self.packet_ins += u64::from(decision.packet_in);
    }
}

pub struct Enforce<'m> {
    runtime: StreamRuntime<&'m IoTSecurityService>,
    frames: Vec<Frame>,
    /// Whether packet `i` of the first round raised a packet-in in the
    /// reference pass: the mode-B latency samples.
    first_of_flow: Vec<bool>,
    reference: Tally,
    tally: Tally,
    /// Traced run: one block of decoded packets, reused.
    block: Vec<Packet>,
    facts: Facts,
}

impl<'m> Enforce<'m> {
    pub fn setup(
        model: &'m Model,
        seed: u64,
        scale: Scale,
        clock: &mut Laps,
    ) -> Result<Self, Failed> {
        let start = Instant::now();
        let devices = synth::devices(seed, scale.devices, &synth::all_types());
        let capture = synth::capture(&devices, super::onboard::NOSHED.stagger)?;
        let synthesis_s = start.elapsed().as_secs_f64();
        clock.lap();

        // Onboard everyone: this gateway's rules are the ones the
        // `onboard_noshed` run installs.
        let mut runtime =
            StreamRuntime::with_config(&model.service, super::onboard::NOSHED.stream_config(scale));
        for batch in capture.frames.chunks(BLOCK) {
            runtime.ingest_frames(batch);
        }
        runtime.flush();
        clock.lap();
        let rules = runtime.enforcement().cache().len();
        let mut checks = Vec::new();
        check(
            &mut checks,
            "sdn.one_rule_per_device",
            rules == devices.len(),
            || format!("{rules} rules for {} devices", devices.len()),
        )?;

        let frames = capture.frames;
        let mut this = Enforce {
            runtime,
            first_of_flow: vec![false; frames.len()],
            frames,
            reference: Tally::default(),
            tally: Tally::default(),
            block: Vec::with_capacity(BLOCK),
            facts: Facts::default(),
        };

        // Reference pass, decision by decision.
        this.empty_flow_table();
        let mut flows = HashSet::new();
        let mut undecodable = 0u64;
        for round in 0..ROUNDS {
            for (i, (timestamp, frame)) in this.frames.iter().enumerate() {
                let Ok(packet) = Packet::parse(frame, *timestamp) else {
                    undecodable += 1;
                    continue;
                };
                flows.insert(FlowKey::of(&packet));
                let decision = this.runtime.enforce(&packet);
                this.reference.count(decision);
                if decision.packet_in {
                    if round > 0 {
                        return Err(Failed::new(
                            "sdn.later_rounds_hit_the_flow_table",
                            format!("packet {i} of round {round} raised a packet-in"),
                        ));
                    }
                    this.first_of_flow[i] = true;
                }
            }
        }
        clock.lap();
        check(
            &mut checks,
            "netproto.every_frame_decodes",
            undecodable == 0,
            || format!("{undecodable} frames failed to decode"),
        )?;
        check(
            &mut checks,
            "sdn.packet_ins_equal_distinct_flows",
            this.reference.packet_ins == flows.len() as u64,
            || format!("{:?} vs {} distinct flows", this.reference, flows.len()),
        )?;
        let packets = (this.frames.len() * ROUNDS) as u64;
        let packet_in_share = this.reference.packet_ins as f64 / packets as f64;
        check(
            &mut checks,
            "sdn.packet_in_share_strictly_between_0_and_1",
            packet_in_share > 0.0 && packet_in_share < 1.0,
            || format!("packet-in share {packet_in_share}"),
        )?;
        // Both other paths must decide exactly the same.
        this.latency_pass(&mut Vec::new());
        clock.lap();
        this.verify(Pass::Latency)?;
        let mut tracer = Tracer::with_capacity(this.trace_capacity());
        this.traced_pass(&mut tracer);
        clock.lap();
        this.verify(Pass::Traced)?;
        checks.push("sdn.every_path_decides_like_the_reference");

        let cache = this.runtime.enforcement().cache();
        let (hits, lookups) = (cache.hits(), cache.lookups());
        this.facts = Facts {
            unit: "packets",
            units_per_pass: packets,
            latency_of: "decoding and deciding the first packet of a flow (packet-in, rule-cache \
                         lookup, flow install)",
            onboardings_per_pass: 0,
            attempted_per_pass: packets,
            failed_per_pass: undecodable,
            resident_bytes_per_unit: cache.memory_bytes() as f64 / rules.max(1) as f64,
            correct_type_share: None,
            synthesis_s,
            params: vec![
                ("devices", scale.devices as f64),
                ("frames", this.frames.len() as f64),
                ("rounds", ROUNDS as f64),
                ("rules", rules as f64),
                ("distinct_flows", flows.len() as f64),
            ],
            checks,
            layers: vec![
                Metric::exact("sdn.packet_in_share", "share", packet_in_share),
                Metric::exact(
                    "sdn.drop_share",
                    "share",
                    this.reference.dropped as f64 / packets as f64,
                ),
                Metric::exact(
                    "sdn.rule_cache_hit_ratio",
                    "ratio",
                    hits as f64 / lookups.max(1) as f64,
                ),
                Metric::exact("sdn.flows_resident", "count", flows.len() as f64),
            ],
        };
        Ok(this)
    }

    /// Off the clock: every pass starts from an empty flow table, so it
    /// raises the same packet-ins as the first.
    fn empty_flow_table(&mut self) {
        self.runtime
            .switch_mut()
            .table_mut()
            .expire_idle(Timestamp::ZERO, Duration::ZERO);
        self.tally = Tally::default();
    }
}

impl Workload for Enforce<'_> {
    fn facts(&self) -> &Facts {
        &self.facts
    }

    fn throughput_pass(&mut self, laps: &mut Vec<u64>) -> PassCost {
        self.empty_flow_table();
        let (runtime, frames, tally) = (&mut self.runtime, &self.frames, &mut self.tally);
        timed(laps, |clock| {
            for _ in 0..ROUNDS {
                for block in frames.chunks(BLOCK) {
                    for (timestamp, frame) in block {
                        let packet = Packet::parse(frame, *timestamp).expect("decoded in set-up");
                        tally.count(runtime.enforce(&packet));
                    }
                    clock.lap();
                }
            }
        })
    }

    fn latency_pass(&mut self, samples: &mut Vec<u64>) {
        self.empty_flow_table();
        for round in 0..ROUNDS {
            for ((timestamp, frame), &first) in self.frames.iter().zip(&self.first_of_flow) {
                if first && round == 0 {
                    let start = Instant::now();
                    let packet = Packet::parse(frame, *timestamp).expect("decoded in set-up");
                    let decision = self.runtime.enforce(&packet);
                    samples.push(start.elapsed().as_nanos() as u64);
                    self.tally.count(decision);
                } else {
                    let packet = Packet::parse(frame, *timestamp).expect("decoded in set-up");
                    self.tally.count(self.runtime.enforce(&packet));
                }
            }
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Duration {
        tracer.clear();
        self.empty_flow_table();
        let start = Instant::now();
        let mut op = 0u32;
        for _ in 0..ROUNDS {
            for frames in self.frames.chunks(BLOCK) {
                let block = &mut self.block;
                block.clear();
                let span = tracer.begin("netproto.decode", op, frames.len());
                for (timestamp, frame) in frames {
                    block.push(Packet::parse(frame, *timestamp).expect("decoded in set-up"));
                }
                tracer.end(span);

                let span = tracer.begin("sdn.switch", op, block.len());
                for packet in block.iter() {
                    self.tally.count(self.runtime.enforce(packet));
                }
                tracer.end(span);

                // Read-only replays of the two lookups behind a decision.
                let table = self.runtime.switch().table();
                tracer.replay("sdn.flow_lookup", span, block.len(), || {
                    for packet in block.iter() {
                        black_box(table.action(&FlowKey::of(packet)));
                    }
                });
                let cache = self.runtime.enforcement().cache();
                tracer.replay("sdn.rule_cache_lookup", span, block.len(), || {
                    for packet in block.iter() {
                        black_box(cache.get(packet.src_mac()));
                    }
                });
                op += 1;
            }
        }
        tracer.wall_since(start)
    }

    fn verify(&mut self, _: Pass) -> Result<(), Failed> {
        if self.tally != self.reference {
            return Err(Failed::new(
                "sdn.every_pass_decides_like_the_reference",
                format!("{:?} vs {:?}", self.tally, self.reference),
            ));
        }
        Ok(())
    }

    fn trace_capacity(&self) -> usize {
        // Per block: decode, switch and two replays.
        self.frames.len().div_ceil(BLOCK) * ROUNDS * 4
    }
}
