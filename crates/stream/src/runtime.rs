//! The streaming onboarding runtime: the paper's Security Gateway
//! (Sect. III-A, V).
//!
//! [`StreamRuntime`] consumes one interleaved stream of raw Ethernet
//! frames carrying many concurrent device setups. Each frame goes
//! through the wire scan ([`WireScan::scan`] — total: it certifies every
//! frame the owning decoder accepts, so the decoder never runs here) and
//! its [`RawFeatures`](sentinel_netproto::RawFeatures) are offered to a
//! bounded per-source-MAC [`Session`] state machine in the gateway's one
//! [`SessionTable`]; every completed setup phase is assessed by the IoT
//! Security Service and its isolation level enforced through the SDN
//! switch.
//!
//! # One round, three passes
//!
//! An ingest call is *sessionize → one keyed batch → serial install*:
//! [`StreamRuntime::ingest_frames_deferred`] takes the batch in stream
//! order through probe → scan → open/offer → complete and collects the
//! setups that completed;
//! [`SecurityService::assess_keyed_batch_into`] assesses all of them in
//! one call out of the runtime's warm [`AssessScratch`]; and
//! [`apply_onboarding`] installs each rule and emits each report in
//! `(seq, mac)` stream order. [`StreamRuntime::ingest_frames`] is the
//! three passes in sequence; every gateway runs them that way, a fleet
//! simulator's pooled one included. The first and last pass stay public
//! for a caller that composes the round itself.
//!
//! # What a gateway remembers
//!
//! Each report is handed to the caller once, by value, and not kept. A
//! known device is two things: the session table's onboarded mark (its
//! frames are skipped) and its rule in the enforcement module's cache
//! (what it may reach). [`StreamRuntime::remove_device`] drops both.
//!
//! # Determinism
//!
//! Every frame that carries an Ethernet header takes the next stream
//! sequence number, and the table's state evolves with the frames in
//! that order, so completions come out in `(seq, mac)` order as they
//! happen. The table's shedding rule is a total order on `last_seq`, so
//! the victim of a full table does not depend on where sessions sit.
//! Keyed assessment is a pure function of `(trained model, fingerprints,
//! key)` under the v2 pinned RNG contract ([`sentinel_core::AssessKey`]):
//! every random draw comes from a generator keyed by `(seq, mac)`. So
//! every decision (fingerprint, identification, isolation level, eviction
//! choice) is bit-identical for any ingest batch size and however the
//! completions are cut into assessment batches.

use sentinel_core::{
    AssessKey, AssessScratch, OnboardingReport, Outcome, SecurityService, ServiceResponse,
};
use sentinel_fingerprint::setup::SetupDetector;
use sentinel_fingerprint::{Fingerprint, FixedFingerprint};
use sentinel_netproto::stream::FrameSource;
use sentinel_netproto::{MacAddr, Packet, ParseError, ScanOutcome, Timestamp, WireScan};
use sentinel_sdn::{EnforcementModule, EnforcementRule, IsolationLevel, OvsSwitch, SwitchDecision};

use crate::session::{CompletionReason, Session, SessionEvent};
use crate::stats::StreamStats;
use crate::table::{Probe, SessionTable};

/// Tuning knobs of the streaming runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Setup-phase end detection ([`Session::offer`] applies it).
    pub detector: SetupDetector,
    /// Hosts whose traffic is never monitored.
    pub ignored: Vec<MacAddr>,
    /// Bound on concurrently monitored devices (at least one: see
    /// [`StreamConfig::effective_capacity`]); a full table sheds its
    /// least recently active session to admit a new one.
    ///
    /// A slot costs what its device's setup has sent: typically
    /// ≈ 0.3–0.4 KiB of heap (a 16-column reservation and the list of
    /// distinct destinations) beside its ≈ 0.1 KiB slab entry and MAC
    /// index entry, at worst `detector.max_packets × 16 B` of columns
    /// (4 KiB at the default cap) once some occupant sent that many
    /// distinct packets — a shed slot keeps what it grew to.
    pub max_sessions: usize,
    /// Not consulted: a gateway keeps one session table. Kept because
    /// the frozen benchmark sets it.
    pub shards: usize,
    /// Hard per-session wire-byte cap (`u64::MAX` disables it, leaving
    /// the detector's idle gap and packet cap as the only window rule).
    pub session_byte_cap: u64,
    /// Not consulted: one gateway ingests serially, cores are spent
    /// across gateways by `FleetConfig::threads`. Kept because the frozen
    /// benchmark sets it.
    pub threads: usize,
    /// Frames pulled from the source per ingest round. Purely a
    /// throughput knob: results are identical for any batch size.
    pub batch_size: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            detector: SetupDetector::default(),
            ignored: Vec::new(),
            max_sessions: 4096,
            shards: 1,
            session_byte_cap: u64::MAX,
            threads: 0,
            batch_size: 1024,
        }
    }
}

impl StreamConfig {
    /// The exact bound on resident sessions: `max_sessions`, or one
    /// slot if it is zero.
    pub fn effective_capacity(&self) -> usize {
        self.max_sessions.max(1)
    }
}

/// A finished setup phase, queued for assessment and in-order
/// enforcement.
///
/// The `(seq, mac)` pair is both the stream order completions come out
/// in and the assessment key: keyed assessment ([`AssessKey`]) makes the
/// service's answer a pure function of the trained model, the
/// fingerprints and this key, so a caller can *defer* assessment
/// ([`StreamRuntime::ingest_frames_deferred`]) and cut completions into
/// keyed batches of any size with byte-identical results. Only
/// enforcement-rule installation and report emission must happen in
/// `(seq, mac)` order.
pub struct Completion {
    /// Stream sequence of the frame that closed the session (for gap
    /// and cap completions) or of its last absorbed frame (flush).
    pub seq: u64,
    /// The completing device's MAC address.
    pub mac: MacAddr,
    /// Packets absorbed during the setup phase.
    pub setup_packets: usize,
    /// What ended the setup phase.
    pub reason: CompletionReason,
    /// The full fingerprint `F` (stage-2 input).
    pub full: Fingerprint,
    /// The fixed-width fingerprint `F'` (stage-1 input).
    pub fixed: FixedFingerprint,
}

impl Completion {
    /// The deterministic assessment key of this completion.
    pub fn assess_key(&self) -> AssessKey {
        AssessKey::new(self.seq, self.mac)
    }
}

/// Finalizes one session into its fingerprints (`F` and `F'`).
fn complete(mac: MacAddr, seq: u64, session: Session, reason: CompletionReason) -> Completion {
    let setup_packets = session.packets();
    let full = session.finish();
    let fixed = FixedFingerprint::from_fingerprint(&full);
    Completion {
        seq,
        mac,
        setup_packets,
        reason,
        full,
        fixed,
    }
}

/// The stats-and-enforcement tail of onboarding one assessed device:
/// records the completion in `stats`, installs the enforcement rule the
/// response calls for ([`ServiceResponse::rule_for`]) into `module`, and
/// returns the onboarding report.
///
/// This is the last pass of [`StreamRuntime::ingest_frames`] itself,
/// exposed so a caller that deferred assessment
/// ([`StreamRuntime::ingest_frames_deferred`]) can run the identical
/// serial tail against its own stats and enforcement state — same
/// counters, same rule cache transitions, byte for byte.
pub fn apply_onboarding(
    stats: &mut StreamStats,
    module: &mut EnforcementModule,
    completion: &Completion,
    response: ServiceResponse,
) -> OnboardingReport {
    stats.record_completion(completion.reason);
    match response.identification.outcome {
        Outcome::Identified { .. } => stats.identified += 1,
        Outcome::Unknown => stats.unknown += 1,
    }
    match response.isolation {
        IsolationLevel::Strict => stats.strict += 1,
        IsolationLevel::Restricted => stats.restricted += 1,
        IsolationLevel::Trusted => stats.trusted += 1,
    }
    module.install_rule(response.rule_for(completion.mac));
    OnboardingReport {
        mac: completion.mac,
        setup_packets: completion.setup_packets,
        response,
    }
}

/// The streaming onboarding runtime (see the module docs).
#[derive(Debug)]
pub struct StreamRuntime<S> {
    service: S,
    config: StreamConfig,
    /// The bounded session table (which also remembers the MACs it has
    /// onboarded, whose steady-state traffic is skipped).
    table: SessionTable,
    /// Warm working memory of the one keyed batch each round assesses
    /// (stage-1 batch matrix and candidate pool, stage-2 probe symbols
    /// and mask table — once warm, assessment allocates only what each
    /// response owns).
    scratch: AssessScratch,
    module: EnforcementModule,
    switch: OvsSwitch,
    stats: StreamStats,
    next_seq: u64,
}

impl<S: SecurityService> StreamRuntime<S> {
    /// Creates a runtime backed by `service` with default configuration.
    pub fn new(service: S) -> Self {
        Self::with_config(service, StreamConfig::default())
    }

    /// Creates a runtime with explicit configuration.
    pub fn with_config(service: S, config: StreamConfig) -> Self {
        StreamRuntime {
            service,
            table: SessionTable::new(config.effective_capacity()),
            config,
            scratch: AssessScratch::default(),
            module: EnforcementModule::new(),
            switch: OvsSwitch::lab(),
            stats: StreamStats::default(),
            next_seq: 0,
        }
    }

    /// Consumes a whole frame source in [`StreamConfig::batch_size`]
    /// rounds of [`StreamRuntime::ingest_frames`], then flushes the
    /// remaining sessions. Appends every onboarding report to `out`, in
    /// decision order, as its round decides it.
    ///
    /// Malformed frames do not abort the stream: they are counted in
    /// [`StreamStats::frames_malformed`] and skipped, which is what a
    /// live tap needs.
    ///
    /// # Errors
    ///
    /// Propagates capture-container errors from the source (e.g. a
    /// truncated pcap record header) without flushing. The frames read
    /// before the error are ingested, and the report of every device
    /// they onboarded is already in `out`.
    pub fn run_frames<F: FrameSource>(
        &mut self,
        mut source: F,
        out: &mut Vec<OnboardingReport>,
    ) -> Result<(), ParseError> {
        // One batch reused for the whole run: `refill_frames` overwrites
        // the slots in place, so file replay stops allocating once the
        // buffers have grown to the capture's frame sizes.
        let mut batch: Vec<(Timestamp, Vec<u8>)> = Vec::with_capacity(self.config.batch_size);
        let mut completions = Vec::new();
        loop {
            let refill = source.refill_frames(&mut batch, self.config.batch_size.max(1));
            // On a container error `batch` holds the frames read before
            // it; at end of stream it is empty.
            self.ingest_frames_deferred(&batch, &mut completions);
            self.onboard(&completions, out);
            completions.clear();
            if refill? == 0 {
                break;
            }
        }
        self.flush_deferred(&mut completions);
        self.onboard(&completions, out);
        Ok(())
    }

    /// Ingests one batch of interleaved raw frames, returning the
    /// devices whose setup phase completed inside it (in stream order).
    /// Frames too short to carry an Ethernet header are counted as
    /// malformed and skipped — they consume no stream sequence number
    /// and are excluded from [`StreamStats::packets_in`], so stats and
    /// assessment keys are those of the stream without them.
    pub fn ingest_frames(&mut self, frames: &[(Timestamp, Vec<u8>)]) -> Vec<OnboardingReport> {
        let mut completions = Vec::new();
        self.ingest_frames_deferred(frames, &mut completions);
        let mut reports = Vec::new();
        self.onboard(&completions, &mut reports);
        reports
    }

    /// Ingests one batch of interleaved raw frames **without assessing**
    /// the completed setups: finished sessions are appended to `out` as
    /// [`Completion`]s (in `(seq, mac)` stream order within this call)
    /// for the caller to assess later, in keyed batches the v2 pinned
    /// RNG contract makes byte-identical to in-line assessment at any
    /// batch size. [`StreamRuntime::ingest_frames`] is this call plus
    /// one keyed batch and [`apply_onboarding`]. Returns how many
    /// completions this call appended.
    ///
    /// Session state machines, eviction and every ingest-side counter
    /// behave exactly as in [`StreamRuntime::ingest_frames`]; only
    /// assessment, rule installation and report emission are left to
    /// the caller (see [`apply_onboarding`]). A warm runtime makes **zero
    /// heap allocations** on a tick without completions, whether it is
    /// steady state or a full table shedding for a storm of new MACs.
    ///
    /// Each frame costs one hash probe and is scanned on the borrowed
    /// slice, so the hot path never constructs a [`Packet`]. Frames the
    /// lenient decoder would reject are counted and skipped instead of
    /// aborting the stream.
    pub fn ingest_frames_deferred(
        &mut self,
        frames: &[(Timestamp, Vec<u8>)],
        out: &mut Vec<Completion>,
    ) -> usize {
        let start = out.len();
        for (timestamp, frame) in frames {
            if frame.len() < 14 {
                self.stats.frames_malformed += 1;
                continue;
            }
            let mac = MacAddr::new(frame[6..12].try_into().expect("checked length"));
            let seq = self.next_seq;
            self.next_seq += 1;
            // An ignored MAC never opens a session, so it is never
            // resident: the list is only consulted for unknown MACs.
            let resident = match self.table.probe(mac) {
                Probe::Resident(slot) => Some(slot),
                Probe::Absent if !self.config.ignored.contains(&mac) => None,
                Probe::Absent | Probe::Onboarded => {
                    self.stats.packets_in += 1;
                    self.stats.packets_ignored += 1;
                    continue;
                }
            };
            // Rejected frames never count as stream input.
            let ScanOutcome::Features(raw) = WireScan::scan(frame) else {
                self.stats.frames_malformed += 1;
                continue;
            };
            self.stats.packets_in += 1;
            let slot = resident.unwrap_or_else(|| {
                let (slot, shed) = self.table.open(mac, seq, *timestamp);
                self.stats.sessions_opened += 1;
                self.stats.sessions_evicted += u64::from(shed.is_some());
                slot
            });
            let event = self.table.offer(
                slot,
                &raw,
                *timestamp,
                seq,
                &self.config.detector,
                self.config.session_byte_cap,
            );
            let reason = match event {
                SessionEvent::Absorbed => continue,
                SessionEvent::GapComplete => CompletionReason::IdleGap,
                SessionEvent::CapComplete(reason) => reason,
            };
            let session = self.table.complete(slot);
            out.push(complete(mac, seq, session, reason));
        }
        self.stats.peak_resident_sessions = self.stats.peak_resident_sessions.max(self.table.len());
        out.len() - start
    }

    /// The deferred twin of [`StreamRuntime::flush`]: finalizes every
    /// in-flight session into `out` without assessing, least recently
    /// active first — `(seq, mac)` order, since a flushed session's
    /// `seq` is that of its last absorbed frame. Returns how many
    /// completions this call appended.
    pub fn flush_deferred(&mut self, out: &mut Vec<Completion>) -> usize {
        let start = out.len();
        for (mac, session) in self.table.drain_ordered() {
            let seq = session.last_seq();
            out.push(complete(mac, seq, session, CompletionReason::Flush));
        }
        out.len() - start
    }

    /// Returns the runtime to its freshly-constructed state while
    /// keeping every allocation warm: the session table (slab, recency
    /// links and MAC index) and assessment scratch retain their capacity
    /// but drop all contents; enforcement module, switch, stats and the
    /// sequence counter start over.
    ///
    /// A pooled worker that `reset()`s one runtime between gateways
    /// observes exactly the behavior of constructing a new runtime with
    /// the same service and config — pinned by the fleet byte-identity
    /// tests — without re-paying table and scratch growth each time.
    pub fn reset(&mut self) {
        self.table.clear();
        self.module = EnforcementModule::new();
        self.switch = OvsSwitch::lab();
        self.stats = StreamStats::default();
        self.next_seq = 0;
    }

    /// Finalizes every in-flight session (end of stream), least recently
    /// active first.
    pub fn flush(&mut self) -> Vec<OnboardingReport> {
        let mut completions = Vec::new();
        self.flush_deferred(&mut completions);
        let mut reports = Vec::new();
        self.onboard(&completions, &mut reports);
        reports
    }

    /// The second and third pass of a round: assesses the call's
    /// completions (already in `(seq, mac)` stream order) as one keyed
    /// batch — stage 1 through the bank's scorer for each, stage-2
    /// drawing from each completion's own `(seq, mac)`-keyed generator —
    /// then installs each device's enforcement rule and appends its
    /// report to `out`, in that order. No completions ⇒ no work, no
    /// allocation.
    fn onboard(&mut self, completions: &[Completion], out: &mut Vec<OnboardingReport>) {
        if completions.is_empty() {
            return;
        }
        let items: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = completions
            .iter()
            .map(|c| (&c.full, &c.fixed, c.assess_key()))
            .collect();
        let mut responses = Vec::with_capacity(items.len());
        self.service
            .assess_keyed_batch_into(&items, &mut self.scratch, &mut responses);
        debug_assert_eq!(completions.len(), responses.len());
        out.extend(
            completions
                .iter()
                .zip(responses)
                .map(|(completion, response)| {
                    apply_onboarding(&mut self.stats, &mut self.module, completion, response)
                }),
        );
    }

    /// Forgets a device entirely (it left the network): its in-flight
    /// session or its onboarded mark, and its enforcement rule, which it
    /// returns. If the MAC shows up again it is a newcomer — monitored,
    /// fingerprinted and assessed afresh, which is what a device that
    /// returns with new firmware (a new device-type) needs. A session
    /// dropped mid-setup counts as one [`StreamStats::sessions_evicted`]
    /// (the operator shed it), so `opened − evicted − completed ==
    /// resident` keeps holding. An unknown MAC is a no-op.
    pub fn remove_device(&mut self, mac: MacAddr) -> Option<EnforcementRule> {
        if self.table.forget(mac) {
            self.stats.sessions_evicted += 1;
        }
        self.module.remove_rule(mac)
    }

    /// Forwards or drops a packet according to the installed enforcement
    /// state (the data-plane path).
    pub fn enforce(&mut self, packet: &Packet) -> SwitchDecision {
        self.switch.process(packet, &mut self.module)
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Sessions currently resident.
    pub fn resident_sessions(&self) -> usize {
        self.table.len()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The enforcement module (rule cache, overlays).
    pub fn enforcement(&self) -> &EnforcementModule {
        &self.module
    }

    /// Mutable enforcement access (manual rule management).
    pub fn enforcement_mut(&mut self) -> &mut EnforcementModule {
        &mut self.module
    }

    /// The SDN switch.
    pub fn switch(&self) -> &OvsSwitch {
        &self.switch
    }

    /// Mutable switch access.
    pub fn switch_mut(&mut self) -> &mut OvsSwitch {
        &mut self.switch
    }

    /// The backing security service.
    pub fn service(&self) -> &S {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_core::{Identification, ServiceResponse};
    use sentinel_devicesim::{catalog, interleave, Testbed};
    use sentinel_fingerprint::Fingerprint;
    use sentinel_netproto::stream::MemoryFrameSource;
    use sentinel_sdn::FlowAction;
    use std::collections::HashSet;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    /// Scripted service: labels every fingerprint by its packet-column
    /// count so tests can check fingerprints flowed through untouched.
    struct StubService {
        isolation: IsolationLevel,
    }

    impl SecurityService for StubService {
        fn assess(&self, full: &Fingerprint, _fixed: &FixedFingerprint) -> ServiceResponse {
            ServiceResponse {
                identification: Identification {
                    outcome: Outcome::Identified {
                        label: full.len(),
                        name: format!("len{}", full.len()),
                    },
                    candidates: vec![full.len()],
                    discriminated: false,
                    scores: vec![],
                },
                isolation: self.isolation,
                permitted_endpoints: vec![],
                user_notification: None,
            }
        }
    }

    const STUB: StubService = StubService {
        isolation: IsolationLevel::Trusted,
    };

    fn runtime(config: StreamConfig) -> StreamRuntime<StubService> {
        StreamRuntime::with_config(STUB, config)
    }

    /// Runs a whole in-memory source, returning its reports.
    fn run(
        runtime: &mut StreamRuntime<StubService>,
        source: MemoryFrameSource,
    ) -> Vec<OnboardingReport> {
        let mut reports = Vec::new();
        runtime.run_frames(source, &mut reports).unwrap();
        reports
    }

    /// Streams `packets` the way every caller that holds decoded packets
    /// does: encoded once, then through the frame path.
    fn run_packets(
        runtime: &mut StreamRuntime<StubService>,
        packets: &[Packet],
    ) -> Vec<OnboardingReport> {
        run(runtime, MemoryFrameSource::from_packets(packets))
    }

    /// The report of `mac` among `reports`.
    fn report_of(reports: &[OnboardingReport], mac: MacAddr) -> Option<&OnboardingReport> {
        reports.iter().find(|report| report.mac == mac)
    }

    fn frames_of(packets: &[Packet]) -> Vec<(Timestamp, Vec<u8>)> {
        packets.iter().map(|p| (p.timestamp, p.encode())).collect()
    }

    fn traces(n: usize) -> Vec<sentinel_devicesim::SetupTrace> {
        let devices = catalog();
        let testbed = Testbed::new(5);
        (0..n)
            .map(|i| {
                testbed.setup_run(
                    &devices[i % devices.len()].profile,
                    i as u64 / devices.len() as u64,
                )
            })
            .collect()
    }

    #[test]
    fn interleaved_devices_all_onboard_with_their_own_fingerprints() {
        let traces = traces(12);
        let stream = interleave(&traces, Duration::from_millis(20));
        let mut runtime = runtime(StreamConfig::default());
        let reports = run_packets(&mut runtime, &stream);
        assert_eq!(reports.len(), 12);
        for trace in &traces {
            let report = report_of(&reports, trace.mac).expect("onboarded");
            assert_eq!(report.setup_packets, trace.packets.len());
            // The stub labels by fingerprint length: it must match the
            // batch extraction of the lone trace.
            let batch = sentinel_fingerprint::extract(&trace.packets);
            assert_eq!(report.response.identification.label(), Some(batch.len()));
            assert_eq!(
                runtime.enforcement().level_of(trace.mac),
                IsolationLevel::Trusted
            );
        }
        let stats = runtime.stats();
        assert_eq!(stats.sessions_opened, 12);
        assert_eq!(stats.sessions_completed(), 12);
        assert_eq!(stats.sessions_evicted, 0);
        assert_eq!(stats.frames_malformed, 0);
        assert!(stats.peak_resident_sessions >= 2, "setups overlapped");
    }

    #[test]
    fn malformed_frames_are_counted_and_skipped_not_fatal() {
        let traces = traces(2);
        let stream = interleave(&traces, Duration::from_millis(5));
        let mut frames = frames_of(&stream);
        // A runt (no Ethernet header) and a truncated IPv4 frame.
        frames.insert(0, (Timestamp::ZERO, vec![0xab; 9]));
        let mut truncated = stream[0].encode();
        truncated.truncate(20);
        frames.insert(3, (stream[0].timestamp, truncated));
        let mut runtime = runtime(StreamConfig::default());
        let reports = run(&mut runtime, MemoryFrameSource::new(frames));
        assert_eq!(reports.len(), 2, "both devices still onboard");
        let stats = runtime.stats();
        assert_eq!(stats.frames_malformed, 2);
        // Malformed frames are not stream input: `packets_in` counts
        // exactly the well-formed frames.
        assert_eq!(stats.packets_in, stream.len() as u64);
    }

    #[test]
    fn injected_malformed_frames_change_only_the_malformed_counter() {
        // Injecting malformed frames must leave every other stat (and
        // every report) identical to the clean stream — malformed frames
        // consume no sequence number and show up only in
        // `frames_malformed`.
        let traces = traces(6);
        let stream = interleave(&traces, Duration::from_millis(5));
        let mut clean = runtime(StreamConfig::default());
        let clean_reports = run_packets(&mut clean, &stream);
        let mut frames = frames_of(&stream);
        // A runt up front, a truncated IPv4 frame early (before its
        // device onboards), and a runt at the tail.
        frames.insert(0, (Timestamp::ZERO, vec![0xcd; 5]));
        let mut truncated = stream[1].encode();
        truncated.truncate(16);
        frames.insert(4, (stream[1].timestamp, truncated));
        frames.push((stream.last().unwrap().timestamp, vec![0xee; 13]));
        let mut dirty = runtime(StreamConfig::default());
        let dirty_reports = run(&mut dirty, MemoryFrameSource::new(frames));
        assert_eq!(dirty_reports, clean_reports);
        let mut expected = clean.stats().clone();
        expected.frames_malformed += 3;
        assert_eq!(dirty.stats(), &expected);
    }

    #[test]
    fn results_are_identical_for_any_batch_size() {
        let traces = traces(10);
        let stream = interleave(&traces, Duration::from_millis(5));
        let outputs: Vec<_> = [1usize, 7, 1024]
            .iter()
            .map(|&batch_size| {
                let mut runtime = runtime(StreamConfig {
                    batch_size,
                    ..StreamConfig::default()
                });
                let reports = run_packets(&mut runtime, &stream);
                (reports, runtime.stats().clone())
            })
            .collect();
        for (reports, stats) in &outputs[1..] {
            assert_eq!(reports, &outputs[0].0);
            assert_eq!(stats, &outputs[0].1);
        }
    }

    #[test]
    fn bounded_table_sheds_oldest_idle_session() {
        let traces = traces(6);
        let stream = interleave(&traces, Duration::ZERO);
        // Two slots: six concurrent setups must shed.
        let mut runtime = runtime(StreamConfig {
            max_sessions: 2,
            ..StreamConfig::default()
        });
        run_packets(&mut runtime, &stream);
        let stats = runtime.stats();
        assert!(stats.sessions_evicted > 0, "overflow must shed: {stats}");
        assert!(stats.peak_resident_sessions <= 2);
        assert_eq!(
            stats.sessions_opened,
            stats.sessions_completed() + stats.sessions_evicted
        );
    }

    /// One setup-phase frame of the `n`-th test device, `micros` into
    /// the capture (far inside the idle gap of its neighbours).
    fn frame_of(n: u8, micros: u64) -> (Timestamp, Vec<u8>) {
        let packet = Packet::dhcp_discover(MacAddr::new([2, 0, 0, 0, 0, n]), 7, micros);
        (packet.timestamp, packet.encode())
    }

    /// What the table holds for the `n`-th test device.
    fn probe_of(runtime: &StreamRuntime<StubService>, n: u8) -> Probe {
        runtime.table.probe(MacAddr::new([2, 0, 0, 0, 0, n]))
    }

    /// Two slots, both taken: device 1 (least recently active), then
    /// device 2.
    fn full_two_slot_runtime() -> StreamRuntime<StubService> {
        let mut runtime = runtime(StreamConfig {
            max_sessions: 2,
            ..StreamConfig::default()
        });
        runtime.ingest_frames(&[frame_of(1, 0), frame_of(2, 10)]);
        assert_eq!(runtime.resident_sessions(), 2);
        runtime
    }

    #[test]
    fn readmission_of_a_resident_mac_at_capacity_sheds_nobody() {
        // Regression (PR 9): a full table seeing the next frame of a
        // device that is already mid-setup must not treat it as a new
        // admission and shed an innocent LRU neighbour.
        let mut runtime = full_two_slot_runtime();
        let before = runtime.stats().clone();
        for (n, micros) in [(2, 20), (1, 30), (2, 40)] {
            runtime.ingest_frames(&[frame_of(n, micros)]);
            let stats = runtime.stats();
            assert_eq!(stats.sessions_opened, before.sessions_opened);
            assert_eq!(stats.sessions_evicted, 0);
            assert_eq!(runtime.resident_sessions(), 2);
            assert!(matches!(probe_of(&runtime, 1), Probe::Resident(_)));
            assert!(matches!(probe_of(&runtime, 2), Probe::Resident(_)));
        }
        assert_eq!(runtime.flush().len(), 2);
        assert_eq!(runtime.stats().packets_in, 5);
    }

    #[test]
    fn readmission_after_shedding_opens_once_and_evicts_once() {
        // The roaming shape: a device whose session was shed re-appears
        // at the same gateway. It is a newcomer again — exactly one
        // open, exactly one eviction, never two.
        let mut runtime = full_two_slot_runtime();
        runtime.ingest_frames(&[frame_of(3, 20)]);
        assert_eq!(probe_of(&runtime, 1), Probe::Absent, "LRU device shed");
        let stats = runtime.stats();
        assert_eq!((stats.sessions_opened, stats.sessions_evicted), (3, 1));

        runtime.ingest_frames(&[frame_of(1, 30)]);
        let stats = runtime.stats();
        assert_eq!((stats.sessions_opened, stats.sessions_evicted), (4, 2));
        assert_eq!(runtime.resident_sessions(), 2);
        assert_eq!(probe_of(&runtime, 2), Probe::Absent, "device 2 was LRU");
        assert!(matches!(probe_of(&runtime, 1), Probe::Resident(_)));
        assert!(matches!(probe_of(&runtime, 3), Probe::Resident(_)));
    }

    /// `opened − evicted − completed == resident`, and never above the peak.
    fn assert_conserved(runtime: &StreamRuntime<StubService>) {
        let stats = runtime.stats();
        assert_eq!(
            stats.sessions_opened - stats.sessions_evicted - stats.sessions_completed(),
            runtime.resident_sessions() as u64,
            "{stats}"
        );
        assert!(runtime.resident_sessions() <= stats.peak_resident_sessions);
    }

    #[test]
    fn sessions_are_conserved_after_every_call_at_any_batch_size() {
        // ROADMAP 4a: opened − evicted − completed == resident, checked
        // after every call.
        let traces = traces(10);
        let mut stream = frames_of(&interleave(&traces, Duration::from_millis(5)));
        // Keep-alives long after setup close four sessions by idle gap,
        // so completions happen mid-stream and not only at the flush.
        let end = stream.last().unwrap().0;
        for (i, trace) in traces.iter().take(4).enumerate() {
            let late = end + Duration::from_secs(60 + i as u64);
            stream.push((late, trace.packets[0].encode()));
        }
        let outputs: Vec<_> = [1usize, 7, 1024]
            .iter()
            .map(|&batch| {
                // Eight slots for ten setups: the table also sheds.
                let mut runtime = runtime(StreamConfig {
                    max_sessions: 8,
                    ..StreamConfig::default()
                });
                let mut reports = Vec::new();
                let conserved = |runtime: &StreamRuntime<StubService>, done: usize| {
                    assert_eq!(runtime.stats().sessions_completed(), done as u64);
                    assert_conserved(runtime);
                };
                for chunk in stream.chunks(batch) {
                    reports.extend(runtime.ingest_frames(chunk));
                    conserved(&runtime, reports.len());
                }
                assert!(!reports.is_empty(), "idle gaps complete mid-stream");
                reports.extend(runtime.flush());
                conserved(&runtime, reports.len());
                assert_eq!(runtime.resident_sessions(), 0);
                let mut stats = runtime.stats().clone();
                assert!(stats.sessions_evicted > 0 && stats.peak_resident_sessions <= 8);
                // Sampled per call, so it depends on where calls end.
                stats.peak_resident_sessions = 0;
                (reports, stats)
            })
            .collect();
        assert_eq!(outputs[1], outputs[0]);
        assert_eq!(outputs[2], outputs[0]);
    }

    #[test]
    fn deferred_ingest_keeps_the_same_running_count() {
        let traces = traces(6);
        let stream = frames_of(&interleave(&traces, Duration::from_millis(5)));
        let mut inline = runtime(StreamConfig::default());
        let mut deferred = runtime(StreamConfig::default());
        let mut completions = Vec::new();
        for chunk in stream.chunks(16) {
            inline.ingest_frames(chunk);
            deferred.ingest_frames_deferred(chunk, &mut completions);
            assert_eq!(deferred.resident_sessions(), inline.resident_sessions());
        }
        assert_eq!(deferred.stats(), inline.stats());
        deferred.flush_deferred(&mut completions);
        assert_eq!((deferred.resident_sessions(), completions.len()), (0, 6));
    }

    #[test]
    fn ignored_macs_never_open_sessions() {
        let traces = traces(2);
        let stream = interleave(&traces, Duration::from_millis(5));
        let mut runtime = runtime(StreamConfig {
            ignored: vec![traces[0].mac],
            ..StreamConfig::default()
        });
        let reports = run_packets(&mut runtime, &stream);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].mac, traces[1].mac);
        assert!(runtime.enforcement().cache().get(traces[0].mac).is_none());
        assert_eq!(
            runtime.stats().packets_ignored,
            traces[0].packets.len() as u64
        );
    }

    #[test]
    fn steady_state_traffic_after_gap_completion_is_ignored() {
        let devices = catalog();
        let trace = Testbed::new(9).setup_run(&devices[0].profile, 0);
        let mut stream = trace.packets.clone();
        // Keep-alives long after setup: first one closes the session,
        // the rest are post-onboarding traffic.
        for i in 0..3u64 {
            let mut late = trace.packets[0].clone();
            late.timestamp =
                trace.packets.last().unwrap().timestamp + Duration::from_secs(60 + i * 30);
            stream.push(late);
        }
        let mut runtime = runtime(StreamConfig::default());
        let reports = run_packets(&mut runtime, &stream);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].setup_packets, trace.packets.len());
        let stats = runtime.stats();
        assert_eq!(stats.completed_idle_gap, 1);
        assert_eq!(stats.completed_flush, 0);
        assert_eq!(stats.packets_ignored, 2, "keep-alives after onboarding");
    }

    #[test]
    fn packet_cap_closes_the_window_at_exactly_max_packets() {
        let traces = traces(1);
        let mut runtime = runtime(StreamConfig {
            detector: SetupDetector::new(2, Duration::from_secs(10), 5),
            ..StreamConfig::default()
        });
        let reports = run_packets(&mut runtime, &traces[0].packets);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].setup_packets, 5);
        assert_eq!(runtime.stats().completed_packet_cap, 1);
    }

    #[test]
    fn strict_device_cannot_reach_internet_after_onboarding() {
        let traces = traces(1);
        let mut runtime = StreamRuntime::new(StubService {
            isolation: IsolationLevel::Strict,
        });
        run_packets(&mut runtime, &traces[0].packets);
        let outbound = Packet::udp_ipv4(
            Timestamp::from_secs(300),
            traces[0].mac,
            MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]),
            traces[0].device_ip,
            Ipv4Addr::new(52, 1, 1, 1),
            50000,
            443,
            sentinel_netproto::AppPayload::Empty,
        );
        assert_eq!(runtime.enforce(&outbound).action, FlowAction::Drop);
    }

    #[test]
    fn a_removed_device_is_onboarded_again_when_it_returns() {
        let traces = traces(2);
        let (left, other) = (&traces[0], &traces[1]);
        let mut runtime = runtime(StreamConfig::default());
        let first = run_packets(&mut runtime, &left.packets);
        assert_eq!(first.len(), 1);
        assert_conserved(&runtime);

        // It leaves: its rule goes, the MAC is unknown again.
        let rule = runtime
            .remove_device(left.mac)
            .expect("an onboarded device's rule");
        assert_eq!((rule.mac, rule.level), (left.mac, IsolationLevel::Trusted));
        assert_conserved(&runtime);
        assert!(runtime.enforcement().cache().get(left.mac).is_none());
        assert_eq!(
            runtime.enforcement().level_of(left.mac),
            IsolationLevel::Strict,
            "fell back to the unknown-device default"
        );
        assert_eq!(runtime.stats().sessions_evicted, 0, "nothing was mid-setup");
        // Forgetting a MAC nobody has seen changes nothing.
        let before = runtime.stats().clone();
        assert!(runtime.remove_device(other.mac).is_none());
        assert_eq!(runtime.stats(), &before);

        // It returns an hour later: a newcomer, onboarded a second time.
        let later: Vec<Packet> = left
            .packets
            .iter()
            .map(|packet| {
                let mut packet = packet.clone();
                packet.timestamp += Duration::from_secs(3600);
                packet
            })
            .collect();
        let second = run_packets(&mut runtime, &later);
        assert_conserved(&runtime);
        assert_eq!(second.len(), 1, "a second report");
        assert_eq!(second[0].setup_packets, first[0].setup_packets);
        assert_eq!(second[0].mac, left.mac);
        assert!(runtime.enforcement().cache().get(left.mac).is_some());
        let stats = runtime.stats();
        assert_eq!((stats.sessions_opened, stats.sessions_completed()), (2, 2));

        // Removing a device that is mid-setup sheds its session.
        runtime.ingest_frames(&frames_of(&other.packets[..3]));
        assert_eq!(runtime.resident_sessions(), 1);
        assert_conserved(&runtime);
        assert!(runtime.remove_device(other.mac).is_none(), "no rule yet");
        assert_eq!(runtime.resident_sessions(), 0);
        assert_eq!(runtime.stats().sessions_evicted, 1);
        assert_conserved(&runtime);
        assert!(runtime.flush().is_empty());
    }

    #[test]
    fn byte_cap_bounds_session_growth() {
        let traces = traces(1);
        let mut runtime = runtime(StreamConfig {
            session_byte_cap: 64,
            ..StreamConfig::default()
        });
        let reports = run_packets(&mut runtime, &traces[0].packets);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].setup_packets < traces[0].packets.len());
        assert_eq!(runtime.stats().completed_byte_cap, 1);
    }

    /// FNV-1a of the MAC's octets, modulo 64: until the gateway kept one
    /// table, it split its sessions by this hash over 64 tables of
    /// `max_sessions / 64` slots, each shedding on its own.
    fn former_table(mac: MacAddr) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in mac.octets() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        hash % 64
    }

    #[test]
    fn a_mac_flood_below_capacity_cannot_shed_a_device_mid_setup() {
        // ROADMAP 3: one-frame spoofed MACs can only push a device out
        // of a full table. One short of the capacity — the first 64
        // aimed at the device's former 64-slot table, which shed it at
        // the 64th — they shed nobody.
        let config = StreamConfig::default();
        let device = &traces(1)[0];
        let (first, rest) = device.packets.split_at(3);
        let target = former_table(device.mac);
        let colliding = (0u32..)
            .map(|n| {
                let [_, a, b, c] = n.to_be_bytes();
                MacAddr::new([2, 0x5f, 0, a, b, c])
            })
            .filter(|&mac| former_table(mac) == target)
            .take(64);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let pseudo_random = std::iter::from_fn(|| {
            state = state
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let [_, _, a, b, c, d, e, _] = state.to_be_bytes();
            Some(MacAddr::new([2, a, b, c, d, e]))
        });
        let mut seen = HashSet::from([device.mac]);
        let flood = colliding
            .chain(pseudo_random)
            .filter(|&mac| seen.insert(mac))
            .take(config.max_sessions - 1);
        let at = first[2].timestamp;
        let mut frames = frames_of(first);
        frames.extend(flood.map(|mac| (at, Packet::dhcp_discover(mac, 7, 0).encode())));
        frames.extend(frames_of(rest));

        let mut runtime = runtime(config.clone());
        let reports = run(&mut runtime, MemoryFrameSource::new(frames));
        let stats = runtime.stats();
        assert_eq!(stats.sessions_evicted, 0, "{stats}");
        assert_eq!(stats.peak_resident_sessions, config.max_sessions);
        let report = report_of(&reports, device.mac).expect("onboarded");
        assert_eq!(report.setup_packets, device.packets.len());
    }
}
