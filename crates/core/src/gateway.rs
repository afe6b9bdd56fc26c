//! The Security Gateway (Sect. III-A, V): device monitoring,
//! fingerprinting, and enforcement.

use std::collections::HashMap;
use std::time::Duration;

use sentinel_fingerprint::setup::SetupDetector;
use sentinel_fingerprint::{FeatureExtractor, FixedFingerprint};
use sentinel_netproto::{MacAddr, Packet, ParseError, RawFeatures, Timestamp};
use sentinel_sdn::{EnforcementModule, OvsSwitch, SwitchDecision};

use crate::identify::AssessKey;
use crate::report::OnboardingReport;
use crate::service::AssessScratch;
use crate::SecurityService;

/// Gateway tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GatewayConfig {
    /// Setup-phase end detection parameters.
    pub detector: SetupDetector,
    /// Hosts whose traffic is never monitored (the gateway itself,
    /// infrastructure).
    pub ignored: Vec<MacAddr>,
}

/// Bounded per-device monitoring state.
///
/// Packets are folded straight into the incremental feature extractor,
/// so the gateway never retains raw packets: what grows is the feature
/// matrix, and only up to the detector's identification window (the
/// paper's first-*n* packet limit) because `observe` finalizes at
/// `max_packets`. A chatty device costs the same memory as a quiet one.
#[derive(Debug)]
struct MonitorState {
    extractor: FeatureExtractor,
    packets: usize,
    last_seen: Timestamp,
    /// Stream sequence number of the last packet this monitor absorbed
    /// (the assessment key when the device is finalized explicitly).
    last_seq: u64,
}

/// The Security Gateway: monitors new devices, extracts their
/// fingerprints, consults the IoT Security Service and enforces the
/// returned isolation level through the SDN switch.
#[derive(Debug)]
pub struct SecurityGateway<S> {
    service: S,
    config: GatewayConfig,
    monitors: HashMap<MacAddr, MonitorState>,
    onboarded: HashMap<MacAddr, OnboardingReport>,
    switch: OvsSwitch,
    module: EnforcementModule,
    /// Stream sequence counter: every well-formed observed packet
    /// consumes one number (including packets from ignored or already
    /// onboarded MACs; malformed frames consume none). Assessments are
    /// keyed by `(seq, mac)` ([`AssessKey`]), so a
    /// gateway fed a packet stream and a sharded `StreamRuntime`
    /// (`sentinel-stream`) fed the same stream derive identical keys —
    /// and identical reports.
    next_seq: u64,
    /// Warm working memory for the batch-of-one assessment each
    /// finalize makes.
    scratch: AssessScratch,
}

impl<S: SecurityService> SecurityGateway<S> {
    /// Creates a gateway backed by `service`, with default configuration
    /// and the lab subnet.
    pub fn new(service: S) -> Self {
        Self::with_config(service, GatewayConfig::default())
    }

    /// Creates a gateway with explicit configuration.
    pub fn with_config(service: S, config: GatewayConfig) -> Self {
        SecurityGateway {
            service,
            config,
            monitors: HashMap::new(),
            onboarded: HashMap::new(),
            switch: OvsSwitch::lab(),
            module: EnforcementModule::new(),
            next_seq: 0,
            scratch: AssessScratch::default(),
        }
    }

    /// Observes one packet on the gateway's interfaces: unknown source
    /// MACs enter monitoring; monitored devices whose packet rate has
    /// collapsed are finalized automatically.
    ///
    /// Returns the onboarding report if this packet completed an
    /// identification.
    pub fn observe(&mut self, packet: &Packet) -> Option<OnboardingReport> {
        self.observe_raw(&RawFeatures::from_packet(packet), packet.timestamp)
    }

    /// Observes one raw Ethernet frame through the zero-copy wire
    /// scanner (`sentinel_netproto::scan`), never constructing a
    /// [`Packet`] for a frame the scanner can certify. Monitoring
    /// decisions, fingerprints and reports are bit-identical to
    /// [`SecurityGateway::observe`] on the decoded packet.
    ///
    /// # Errors
    ///
    /// Errors exactly when `Packet::parse` would reject the frame.
    pub fn observe_frame(
        &mut self,
        frame: &[u8],
        timestamp: Timestamp,
    ) -> Result<Option<OnboardingReport>, ParseError> {
        let raw = RawFeatures::from_frame(frame)?;
        Ok(self.observe_raw(&raw, timestamp))
    }

    /// The shared monitoring state machine behind both observe paths.
    fn observe_raw(&mut self, raw: &RawFeatures, timestamp: Timestamp) -> Option<OnboardingReport> {
        // Every well-formed packet consumes one sequence number, even
        // from ignored or onboarded MACs: the counter tracks stream
        // position, not monitoring activity, so it agrees with the
        // streaming runtime's packet indices.
        let seq = self.next_seq;
        self.next_seq += 1;
        let mac = raw.src_mac;
        if self.config.ignored.contains(&mac) || self.onboarded.contains_key(&mac) {
            return None;
        }
        let capacity = self.config.detector.max_packets.min(1024);
        let monitor = self.monitors.entry(mac).or_insert_with(|| MonitorState {
            extractor: FeatureExtractor::with_capacity(capacity),
            packets: 0,
            last_seen: timestamp,
            last_seq: seq,
        });
        // Setup-end detection: a long transmission gap after enough
        // packets closes the setup phase; the new packet belongs to the
        // device's steady-state traffic. The completion is keyed by the
        // *closing* packet's sequence number (it triggered assessment,
        // even though it is not part of the fingerprint).
        if monitor.packets >= self.config.detector.min_packets
            && timestamp.saturating_since(monitor.last_seen) >= self.config.detector.idle_gap
        {
            let report = self.finalize_at(mac, seq);
            return report;
        }
        monitor.extractor.push_raw(raw);
        monitor.packets += 1;
        monitor.last_seen = timestamp;
        monitor.last_seq = seq;
        if monitor.packets >= self.config.detector.max_packets {
            return self.finalize_at(mac, seq);
        }
        None
    }

    /// Forces fingerprinting and identification of a monitored device
    /// (e.g. when its setup activity clearly ended). Returns `None` if
    /// the MAC was not being monitored.
    ///
    /// Keyed by the last packet the monitor absorbed: an explicit flush
    /// assesses the device exactly as if its last packet had completed
    /// the window.
    pub fn finalize(&mut self, mac: MacAddr) -> Option<OnboardingReport> {
        let seq = self.monitors.get(&mac)?.last_seq;
        self.finalize_at(mac, seq)
    }

    /// Assessment + enforcement for a monitored device, keyed by
    /// `(seq, mac)` ([`AssessKey`]).
    fn finalize_at(&mut self, mac: MacAddr, seq: u64) -> Option<OnboardingReport> {
        let monitor = self.monitors.remove(&mac)?;
        let setup_packets = monitor.packets;
        let full = monitor.extractor.finish();
        let fixed = FixedFingerprint::from_fingerprint(&full);
        let mut responses = Vec::with_capacity(1);
        self.service.assess_keyed_batch_into(
            &[(&full, &fixed, AssessKey::new(seq, mac))],
            &mut self.scratch,
            &mut responses,
        );
        let response = responses.pop().expect("one item in, one response out");
        self.module.install_rule(response.rule_for(mac));
        let report = OnboardingReport {
            mac,
            setup_packets,
            response,
        };
        self.onboarded.insert(mac, report.clone());
        Some(report)
    }

    /// Forwards or drops a packet according to the installed enforcement
    /// state (the data-plane path).
    pub fn enforce(&mut self, packet: &Packet) -> SwitchDecision {
        self.switch.process(packet, &mut self.module)
    }

    /// The report for an onboarded device, if it completed
    /// identification.
    pub fn report(&self, mac: MacAddr) -> Option<&OnboardingReport> {
        self.onboarded.get(&mac)
    }

    /// MAC addresses currently being monitored.
    pub fn monitoring(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.monitors.keys().copied()
    }

    /// Number of setup packets consumed for a monitored device (the
    /// packets themselves are not retained, only their features).
    pub fn monitored_packets(&self, mac: MacAddr) -> usize {
        self.monitors.get(&mac).map_or(0, |m| m.packets)
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

    /// Mutable switch access (e.g. toggling filtering for baselines).
    pub fn switch_mut(&mut self) -> &mut OvsSwitch {
        &mut self.switch
    }

    /// The backing security service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Forgets a device entirely (it left the network): removes its
    /// rule and any monitor state.
    pub fn remove_device(&mut self, mac: MacAddr) {
        self.monitors.remove(&mac);
        self.onboarded.remove(&mac);
        self.module.remove_rule(mac);
    }

    /// Expires idle flow-table entries.
    pub fn expire_flows(&mut self, now: sentinel_netproto::Timestamp, idle: Duration) -> usize {
        self.switch.table_mut().expire_idle(now, idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Identification, Outcome, ServiceResponse};
    use sentinel_devicesim::{catalog, Testbed};
    use sentinel_fingerprint::Fingerprint;
    use sentinel_netproto::Timestamp;
    use sentinel_sdn::{FlowAction, IsolationLevel};
    use std::net::Ipv4Addr;

    /// A service stub with a scripted response, for gateway-logic tests.
    struct StubService {
        isolation: IsolationLevel,
    }

    impl SecurityService for StubService {
        fn assess(&self, _full: &Fingerprint, _fixed: &FixedFingerprint) -> ServiceResponse {
            ServiceResponse {
                identification: Identification {
                    outcome: Outcome::Identified {
                        label: 0,
                        name: "Stub".into(),
                    },
                    candidates: vec![0],
                    discriminated: false,
                    scores: vec![],
                },
                isolation: self.isolation,
                permitted_endpoints: vec![],
                user_notification: None,
            }
        }
    }

    fn device_trace() -> sentinel_devicesim::SetupTrace {
        let devices = catalog();
        Testbed::new(5).setup_run(&devices[0].profile, 0)
    }

    #[test]
    fn monitors_new_mac_and_finalizes() {
        let mut gateway = SecurityGateway::new(StubService {
            isolation: IsolationLevel::Trusted,
        });
        let trace = device_trace();
        for packet in &trace.packets {
            assert!(gateway.observe(packet).is_none());
        }
        assert_eq!(gateway.monitored_packets(trace.mac), trace.packets.len());
        let report = gateway.finalize(trace.mac).expect("monitored");
        assert_eq!(report.mac, trace.mac);
        assert_eq!(report.setup_packets, trace.packets.len());
        assert_eq!(
            gateway.enforcement().level_of(trace.mac),
            IsolationLevel::Trusted
        );
        assert!(gateway.report(trace.mac).is_some());
    }

    #[test]
    fn frame_observation_matches_packet_observation() {
        let trace = device_trace();
        let make = || {
            SecurityGateway::new(StubService {
                isolation: IsolationLevel::Restricted,
            })
        };
        let mut decoded = make();
        let mut scanned = make();
        for packet in &trace.packets {
            let frame = packet.encode();
            let via_packet = decoded.observe(packet);
            let via_frame = scanned
                .observe_frame(&frame, packet.timestamp)
                .expect("simulated frames are well-formed");
            assert_eq!(via_frame, via_packet);
        }
        assert_eq!(
            scanned.monitored_packets(trace.mac),
            decoded.monitored_packets(trace.mac)
        );
        assert_eq!(scanned.finalize(trace.mac), decoded.finalize(trace.mac));
    }

    #[test]
    fn observe_frame_rejects_what_the_decoder_rejects() {
        let mut gateway = SecurityGateway::new(StubService {
            isolation: IsolationLevel::Trusted,
        });
        let trace = device_trace();
        let mut truncated = trace.packets[0].encode();
        truncated.truncate(16);
        assert!(gateway.observe_frame(&truncated, Timestamp::ZERO).is_err());
        assert_eq!(gateway.monitoring().count(), 0, "no monitor state leaked");
    }

    #[test]
    fn idle_gap_triggers_automatic_finalization() {
        let mut gateway = SecurityGateway::new(StubService {
            isolation: IsolationLevel::Strict,
        });
        let trace = device_trace();
        for packet in &trace.packets {
            gateway.observe(packet);
        }
        // A keep-alive long after setup closes the monitoring window.
        let mut late = trace.packets[0].clone();
        late.timestamp = trace.packets.last().unwrap().timestamp + Duration::from_secs(60);
        let report = gateway.observe(&late).expect("auto-finalized");
        assert_eq!(report.mac, trace.mac);
    }

    #[test]
    fn strict_device_cannot_reach_internet_after_onboarding() {
        let mut gateway = SecurityGateway::new(StubService {
            isolation: IsolationLevel::Strict,
        });
        let trace = device_trace();
        for packet in &trace.packets {
            gateway.observe(packet);
        }
        gateway.finalize(trace.mac);
        let outbound = Packet::udp_ipv4(
            Timestamp::from_secs(300),
            trace.mac,
            MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]),
            trace.device_ip,
            Ipv4Addr::new(52, 1, 1, 1),
            50000,
            443,
            sentinel_netproto::AppPayload::Empty,
        );
        assert_eq!(gateway.enforce(&outbound).action, FlowAction::Drop);
    }

    #[test]
    fn ignored_macs_are_not_monitored() {
        let trace = device_trace();
        let mut gateway = SecurityGateway::with_config(
            StubService {
                isolation: IsolationLevel::Trusted,
            },
            GatewayConfig {
                ignored: vec![trace.mac],
                ..GatewayConfig::default()
            },
        );
        for packet in &trace.packets {
            gateway.observe(packet);
        }
        assert_eq!(gateway.monitoring().count(), 0);
        assert!(gateway.finalize(trace.mac).is_none());
    }

    #[test]
    fn remove_device_clears_state() {
        let mut gateway = SecurityGateway::new(StubService {
            isolation: IsolationLevel::Trusted,
        });
        let trace = device_trace();
        for packet in &trace.packets {
            gateway.observe(packet);
        }
        gateway.finalize(trace.mac);
        gateway.remove_device(trace.mac);
        assert!(gateway.report(trace.mac).is_none());
        assert_eq!(
            gateway.enforcement().level_of(trace.mac),
            IsolationLevel::Strict,
            "fell back to the unknown-device default"
        );
    }

    #[test]
    fn max_packets_caps_monitoring() {
        let mut gateway = SecurityGateway::with_config(
            StubService {
                isolation: IsolationLevel::Trusted,
            },
            GatewayConfig {
                detector: SetupDetector::new(2, Duration::from_secs(10), 5),
                ignored: vec![],
            },
        );
        let trace = device_trace();
        let mut report = None;
        for packet in &trace.packets {
            if let Some(r) = gateway.observe(packet) {
                report = Some(r);
                break;
            }
        }
        let report = report.expect("cap reached");
        assert_eq!(report.setup_packets, 5);
    }
}
