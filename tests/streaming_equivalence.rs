//! Streaming equivalence: an interleaved multi-device stream pushed
//! through `sentinel-stream` must reach exactly the decisions of a naive
//! sequential gateway — a test-local model ([`sequential_baseline`]),
//! written out independently of the runtime's session code — bit for bit
//! on the same stream, and the decisions of gateways onboarding each
//! device's trace alone, at ingest batch sizes 1, 7 and 1024. The
//! runtime ingests raw frames through the wire scan; the model observes
//! owned `Packet`s, so every comparison here is also the end-to-end
//! scan-vs-decode differential.
//!
//! Every assessment is keyed by `(seq, mac)`, so one *shared* service
//! instance must answer bit-identically no matter how many runtimes
//! consult it, however the completions are cut into batches — a single
//! item being a batch of one. A parameterised case and a proptest pin
//! that per-completion contract at the service level.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use iot_sentinel::core::{
    AssessKey, AssessScratch, BankConfig, FingerprintDataset, Identifier, IdentifierConfig,
    IdentifyMode, IoTSecurityService, OnboardingReport, SecurityService, ServiceResponse,
    TrainedModel,
};
use iot_sentinel::devicesim::{catalog, interleave, SetupTrace, Testbed};
use iot_sentinel::fingerprint::setup::SetupDetector;
use iot_sentinel::fingerprint::{extract, FeatureExtractor, Fingerprint, FixedFingerprint};
use iot_sentinel::ml::{ForestConfig, PinnedRng};
use iot_sentinel::netproto::pcap::{PcapReader, PcapWriter};
use iot_sentinel::netproto::stream::MemoryFrameSource;
use iot_sentinel::netproto::{
    AppPayload, MacAddr, Packet, ParseError, RawFeatures, ScanOutcome, Timestamp, WireScan,
};
use iot_sentinel::sdn::IsolationLevel;
use iot_sentinel::stream::{StreamConfig, StreamRuntime};

/// A real trained IoTSSP, small enough for test time.
///
/// `references_per_type` covers the whole 8-run training pool so stage-2
/// discrimination always scores against every reference: the *set* of
/// references (and therefore the decision) does not depend on the
/// assessment key — only the floating-point summation order of the
/// scores does — which lets a trace onboarded alone (different stream
/// positions, different keys) be compared with the interleaved stream.
fn trained_model() -> TrainedModel {
    trained_model_with(IdentifierConfig {
        references_per_type: 8,
        ..IdentifierConfig::default()
    })
}

/// Trains on 8 runs of the whole catalog with 25-tree forests; `config`
/// supplies everything but the bank.
fn trained_model_with(config: IdentifierConfig) -> TrainedModel {
    let dataset = FingerprintDataset::collect(&catalog(), 8, 42);
    let config = IdentifierConfig {
        bank: BankConfig {
            forest: ForestConfig::default().with_trees(25),
            ..BankConfig::default()
        },
        ..config
    };
    TrainedModel::from(&Identifier::train(&dataset, &config))
}

/// Reassembles the snapshot into an independent service instance.
/// Assessment is a pure function of the model, the fingerprints and the
/// key, so two instances of the same model are interchangeable — the
/// separate instances here just mirror the deployment shape (one IoTSSP
/// per site).
fn fresh_service(model: &TrainedModel) -> IoTSecurityService {
    IoTSecurityService::from_identifier(Identifier::from(model.clone()))
}

/// ≥20 concurrent setup runs spanning the whole catalog.
fn concurrent_traces(n: usize) -> Vec<SetupTrace> {
    let devices = catalog();
    let testbed = Testbed::new(0x0e9);
    (0..n)
        .map(|i| {
            let device = &devices[i % devices.len()];
            testbed.setup_run(&device.profile, 300 + (i / devices.len()) as u64)
        })
        .collect()
}

/// What the model gateway keeps for a device it is monitoring.
struct Monitor {
    extractor: FeatureExtractor,
    packets: usize,
    last_seen: Timestamp,
    last_seq: u64,
}

/// The reference semantics the runtime must reproduce exactly: a
/// naive sequential Security Gateway over one map, restated here without
/// `Session` or `SessionTable`. Every packet takes the next stream
/// sequence number; a device's setup window closes at the first idle gap
/// once `min_packets` were absorbed (the packet that reveals the gap is
/// steady-state traffic and stays out of the fingerprint) or at
/// `max_packets`; the completion is assessed under the key `(seq of the
/// closing packet, mac)`. Devices still monitored at end of stream are
/// finalized in the order of their last absorbed packet (ties by MAC),
/// keyed by it. Packets are observed decoded (`RawFeatures::from_packet`).
fn sequential_baseline(service: &IoTSecurityService, stream: &[Packet]) -> Vec<OnboardingReport> {
    let detector = SetupDetector::default();
    let mut monitors: HashMap<MacAddr, Monitor> = HashMap::new();
    let mut onboarded: HashSet<MacAddr> = HashSet::new();
    let finalize = |mac: MacAddr, seq: u64, monitor: Monitor| {
        let full = monitor.extractor.finish();
        let fixed = FixedFingerprint::from_fingerprint(&full);
        OnboardingReport {
            mac,
            setup_packets: monitor.packets,
            response: service.assess_keyed(&full, &fixed, AssessKey::new(seq, mac)),
        }
    };
    let mut reports = Vec::new();
    for (seq, packet) in (0u64..).zip(stream) {
        let (mac, now) = (packet.src_mac(), packet.timestamp);
        if onboarded.contains(&mac) {
            continue;
        }
        let monitor = monitors.entry(mac).or_insert_with(|| Monitor {
            extractor: FeatureExtractor::new(),
            packets: 0,
            last_seen: now,
            last_seq: seq,
        });
        let idle = now.saturating_since(monitor.last_seen) >= detector.idle_gap;
        let gap = monitor.packets >= detector.min_packets && idle;
        if !gap {
            monitor
                .extractor
                .push_raw(&RawFeatures::from_packet(packet));
            monitor.packets += 1;
            (monitor.last_seen, monitor.last_seq) = (now, seq);
        }
        if gap || monitor.packets >= detector.max_packets {
            let monitor = monitors.remove(&mac).expect("just monitored");
            onboarded.insert(mac);
            reports.push(finalize(mac, seq, monitor));
        }
    }
    let mut leftover: Vec<(MacAddr, Monitor)> = monitors.into_iter().collect();
    leftover.sort_by_key(|(mac, monitor)| (monitor.last_seq, *mac));
    for (mac, monitor) in leftover {
        reports.push(finalize(mac, monitor.last_seq, monitor));
    }
    reports
}

/// Streams `stream` through a fresh runtime over `service`, `batch_size`
/// frames per ingest round.
fn streamed<S: SecurityService>(
    service: S,
    batch_size: usize,
    stream: &[Packet],
) -> (StreamRuntime<S>, Vec<OnboardingReport>) {
    let mut runtime = StreamRuntime::with_config(
        service,
        StreamConfig {
            batch_size,
            ..StreamConfig::default()
        },
    );
    let mut reports = Vec::new();
    runtime
        .run_frames(MemoryFrameSource::from_packets(stream), &mut reports)
        .expect("in-memory source cannot fail");
    (runtime, reports)
}

/// The batch sizes that cut a stream differently: one frame per round
/// (every completion is a batch of one), a size that splits setups
/// mid-burst, and one round for the whole stream.
const BATCH_SIZES: [usize; 3] = [1, 7, 1024];

#[test]
fn interleaved_stream_is_bit_identical_to_a_sequential_gateway() {
    let model = trained_model();
    let traces = concurrent_traces(24);
    // A 9 ms stagger shifts every trace's packets over a common
    // timeline, so dozens of setups are in flight at once.
    let stream = interleave(&traces, Duration::from_millis(9));
    let baseline = sequential_baseline(&fresh_service(&model), &stream);
    assert_eq!(baseline.len(), traces.len(), "every device must onboard");

    for batch_size in BATCH_SIZES {
        let (runtime, reports) = streamed(fresh_service(&model), batch_size, &stream);
        // Same reports, same decision order, bit for bit — scores
        // included. (Both sides key every draw by
        // `(seq, mac)`, so full equality also proves the runtime and
        // the model assign identical stream sequence numbers.)
        assert_eq!(
            reports, baseline,
            "streamed reports diverged from the sequential gateway at batch size {batch_size}"
        );
        assert_eq!(runtime.stats().sessions_evicted, 0);
        for report in &baseline {
            assert_eq!(
                runtime.enforcement().level_of(report.mac),
                report.response.isolation,
                "installed rule diverged for {}",
                report.mac
            );
        }
    }
}

#[test]
fn interleaved_stream_matches_onboarding_each_trace_alone() {
    let model = trained_model();
    let service = fresh_service(&model);
    let traces = concurrent_traces(24);

    // --- Baseline: each trace onboarded alone through its own fresh
    // gateway. The window may close mid-trace (idle gap / packet cap);
    // whatever it decides is the ground truth the stream must reproduce.
    let baseline: Vec<OnboardingReport> = traces
        .iter()
        .map(|trace| {
            let (_, mut alone) = streamed(&service, 1024, &trace.packets);
            assert_eq!(alone.len(), 1, "one device, one report");
            alone.remove(0)
        })
        .collect();

    // --- Streaming: all traces interleaved into one stream. ---
    let stream = interleave(&traces, Duration::from_millis(9));
    for batch_size in BATCH_SIZES {
        let (_, reports) = streamed(&service, batch_size, &stream);
        assert_eq!(reports.len(), traces.len());

        for (trace, expected) in traces.iter().zip(&baseline) {
            let streamed = reports
                .iter()
                .find(|report| report.mac == trace.mac)
                .unwrap_or_else(|| panic!("{} not onboarded at batch {batch_size}", trace.mac));
            // Identical decisions: fingerprint window, identification,
            // candidates and verdict. The dissimilarity scores are summed
            // over the same full reference set but in an RNG-dependent
            // order, so they are compared within float-summation noise
            // rather than bit-for-bit.
            assert_eq!(streamed.mac, expected.mac);
            assert_eq!(streamed.setup_packets, expected.setup_packets);
            assert_eq!(
                streamed.response.identification.outcome, expected.response.identification.outcome,
                "identification diverged for {} at batch size {batch_size}",
                trace.mac
            );
            assert_eq!(
                streamed.response.identification.candidates,
                expected.response.identification.candidates
            );
            assert_eq!(streamed.response.isolation, expected.response.isolation);
            assert_eq!(
                streamed.response.permitted_endpoints,
                expected.response.permitted_endpoints
            );
            assert_eq!(
                streamed.response.user_notification,
                expected.response.user_notification
            );
            let streamed_scores = &streamed.response.identification.scores;
            let expected_scores = &expected.response.identification.scores;
            assert_eq!(streamed_scores.len(), expected_scores.len());
            for (a, b) in streamed_scores.iter().zip(expected_scores) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "score diverged for {}: {a} vs {b}",
                    trace.mac
                );
            }
        }
    }
}

#[test]
fn streaming_identifies_and_isolates_like_the_paper() {
    // Sanity on decision *quality*, not just equivalence: with the full
    // catalog trained, the overwhelming majority of streamed setups must
    // be identified, and at least one vulnerable type must be isolated.
    let service = fresh_service(&trained_model());
    let traces = concurrent_traces(27);
    let stream = interleave(&traces, Duration::from_millis(9));
    let (runtime, reports) = streamed(&service, StreamConfig::default().batch_size, &stream);
    let stats = runtime.stats();
    assert_eq!(stats.sessions_completed(), 27);
    assert!(
        stats.identified >= 20,
        "too few identifications in-stream: {stats}"
    );
    assert!(
        stats.restricted + stats.strict > 0,
        "the seed vulnerability database must isolate someone: {stats}"
    );
    let isolated = reports
        .iter()
        .any(|r| r.response.isolation != IsolationLevel::Trusted);
    assert!(isolated);
}

#[test]
fn one_stateful_service_is_bit_identical_across_batch_sizes_and_paths() {
    // The strongest form of the keyed contract: ONE service instance,
    // serving every run in sequence, must produce bit-identical reports
    // AND stats at batch sizes 1/7/1024, and those reports must be the
    // ones the decode-path sequential model draws from the same
    // instance — running again must not change an answer.
    let model = trained_model();
    let service = fresh_service(&model);
    let traces = concurrent_traces(24);
    let stream = interleave(&traces, Duration::from_millis(9));
    let decoded = sequential_baseline(&service, &stream);

    let mut baseline: Option<iot_sentinel::stream::StreamStats> = None;
    for batch_size in BATCH_SIZES {
        let (runtime, reports) = streamed(&service, batch_size, &stream);
        assert_eq!(
            reports, decoded,
            "scan path diverged from the decode path at batch size {batch_size}"
        );
        assert_eq!(runtime.stats().frames_decoded, 0);
        // The peak is sampled once per ingest call, so it depends on
        // where calls end; everything else may not.
        let mut stats = runtime.stats().clone();
        stats.peak_resident_sessions = 0;
        let expected = baseline.get_or_insert_with(|| stats.clone());
        assert_eq!(
            &stats, expected,
            "stats diverged at batch size {batch_size}"
        );
    }
    assert_eq!(
        sequential_baseline(&service, &stream),
        decoded,
        "the shared service answered differently the second time"
    );
}

#[test]
fn compressed_dns_frame_is_scanned_not_decoded_and_matches_the_gateway() {
    let service = fresh_service(&trained_model());
    let trace = &concurrent_traces(1)[0];
    // A DNS response whose answer name is a compression pointer — what
    // every real resolver sends, and once the scanner's cue to hand the
    // frame to the owning decoder (the frame of `scan.rs`'s
    // `compressed_dns_certifies_to_the_decoded_features`) — sent by the
    // device mid-setup.
    let mut dns = vec![0u8; 12];
    dns[5] = 1; // one question
    dns[7] = 1; // one answer
    dns.extend_from_slice(&[3, b'f', b'o', b'o', 0, 0, 1, 0, 1]); // question
    dns.extend_from_slice(&[0xc0, 12]); // answer name: pointer
    dns.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4]);
    let at = trace.packets.len() / 2;
    let timestamp = trace.packets[at].timestamp;
    let compressed = Packet::udp_ipv4(
        timestamp,
        trace.mac,
        trace.packets[at].dst_mac(),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        53,
        49_000,
        AppPayload::Raw(dns.into()),
    )
    .encode();
    // The scanner follows the pointer itself: the answer's name
    // re-encodes uncompressed, so the frame counts three bytes longer.
    let ScanOutcome::Features(raw) = WireScan::scan(&compressed) else {
        panic!("the scanner certifies a compressed answer");
    };
    assert_eq!(raw.packet_size as usize, compressed.len() + 3);
    let mut frames: Vec<_> = trace
        .packets
        .iter()
        .map(|p| (p.timestamp, p.encode()))
        .collect();
    frames.insert(at, (timestamp, compressed));
    // The decode-path reference sees every frame through the owning decoder.
    let decoded: Vec<Packet> = frames
        .iter()
        .map(|(ts, frame)| Packet::parse(frame, *ts).expect("valid frame"))
        .collect();

    let mut runtime = StreamRuntime::new(&service);
    let mut reports = Vec::new();
    runtime
        .run_frames(MemoryFrameSource::new(frames), &mut reports)
        .expect("in-memory source cannot fail");
    let baseline = sequential_baseline(&service, &decoded);
    assert_eq!(reports, baseline);
    assert_eq!(
        serde_json::to_vec(&reports).unwrap(),
        serde_json::to_vec(&baseline).unwrap()
    );
    assert_eq!(reports[0].setup_packets, trace.packets.len() + 1);
    let stats = runtime.stats();
    assert_eq!(stats.frames_decoded, 0, "ingest has no decode fallback");
    assert_eq!(stats.frames_malformed, 0);
    assert_eq!(stats.packets_in, decoded.len() as u64);
}

#[test]
fn container_error_propagates_and_keeps_what_was_onboarded_before_it() {
    let service = fresh_service(&trained_model());
    let traces = concurrent_traces(2);
    // Device 0 sets up and goes quiet; its keep-alive a minute later
    // closes the session. Device 1 joins after that and is mid-setup
    // when the capture is cut inside its last record's 16-byte header.
    let mut stream = interleave(&traces, Duration::from_secs(120));
    let mut keep_alive = traces[0].packets[0].clone();
    keep_alive.timestamp = traces[0].packets.last().unwrap().timestamp + Duration::from_secs(60);
    stream.insert(traces[0].packets.len(), keep_alive);
    let mut capture = Vec::new();
    let mut writer = PcapWriter::new(&mut capture).expect("in-memory write");
    for packet in &stream {
        writer.write_packet(packet).expect("in-memory write");
    }
    writer.finish().expect("in-memory write");
    capture.truncate(capture.len() - stream.last().unwrap().encode().len() - 9);

    // The default 1024-frame batch holds the whole capture: the frames
    // read before the error must still be ingested, and the report they
    // decided handed out.
    let mut runtime = StreamRuntime::new(&service);
    let mut reports = Vec::new();
    let err = runtime
        .run_frames(
            PcapReader::new(capture.as_slice()).expect("intact global header"),
            &mut reports,
        )
        .expect_err("the capture ends inside a record header");
    assert!(matches!(err, ParseError::Truncated { got: 7, .. }), "{err}");
    let expected = &sequential_baseline(&service, &stream[..stream.len() - 1])[0];
    assert_eq!(reports, std::slice::from_ref(expected), "device 0 only");
    assert_eq!(
        runtime.enforcement().level_of(traces[0].mac),
        expected.response.isolation
    );
    assert!(runtime.enforcement().cache().get(traces[0].mac).is_some());
    // Nothing was flushed: device 1 is still mid-setup.
    let stats = runtime.stats();
    assert_eq!(stats.packets_in, stream.len() as u64 - 1);
    assert_eq!((stats.completed_idle_gap, stats.completed_flush), (1, 0));
    assert!(runtime.enforcement().cache().get(traces[1].mac).is_none());
    assert_eq!(runtime.resident_sessions(), 1);
}

/// `(full, fixed, key)` probes from `n` held-out setups, keyed like a
/// stream would key them.
fn keyed_probe_set(n: usize) -> Vec<(Fingerprint, FixedFingerprint, AssessKey)> {
    concurrent_traces(n)
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let full = extract(&trace.packets);
            let fixed = FixedFingerprint::from_fingerprint(&full);
            (full, fixed, AssessKey::new(1000 + 17 * i as u64, trace.mac))
        })
        .collect()
}

#[test]
fn single_item_batch_and_into_forms_agree_at_every_size_and_split() {
    // Identification has one path, so its three call shapes must be one
    // function: `assess_keyed(x, k)` == `assess_keyed_batch(&[x…])[i]`
    // == `assess_keyed_batch_into` over any two-way split of the batch
    // with one reused scratch — at batch sizes 1, 7 and 64, in every
    // pipeline mode.
    let probes = keyed_probe_set(64);
    for mode in [
        IdentifyMode::TwoStage,
        IdentifyMode::RfOnly,
        IdentifyMode::EditOnly,
    ] {
        let service = fresh_service(&trained_model_with(IdentifierConfig {
            mode,
            ..IdentifierConfig::default()
        }));
        let one_by_one: Vec<ServiceResponse> = probes
            .iter()
            .map(|(full, fixed, key)| service.assess_keyed(full, fixed, *key))
            .collect();
        let mut scratch = AssessScratch::default();
        let mut out = Vec::new();
        for size in [1usize, 7, 64] {
            let items: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = probes[..size]
                .iter()
                .map(|(full, fixed, key)| (full, fixed, *key))
                .collect();
            assert_eq!(
                service.assess_keyed_batch(&items),
                one_by_one[..size],
                "{mode:?}: batch of {size} diverged from batches of one"
            );
            for split in 0..=size {
                out.clear();
                service.assess_keyed_batch_into(&items[..split], &mut scratch, &mut out);
                service.assess_keyed_batch_into(&items[split..], &mut scratch, &mut out);
                assert_eq!(
                    out,
                    one_by_one[..size],
                    "{mode:?}: batch of {size} split at {split} diverged"
                );
            }
        }
    }
}

#[test]
fn direct_assess_is_pure_and_history_independent() {
    // `assess` is the keyed path under one fixed key: asking about a
    // TP-Link twin (stage 2 samples references and may break a tie),
    // then about 50 unrelated probes, then about the twin again must
    // return byte-equal responses, and an identically trained service
    // with a different call history must agree with both.
    let model = trained_model_with(IdentifierConfig::default());
    let (service, other) = (fresh_service(&model), fresh_service(&model));
    let devices = catalog();
    let twin = devices
        .iter()
        .find(|d| d.info.identifier == "TP-LinkPlugHS110")
        .expect("catalog has the TP-Link twins");
    let fingerprints = |trace: &SetupTrace| {
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        (full, fixed)
    };
    let bytes = |response: &ServiceResponse| serde_json::to_vec(response).unwrap();
    // A held-out twin run both TP-Link classifiers accept, scouted on a
    // third instance so the two under test start with no history.
    let scout = fresh_service(&model);
    let testbed = Testbed::new(0x71);
    let (twin_full, twin_fixed) = (900..940)
        .map(|run| fingerprints(&testbed.setup_run(&twin.profile, run)))
        .find(|(full, fixed)| scout.assess(full, fixed).identification.discriminated)
        .expect("some twin run reaches stage 2");

    let first = service.assess(&twin_full, &twin_fixed);
    for trace in concurrent_traces(50) {
        let (full, fixed) = fingerprints(&trace);
        service.assess(&full, &fixed);
    }
    let again = service.assess(&twin_full, &twin_fixed);
    assert_eq!(bytes(&again), bytes(&first), "answer drifted with history");
    assert_eq!(
        bytes(&other.assess(&twin_full, &twin_fixed)),
        bytes(&first),
        "identically trained services disagree"
    );
}

/// Cross-boot equivalence (the snapshot subsystem's load-path claim):
/// a service booted from a binary snapshot *file* must be
/// indistinguishable, bit for bit, from the freshly trained instance it
/// was captured from — same interleaved capture, same streaming
/// reports, same installed enforcement, at every batch size.
#[test]
fn snapshot_booted_runtime_streams_bit_identically() {
    use iot_sentinel::snapshot::{Snapshot, SnapshotBoot};

    let model = trained_model();
    let fresh = fresh_service(&model);
    let path = std::env::temp_dir().join(format!(
        "sentinel-streaming-equivalence-{}.snap",
        std::process::id()
    ));
    Snapshot::of_service(&fresh).save(&path).expect("save");

    let traces = concurrent_traces(12);
    let stream = interleave(&traces, Duration::from_millis(9));
    let baseline = sequential_baseline(&fresh, &stream);
    assert_eq!(baseline.len(), traces.len(), "every device must onboard");

    for batch_size in BATCH_SIZES {
        // A brand-new boot from disk per batch size: nothing is
        // shared with the trained instance but the bytes in the file.
        let loaded = IoTSecurityService::from_snapshot(&path).expect("load");
        let (runtime, reports) = streamed(loaded, batch_size, &stream);
        assert_eq!(
            reports, baseline,
            "snapshot-booted reports diverged from the trained gateway at batch size {batch_size}"
        );
        for report in &baseline {
            assert_eq!(
                runtime.enforcement().level_of(report.mac),
                report.response.isolation,
                "installed rule diverged for {} after snapshot boot",
                report.mac
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Probe items for the keyed-assessment proptest: a trained service
/// plus `(fingerprint, key)` pairs and their individually assessed
/// baseline responses. Built once — training dominates the test's cost.
struct KeyedProbes {
    service: IoTSecurityService,
    probes: Vec<(Fingerprint, FixedFingerprint, AssessKey)>,
    baseline: Vec<ServiceResponse>,
}

fn keyed_probes() -> &'static KeyedProbes {
    static PROBES: OnceLock<KeyedProbes> = OnceLock::new();
    PROBES.get_or_init(|| {
        let service = fresh_service(&trained_model());
        let probes = keyed_probe_set(6);
        let baseline = probes
            .iter()
            .map(|(full, fixed, key)| service.assess_keyed(full, fixed, *key))
            .collect();
        KeyedProbes {
            service,
            probes,
            baseline,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The per-completion contract: a keyed assessment is a pure
    /// function of `(trained model, fingerprints, key)`. Whatever order
    /// the probes are assessed in, however they are split into batches,
    /// and however often they are re-assessed, every response equals the
    /// itemwise baseline bit for bit — which is exactly what lets a
    /// gateway assess a round's completions as one batch, whatever the
    /// round's size.
    #[test]
    fn keyed_assessment_is_schedule_independent(order_seed in any::<u64>(), split_seed in any::<u64>()) {
        let fixture = keyed_probes();
        let n = fixture.probes.len();
        let indices: Vec<usize> = (0..n).collect();
        let order = PinnedRng::from_key(order_seed, 0, 0).sample_k(&indices, n);
        let split = PinnedRng::from_key(split_seed, 1, 0).index(n + 1);
        let items: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = order
            .iter()
            .map(|&i| {
                let (full, fixed, key) = &fixture.probes[i];
                (full, fixed, *key)
            })
            .collect();
        let mut responses = fixture.service.assess_keyed_batch(&items[..split]);
        responses.extend(fixture.service.assess_keyed_batch(&items[split..]));
        for (&i, response) in order.iter().zip(&responses) {
            prop_assert_eq!(
                response,
                &fixture.baseline[i],
                "probe {} diverged under order {:?} split {}",
                i,
                &order,
                split
            );
        }
    }
}
