//! The whole pipeline on a hostile wire (ROADMAP item 6a): a capture
//! made of arbitrary bytes cut into records of arbitrary lengths, mixed
//! with mutated frames of a real setup trace, under timestamps that run
//! backwards, repeat and jump decades ahead — through `PcapReader` →
//! `StreamRuntime::run_frames` (a four-slot table, so sessions are shed)
//! → `enforce`. Nothing may panic, every counter must still add up, and
//! a capture cut mid-record must fail as a container error with the
//! frames before the cut ingested and their reports handed out.

use std::sync::OnceLock;

use proptest::prelude::*;

use iot_sentinel::core::{FingerprintDataset, IoTSecurityService, OnboardingReport, ServiceConfig};
use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::netproto::pcap::PcapReader;
use iot_sentinel::netproto::{Packet, Timestamp};
use iot_sentinel::stream::{StreamConfig, StreamRuntime};

/// A small real IoTSSP, trained once for every case.
fn service() -> &'static IoTSecurityService {
    static SERVICE: OnceLock<IoTSecurityService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        let dataset = FingerprintDataset::collect(&devices, 8, 42);
        IoTSecurityService::train(&dataset, &ServiceConfig::default())
    })
}

/// The frames of one real setup, to be mutated.
fn real_frames() -> &'static [Vec<u8>] {
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let trace = Testbed::new(7).setup_run(&catalog()[0].profile, 3);
        trace.packets.iter().map(Packet::encode).collect()
    })
}

/// One capture record in the making.
#[derive(Debug, Clone)]
enum Record {
    /// Arbitrary bytes (often too short to hold an Ethernet header).
    Soup(Vec<u8>),
    /// Frame `index` (modulo the trace) of the real setup, with each
    /// `(position, mask)` XOR-ed into it.
    Mutated(usize, Vec<(usize, u8)>),
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..96).prop_map(Record::Soup),
        (
            any::<usize>(),
            proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3)
        )
            .prop_map(|(index, flips)| Record::Mutated(index, flips)),
    ]
}

/// pcap `(seconds, microseconds)`: early and unordered, all equal, far
/// in the future with a microsecond field past one second, or anything.
fn stamp_strategy() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![
        (0u32..4, 0u32..1_000_000),
        Just((1u32, 0u32)),
        (4_000_000_000u32..=u32::MAX, any::<u32>()),
        (any::<u32>(), any::<u32>()),
    ]
}

/// A little-endian Ethernet pcap of the records, with the frames it holds.
fn capture(records: &[(Record, (u32, u32))]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut pcap = Vec::new();
    pcap.extend_from_slice(&0xa1b2_c3d4u32.to_le_bytes());
    pcap.extend_from_slice(&[2, 0, 4, 0]); // version 2.4
    pcap.extend_from_slice(&[0; 8]); // thiszone, sigfigs
    pcap.extend_from_slice(&65_535u32.to_le_bytes());
    pcap.extend_from_slice(&1u32.to_le_bytes()); // LINKTYPE_ETHERNET
    let mut frames = Vec::new();
    for (record, (secs, micros)) in records {
        let frame = match record {
            Record::Soup(bytes) => bytes.clone(),
            Record::Mutated(index, flips) => {
                let real = real_frames();
                let mut frame = real[index % real.len()].clone();
                for (position, mask) in flips {
                    let at = position % frame.len();
                    frame[at] ^= mask;
                }
                frame
            }
        };
        pcap.extend_from_slice(&secs.to_le_bytes());
        pcap.extend_from_slice(&micros.to_le_bytes());
        pcap.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        pcap.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        pcap.extend_from_slice(&frame);
        frames.push(frame);
    }
    (pcap, frames)
}

/// The books every ingest must keep, whatever it was fed: the counters
/// add up, every completed session was reported, and every reported
/// device holds a rule.
fn assert_counters_add_up(
    runtime: &StreamRuntime<&IoTSecurityService>,
    offered: usize,
    reports: &[OnboardingReport],
) {
    let stats = runtime.stats();
    assert_eq!(stats.packets_in + stats.frames_malformed, offered as u64);
    assert!(stats.packets_ignored <= stats.packets_in);
    assert_eq!(stats.frames_decoded, 0);
    assert_eq!(
        stats.sessions_opened - stats.sessions_evicted - stats.sessions_completed(),
        runtime.resident_sessions() as u64
    );
    assert!(runtime.resident_sessions() <= runtime.config().effective_capacity());
    assert_eq!(reports.len() as u64, stats.sessions_completed());
    for report in reports {
        assert!(
            runtime.enforcement().cache().get(report.mac).is_some(),
            "{} was reported but holds no rule",
            report.mac
        );
    }
}

fn runtime() -> StreamRuntime<&'static IoTSecurityService> {
    let config = StreamConfig {
        max_sessions: 4,
        batch_size: 7,
        ..StreamConfig::default()
    };
    StreamRuntime::with_config(service(), config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hostile_capture_never_panics_and_the_counters_add_up(
        records in proptest::collection::vec((record_strategy(), stamp_strategy()), 1..80),
        cut in proptest::option::of(1usize..16),
    ) {
        let (pcap, frames) = capture(&records);

        // The whole capture: every record is offered, every session ends.
        let mut whole = runtime();
        let mut reports = Vec::new();
        whole
            .run_frames(PcapReader::new(pcap.as_slice()).expect("intact global header"), &mut reports)
            .expect("an intact capture is not a container error");
        assert_counters_add_up(&whole, frames.len(), &reports);
        prop_assert_eq!(whole.resident_sessions(), 0);
        for frame in &frames {
            if let Ok(packet) = Packet::parse(frame, Timestamp::ZERO) {
                whole.enforce(&packet);
            }
        }

        // The same capture cut inside its last record (the header, or
        // the frame): a container error, after the frames before it —
        // and every report decided before the cut reaches the caller.
        if let Some(cut) = cut {
            let mut partial = runtime();
            let mut reports = Vec::new();
            let result = partial.run_frames(
                PcapReader::new(&pcap[..pcap.len() - cut]).expect("intact global header"),
                &mut reports,
            );
            prop_assert!(result.is_err(), "{result:?}");
            assert_counters_add_up(&partial, frames.len() - 1, &reports);
        }
    }
}
