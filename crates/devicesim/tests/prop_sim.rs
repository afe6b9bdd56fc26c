//! Property tests for the device simulator: every catalog profile, under
//! arbitrary seeds, produces well-formed setup traces.

use std::time::Duration;

use proptest::prelude::*;

use sentinel_devicesim::{catalog, interleave_at, SetupTrace, Testbed};
use sentinel_netproto::{Packet, Timestamp};

/// The definition `interleave_at` is held to: clone every packet, shift
/// it, and sort the clones by `(timestamp, trace, packet number)`.
fn clone_and_sort(traces: &[SetupTrace], start_of: impl Fn(usize) -> Duration) -> Vec<Packet> {
    let mut tagged = Vec::new();
    for (trace_index, trace) in traces.iter().enumerate() {
        for (index, packet) in trace.packets.iter().enumerate() {
            let mut shifted = packet.clone();
            shifted.timestamp = packet.timestamp + start_of(trace_index);
            tagged.push((trace_index, index, shifted));
        }
    }
    tagged.sort_by_key(|(trace, index, packet)| (packet.timestamp, *trace, *index));
    tagged.into_iter().map(|(_, _, packet)| packet).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn traces_are_wellformed_for_any_seed(seed in any::<u64>(), device in 0usize..27, run in 0u64..1000) {
        let devices = catalog();
        let testbed = Testbed::new(seed);
        let trace = testbed.setup_run(&devices[device].profile, run);

        // Non-empty, monotonic, single-source.
        prop_assert!(!trace.packets.is_empty());
        for window in trace.packets.windows(2) {
            prop_assert!(window[0].timestamp < window[1].timestamp);
        }
        for packet in &trace.packets {
            prop_assert_eq!(packet.src_mac(), trace.mac);
        }
        prop_assert_eq!(trace.mac.oui(), devices[device].profile.oui);

        // Every packet survives the wire.
        for packet in &trace.packets {
            let parsed = Packet::parse(&packet.encode(), packet.timestamp).expect("roundtrip");
            prop_assert_eq!(&parsed, packet);
        }
    }

    #[test]
    fn same_seed_same_trace(seed in any::<u64>(), device in 0usize..27) {
        let devices = catalog();
        let a = Testbed::new(seed).setup_run(&devices[device].profile, 7);
        let b = Testbed::new(seed).setup_run(&devices[device].profile, 7);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fingerprints_are_extractable_from_any_run(seed in any::<u64>(), device in 0usize..27) {
        let devices = catalog();
        let trace = Testbed::new(seed).setup_run(&devices[device].profile, 0);
        let fingerprint = sentinel_fingerprint::extract(&trace.packets);
        prop_assert!(!fingerprint.is_empty());
        let fixed = sentinel_fingerprint::FixedFingerprint::from_fingerprint(&fingerprint);
        prop_assert_eq!(fixed.dimensions(), 276);
        // The first column of F' is never all-zero for a real trace.
        prop_assert!(fixed.as_slice()[..23].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn interleave_at_equals_clone_and_sort_on_tied_timestamps(
        seed in any::<u64>(),
        shape in proptest::collection::vec((0usize..27, 0u64..3, proptest::collection::vec(0u64..2, 64)), 0..7),
    ) {
        // Timestamps on a 1 ms grid that steps 0 or 1 per packet, and
        // starts 0, 1 or 2 ms apart: packets tie inside a trace and
        // across traces.
        let devices = catalog();
        let testbed = Testbed::new(seed);
        let mut starts = Vec::new();
        let traces: Vec<SetupTrace> = (shape.iter().enumerate())
            .map(|(run, (device, start, steps))| {
                let mut trace = testbed.setup_run(&devices[*device].profile, run as u64);
                let mut millis = 0;
                for (packet, step) in trace.packets.iter_mut().zip(steps.iter().cycle()) {
                    millis += step;
                    packet.timestamp = Timestamp::from_micros(millis * 1000);
                }
                starts.push(Duration::from_millis(*start));
                trace
            })
            .collect();
        let start_of = |i: usize| starts[i];
        prop_assert_eq!(interleave_at(&traces, start_of), clone_and_sort(&traces, start_of));
    }
}
