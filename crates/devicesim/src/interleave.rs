//! Merging many setup traces into one interleaved capture stream.
//!
//! The lab of Fig. 4 onboards one device at a time, but a production
//! gateway sees the setup bursts of many devices interleaved on the same
//! interface. [`interleave`] builds that workload from simulated
//! [`SetupTrace`]s: each trace is shifted by a per-trace start offset and
//! the packets are merged into one globally timestamp-ordered stream,
//! preserving per-device packet order.

use std::time::Duration;

use sentinel_netproto::{Packet, Timestamp};

use crate::SetupTrace;

/// Merges `traces` into one timestamp-ordered packet stream, starting
/// trace `i` at `i * stagger`.
///
/// Equal-timestamp packets from different traces keep trace order, and
/// packets within one trace always keep their original order, so each
/// device's sub-sequence of the merged stream is exactly its trace.
///
/// ```
/// use sentinel_devicesim::{catalog, interleave, Testbed};
/// use std::time::Duration;
///
/// let devices = catalog();
/// let testbed = Testbed::new(3);
/// let traces: Vec<_> = (0..4)
///     .map(|i| testbed.setup_run(&devices[i].profile, 0))
///     .collect();
/// let stream = interleave(&traces, Duration::from_millis(40));
/// assert_eq!(stream.len(), traces.iter().map(|t| t.packets.len()).sum::<usize>());
/// assert!(stream.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
/// ```
pub fn interleave(traces: &[SetupTrace], stagger: Duration) -> Vec<Packet> {
    interleave_at(traces, |index| stagger * index as u32)
}

/// Like [`interleave`], with an explicit start offset per trace index
/// (e.g. devices arriving in bursts, or a seeded arrival process).
///
/// Each packet is cloned once, in [`interleave_order`].
pub fn interleave_at(traces: &[SetupTrace], start_of: impl Fn(usize) -> Duration) -> Vec<Packet> {
    let mut order = Vec::new();
    interleave_order(traces, start_of, &mut order);
    (order.into_iter())
        .map(|(timestamp, trace, index)| Packet {
            timestamp,
            ..traces[trace].packets[index].clone()
        })
        .collect()
}

/// The merge order of [`interleave_at`], without touching a packet:
/// replaces `order` with one `(shifted timestamp, trace, packet)` key per
/// packet of `traces`, trace `i` shifted by `start_of(i)`, sorted.
///
/// Keys are unique, so the order is total — capture time, then trace,
/// then packet number — and reruns of the same traces always produce the
/// same stream. A caller that encodes frames instead of merging packets
/// (the fleet's per-home workload) walks these keys.
pub fn interleave_order(
    traces: &[SetupTrace],
    start_of: impl Fn(usize) -> Duration,
    order: &mut Vec<(Timestamp, usize, usize)>,
) {
    order.clear();
    for (trace_index, trace) in traces.iter().enumerate() {
        let offset = start_of(trace_index);
        order.extend(
            (trace.packets.iter().enumerate())
                .map(|(index, packet)| (packet.timestamp + offset, trace_index, index)),
        );
    }
    order.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, Testbed};

    fn traces(n: usize) -> Vec<SetupTrace> {
        let devices = catalog();
        let testbed = Testbed::new(77);
        (0..n)
            .map(|i| testbed.setup_run(&devices[i % devices.len()].profile, i as u64))
            .collect()
    }

    #[test]
    fn merged_stream_is_timestamp_ordered_and_complete() {
        let traces = traces(6);
        let stream = interleave(&traces, Duration::from_millis(25));
        let total: usize = traces.iter().map(|t| t.packets.len()).sum();
        assert_eq!(stream.len(), total);
        assert!(stream.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn per_device_subsequence_equals_original_trace() {
        let traces = traces(8);
        let stream = interleave(&traces, Duration::from_millis(10));
        for trace in &traces {
            let device_packets: Vec<_> = stream
                .iter()
                .filter(|p| p.src_mac() == trace.mac)
                .cloned()
                .map(|mut p| {
                    // Undo the uniform shift to compare against the raw trace.
                    p.timestamp = sentinel_netproto::Timestamp::from_micros(
                        p.timestamp.as_micros() - (stream_offset(&traces, trace)),
                    );
                    p
                })
                .collect();
            assert_eq!(device_packets, trace.packets, "trace {}", trace.mac);
        }
    }

    fn stream_offset(traces: &[SetupTrace], trace: &SetupTrace) -> u64 {
        let index = traces.iter().position(|t| t.mac == trace.mac).unwrap();
        Duration::from_millis(10 * index as u64).as_micros() as u64
    }

    #[test]
    fn zero_stagger_interleaves_concurrent_setups() {
        let traces = traces(4);
        let stream = interleave(&traces, Duration::ZERO);
        // With all devices starting at once, the head of the stream mixes
        // MACs rather than finishing one device first.
        let first_macs: Vec<_> = stream.iter().take(8).map(|p| p.src_mac()).collect();
        let distinct = first_macs
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct >= 3, "expected interleaving, got {first_macs:?}");
    }
}
