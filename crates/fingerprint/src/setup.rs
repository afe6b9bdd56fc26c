//! Setup-phase end detection.
//!
//! The gateway records packets from a newly-seen MAC address "during its
//! setup phase. The end of the setup phase can be automatically
//! identified by a decrease in the rate of packets sent" (Sect. IV-A).
//! [`SetupDetector`] holds that rule's parameters: the setup phase ends
//! at the first sufficiently long transmission gap (rate collapse) after
//! a minimum number of packets, bounded by a hard packet cap. The rule
//! itself is applied frame by frame in one place, `Session::offer` of
//! `sentinel-stream`.

use std::time::Duration;

/// Configurable detector for the end of a device's setup phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetupDetector {
    /// Minimum packets before a gap may end the setup phase.
    pub min_packets: usize,
    /// A transmission gap of at least this duration ends the setup phase
    /// (the "decrease in the rate of packets sent").
    pub idle_gap: Duration,
    /// Hard cap on setup-phase length.
    pub max_packets: usize,
}

impl Default for SetupDetector {
    /// Defaults tuned to the paper's setting: setup procedures take one
    /// to two minutes and emit tens of packets; after setup, devices fall
    /// back to sparse keep-alive traffic.
    fn default() -> Self {
        SetupDetector {
            min_packets: 5,
            idle_gap: Duration::from_secs(10),
            max_packets: 256,
        }
    }
}

impl SetupDetector {
    /// Creates a detector with explicit parameters.
    pub fn new(min_packets: usize, idle_gap: Duration, max_packets: usize) -> Self {
        SetupDetector {
            min_packets,
            idle_gap,
            max_packets,
        }
    }
}
