//! Observability counters for the streaming onboarding runtime.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::session::CompletionReason;

/// Aggregate counters of one streaming run.
///
/// Everything a capacity-planning dashboard needs: how much traffic went
/// through, how many device setups were tracked concurrently (and how
/// many the bounded table had to shed), and how the completed
/// onboardings split across identification outcomes and isolation
/// levels.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Well-formed frames consumed from the source.
    pub packets_in: u64,
    /// Packets skipped: ignored MACs or devices already onboarded.
    pub packets_ignored: u64,
    /// Raw frames dropped because even the lenient decoder would reject
    /// them (or too short to carry an Ethernet header).
    pub frames_malformed: u64,
    /// Zero by construction: the wire scanner certifies every frame the
    /// decoder accepts, so there is no decode fallback to count. Kept
    /// for the report schema until the next golden re-bless and
    /// benchmark-only PR.
    pub frames_decoded: u64,
    /// Sessions opened (a shed device re-opening counts again).
    pub sessions_opened: u64,
    /// Sessions that reached identification, by completion reason.
    pub completed_idle_gap: u64,
    /// See [`StreamStats::completed_idle_gap`].
    pub completed_packet_cap: u64,
    /// See [`StreamStats::completed_idle_gap`].
    pub completed_byte_cap: u64,
    /// Sessions finalized by the end-of-stream flush.
    pub completed_flush: u64,
    /// Sessions shed by the bounded table's LRU overflow policy.
    pub sessions_evicted: u64,
    /// Highest number of concurrently resident sessions observed.
    pub peak_resident_sessions: usize,
    /// Completed onboardings whose device-type was identified.
    pub identified: u64,
    /// Completed onboardings rejected by every classifier.
    pub unknown: u64,
    /// Onboardings that landed in strict isolation.
    pub strict: u64,
    /// Onboardings that landed in restricted isolation.
    pub restricted: u64,
    /// Onboardings that landed in trusted isolation.
    pub trusted: u64,
}

impl StreamStats {
    /// Total sessions that reached identification.
    pub fn sessions_completed(&self) -> u64 {
        self.completed_idle_gap
            + self.completed_packet_cap
            + self.completed_byte_cap
            + self.completed_flush
    }

    /// Records one completion reason.
    pub(crate) fn record_completion(&mut self, reason: CompletionReason) {
        match reason {
            CompletionReason::IdleGap => self.completed_idle_gap += 1,
            CompletionReason::PacketCap => self.completed_packet_cap += 1,
            CompletionReason::ByteCap => self.completed_byte_cap += 1,
            CompletionReason::Flush => self.completed_flush += 1,
        }
    }
}

impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} packets in ({} ignored, {} malformed); {} sessions opened, {} completed \
             (gap {}, packet-cap {}, byte-cap {}, flush {}), {} shed, peak {} resident; \
             outcomes: {} identified / {} unknown; isolation: {} strict / {} restricted / {} trusted",
            self.packets_in,
            self.packets_ignored,
            self.frames_malformed,
            self.sessions_opened,
            self.sessions_completed(),
            self.completed_idle_gap,
            self.completed_packet_cap,
            self.completed_byte_cap,
            self.completed_flush,
            self.sessions_evicted,
            self.peak_resident_sessions,
            self.identified,
            self.unknown,
            self.strict,
            self.restricted,
            self.trusted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_reasons_sum() {
        let mut stats = StreamStats::default();
        stats.record_completion(CompletionReason::IdleGap);
        stats.record_completion(CompletionReason::Flush);
        stats.record_completion(CompletionReason::Flush);
        assert_eq!(stats.sessions_completed(), 3);
        assert_eq!(stats.completed_flush, 2);
    }

    #[test]
    fn display_mentions_the_load_bearing_numbers() {
        let stats = StreamStats {
            packets_in: 1234,
            sessions_evicted: 7,
            peak_resident_sessions: 42,
            ..StreamStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("1234 packets"));
        assert!(text.contains("7 shed"));
        assert!(text.contains("peak 42"));
    }
}
