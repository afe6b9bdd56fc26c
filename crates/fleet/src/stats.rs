//! Fleet-level aggregated statistics.
//!
//! # Aggregation rules
//!
//! Counters are **summed** across home gateways. In particular the
//! cache hit ratio is derived from the summed `cache_hits` and
//! `cache_lookups` — never by averaging per-gateway ratios, which
//! would let mostly-idle gateways (zero lookups) skew the fleet
//! number. `max_home_peak_resident` is the one non-sum: it is the
//! maximum per-home session peak, the number a per-gateway capacity
//! plan needs.

use std::fmt;

use serde::Serialize;

use crate::sim::HomeOutcome;

/// Summed (and one maxed) counters over every home gateway of a fleet
/// run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FleetStats {
    /// Home networks simulated.
    pub homes: usize,
    /// Wire frames ingested across all gateways.
    pub packets_in: u64,
    /// Sessions opened across all gateways.
    pub sessions_opened: u64,
    /// Setups that reached identification across all gateways.
    pub sessions_completed: u64,
    /// Sessions shed by bounded tables across all gateways.
    pub sessions_evicted: u64,
    /// Frames rejected by the lenient decoder.
    pub frames_malformed: u64,
    /// Zero by construction: the wire scanner certifies every frame the
    /// decoder accepts, so there is no decode fallback to count. Kept
    /// for the report schema until the next golden re-bless and
    /// benchmark-only PR.
    pub frames_decoded: u64,
    /// Highest per-home resident-session peak (max, not sum).
    pub max_home_peak_resident: usize,
    /// Devices onboarded (one report each) across all gateways.
    pub onboarded: u64,
    /// Onboardings whose device-type was identified.
    pub identified: u64,
    /// Onboardings rejected by every classifier.
    pub unknown: u64,
    /// Onboardings landing in strict isolation.
    pub strict: u64,
    /// Onboardings landing in restricted isolation.
    pub restricted: u64,
    /// Onboardings landing in trusted isolation.
    pub trusted: u64,
    /// Enforcement rules installed across all gateways.
    pub rules_installed: u64,
    /// Rules removed by devices leaving their home.
    pub rules_removed: u64,
    /// Rules still cached at the end of the run.
    pub rules_resident: u64,
    /// Devices that roamed between homes mid-setup.
    pub roams: u64,
    /// Rule-cache hits, summed.
    pub cache_hits: u64,
    /// Rule-cache lookups, summed.
    pub cache_lookups: u64,
    /// Data-plane probe flows the gateways allowed.
    pub probes_allowed: u64,
    /// Data-plane probe flows the gateways denied.
    pub probes_denied: u64,
}

impl FleetStats {
    /// Folds one home's outcome into the fleet totals.
    pub(crate) fn absorb(&mut self, outcome: &HomeOutcome) {
        let s = &outcome.stats;
        self.packets_in += s.packets_in;
        self.sessions_opened += s.sessions_opened;
        self.sessions_completed += s.sessions_completed();
        self.sessions_evicted += s.sessions_evicted;
        self.frames_malformed += s.frames_malformed;
        self.max_home_peak_resident = self.max_home_peak_resident.max(s.peak_resident_sessions);
        self.onboarded += outcome.reports.len() as u64;
        self.identified += s.identified;
        self.unknown += s.unknown;
        self.strict += s.strict;
        self.restricted += s.restricted;
        self.trusted += s.trusted;
        self.rules_installed += outcome.rules_installed;
        self.rules_removed += outcome.rules_removed;
        self.rules_resident += outcome.rules_resident;
        self.roams += outcome.roam_in.is_some() as u64;
        self.cache_hits += outcome.cache_hits;
        self.cache_lookups += outcome.cache_lookups;
        self.probes_allowed += outcome.probes_allowed;
        self.probes_denied += outcome.probes_denied;
    }

    /// Fleet-wide rule-cache hit ratio, from the summed counters
    /// (0.0 when the fleet never looked a rule up).
    pub fn hit_ratio(&self) -> f64 {
        if self.cache_lookups == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.cache_lookups as f64
    }
}

impl fmt::Display for FleetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} homes: {} packets, {} onboarded ({} identified / {} unknown; \
             {} strict / {} restricted / {} trusted), {} shed, {} roamed, \
             rules {} installed / {} removed / {} resident, \
             cache {}/{} hits ({:.3}), probes {} allowed / {} denied, \
             max home peak {}",
            self.homes,
            self.packets_in,
            self.onboarded,
            self.identified,
            self.unknown,
            self.strict,
            self.restricted,
            self.trusted,
            self.sessions_evicted,
            self.roams,
            self.rules_installed,
            self.rules_removed,
            self.rules_resident,
            self.cache_hits,
            self.cache_lookups,
            self.hit_ratio(),
            self.probes_allowed,
            self.probes_denied,
            self.max_home_peak_resident,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_stream::StreamStats;

    fn outcome(hits: u64, lookups: u64) -> HomeOutcome {
        HomeOutcome {
            home: 0,
            stats: StreamStats::default(),
            reports: Vec::new(),
            roam_out: None,
            roam_in: None,
            rules_installed: 0,
            rules_removed: 0,
            rules_resident: 0,
            cache_hits: hits,
            cache_lookups: lookups,
            probes_allowed: 0,
            probes_denied: 0,
        }
    }

    #[test]
    fn hit_ratio_sums_instead_of_averaging() {
        // One busy gateway (90/100 hits) and nine idle ones. Averaging
        // per-gateway ratios — with the old idle ratio of 1.0 — would
        // report (0.9 + 9 × 1.0) / 10 = 0.99; the summed ratio is 0.9.
        let mut stats = FleetStats::default();
        stats.absorb(&outcome(90, 100));
        for _ in 0..9 {
            stats.absorb(&outcome(0, 0));
        }
        assert_eq!(stats.cache_hits, 90);
        assert_eq!(stats.cache_lookups, 100);
        assert!((stats.hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn idle_fleet_hit_ratio_is_zero() {
        let stats = FleetStats::default();
        assert_eq!(stats.hit_ratio(), 0.0);
    }
}
