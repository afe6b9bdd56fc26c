use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A packet capture timestamp with microsecond resolution.
///
/// Timestamps are relative to an arbitrary capture epoch (for simulated
/// traffic, the start of the device setup run), matching the pcap
/// convention of seconds + microseconds.
///
/// ```
/// use sentinel_netproto::Timestamp;
/// use std::time::Duration;
///
/// let t = Timestamp::from_micros(1_500_000);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t + Duration::from_millis(500), Timestamp::from_micros(2_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The capture epoch (time zero).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from microseconds since the capture epoch.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Creates a timestamp from milliseconds since the capture epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Creates a timestamp from whole seconds since the capture epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Microseconds since the capture epoch.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Seconds since the capture epoch, as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The pcap `(seconds, microseconds)` pair.
    pub(crate) const fn to_pcap_parts(self) -> (u32, u32) {
        ((self.0 / 1_000_000) as u32, (self.0 % 1_000_000) as u32)
    }

    /// Reassembles a timestamp from pcap `(seconds, microseconds)` parts.
    pub(crate) const fn from_pcap_parts(secs: u32, micros: u32) -> Self {
        Timestamp(secs as u64 * 1_000_000 + micros as u64)
    }

    /// Elapsed time since an earlier timestamp.
    ///
    /// Returns [`Duration::ZERO`] if `earlier` is in the future, mirroring
    /// `Instant::saturating_duration_since`.
    pub fn saturating_since(&self, earlier: Timestamp) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_micros() as u64)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros() as u64;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    fn sub(self, rhs: Timestamp) -> Duration {
        self.saturating_since(rhs)
    }
}

impl From<Duration> for Timestamp {
    fn from(d: Duration) -> Self {
        Timestamp(d.as_micros() as u64)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcap_parts_roundtrip() {
        let t = Timestamp::from_micros(12_345_678);
        let (s, us) = t.to_pcap_parts();
        assert_eq!((s, us), (12, 345_678));
        assert_eq!(Timestamp::from_pcap_parts(s, us), t);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_millis(100);
        let later = t + Duration::from_millis(50);
        assert_eq!(later - t, Duration::from_millis(50));
        assert_eq!(t - later, Duration::ZERO, "saturating subtraction");
    }

    #[test]
    fn display_shows_seconds() {
        assert_eq!(Timestamp::from_micros(1_500_000).to_string(), "1.500000s");
    }

    #[test]
    fn ordering_follows_time() {
        assert!(Timestamp::from_secs(1) < Timestamp::from_secs(2));
        assert_eq!(Timestamp::ZERO, Timestamp::default());
    }
}
