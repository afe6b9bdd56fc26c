//! Trusted/untrusted virtual network overlays (Sect. III-C.1, Fig. 3).
//!
//! The Security Gateway divides the user's network into two overlays:
//! vulnerable (*strict*/*restricted*) devices live in the **untrusted**
//! overlay, vetted devices in the **trusted** overlay. Overlays are
//! strictly separated: no flow may cross.

use std::fmt;

use crate::IsolationLevel;

/// One of the two virtual network overlays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Overlay {
    /// The overlay housing potentially vulnerable devices.
    Untrusted,
    /// The overlay housing devices with no known vulnerabilities.
    Trusted,
}

impl Overlay {
    /// The overlay a device with the given isolation level is placed in.
    pub(crate) fn for_level(level: IsolationLevel) -> Overlay {
        match level {
            IsolationLevel::Strict | IsolationLevel::Restricted => Overlay::Untrusted,
            IsolationLevel::Trusted => Overlay::Trusted,
        }
    }

    /// Whether two devices in overlays `self` and `other` may exchange
    /// traffic — only within the same overlay.
    pub(crate) fn reachable(self, other: Overlay) -> bool {
        self == other
    }
}

impl fmt::Display for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Overlay::Untrusted => "untrusted",
            Overlay::Trusted => "trusted",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_map_to_overlays_per_fig3() {
        assert_eq!(
            Overlay::for_level(IsolationLevel::Strict),
            Overlay::Untrusted
        );
        assert_eq!(
            Overlay::for_level(IsolationLevel::Restricted),
            Overlay::Untrusted
        );
        assert_eq!(
            Overlay::for_level(IsolationLevel::Trusted),
            Overlay::Trusted
        );
    }

    #[test]
    fn overlays_are_strictly_separated() {
        assert!(Overlay::Untrusted.reachable(Overlay::Untrusted));
        assert!(Overlay::Trusted.reachable(Overlay::Trusted));
        assert!(!Overlay::Untrusted.reachable(Overlay::Trusted));
        assert!(!Overlay::Trusted.reachable(Overlay::Untrusted));
    }
}
