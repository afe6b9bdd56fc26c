use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use serde::Serialize;

use crate::ParseError;

/// An IEEE 802 MAC address.
///
/// IoT Sentinel identifies devices (and keys enforcement rules) by their MAC
/// address, assuming IoT devices use static MAC addresses (Sect. V).
///
/// ```
/// use sentinel_netproto::MacAddr;
///
/// let mac: MacAddr = "13-73-74-7E-A9-C2".parse().unwrap();
/// assert_eq!(mac.to_string(), "13-73-74-7E-A9-C2");
/// assert_eq!(mac.oui(), [0x13, 0x73, 0x74]);
/// assert!(!mac.is_broadcast());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize)]
pub struct MacAddr([u8; 6]);

/// The six octets in one `write`, without the length prefix a derived
/// impl feeds first (an array hashes as a slice). Every MAC-keyed map —
/// the session index, the rule cache — pays this once per probe. Always
/// six bytes, so the encoding is prefix-free; a `write_u64` of the packed
/// octets measured slower than the slice write.
impl Hash for MacAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

impl MacAddr {
    /// The broadcast address `FF-FF-FF-FF-FF-FF`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as a placeholder in ARP and DHCP.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates a MAC address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Returns the six octets of the address.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Returns the Organizationally Unique Identifier (first three octets).
    ///
    /// Device vendors own OUIs, so the OUI alone narrows a device to a
    /// vendor — but not to a device-type, which is why IoT Sentinel
    /// fingerprints behaviour instead.
    pub const fn oui(&self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// Returns `true` for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Returns `true` if the group (multicast) bit is set.
    pub const fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl From<MacAddr> for [u8; 6] {
    fn from(mac: MacAddr) -> Self {
        mac.0
    }
}

impl AsRef<[u8]> for MacAddr {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for MacAddr {
    /// Formats in the dashed style used by the paper's Fig. 2
    /// (`13-73-74-7E-A9-C2`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.0;
        write!(
            f,
            "{:02X}-{:02X}-{:02X}-{:02X}-{:02X}-{:02X}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl FromStr for MacAddr {
    type Err = ParseError;

    /// Parses `AA-BB-CC-DD-EE-FF` or `aa:bb:cc:dd:ee:ff`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Invalid`] if the string does not consist of six
    /// hex octets separated by `-` or `:`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = if s.contains(':') {
            s.split(':').collect()
        } else {
            s.split('-').collect()
        };
        if parts.len() != 6 {
            return Err(ParseError::invalid(
                "mac",
                format!("expected 6 octets, got {}", parts.len()),
            ));
        }
        let mut octets = [0u8; 6];
        for (i, part) in parts.iter().enumerate() {
            octets[i] = u8::from_str_radix(part, 16)
                .map_err(|_| ParseError::invalid("mac", format!("bad hex octet {part:?}")))?;
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_matches_paper_figure_2_style() {
        let mac = MacAddr::new([0x13, 0x73, 0x74, 0x7e, 0xa9, 0xc2]);
        assert_eq!(mac.to_string(), "13-73-74-7E-A9-C2");
    }

    #[test]
    fn parses_both_separator_styles() {
        let dashed: MacAddr = "13-73-74-7E-A9-C2".parse().unwrap();
        let colon: MacAddr = "13:73:74:7e:a9:c2".parse().unwrap();
        assert_eq!(dashed, colon);
    }

    #[test]
    fn rejects_malformed_strings() {
        assert!("13-73-74".parse::<MacAddr>().is_err());
        assert!("13-73-74-7E-A9-ZZ".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_flags() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let unicast = MacAddr::new([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]);
        assert!(!unicast.is_multicast());
        // mDNS group address is multicast but not broadcast.
        let mdns = MacAddr::new([0x01, 0x00, 0x5e, 0x00, 0x00, 0xfb]);
        assert!(mdns.is_multicast());
        assert!(!mdns.is_broadcast());
    }

    #[test]
    fn roundtrips_through_display() {
        let mac = MacAddr::new([1, 2, 3, 4, 5, 6]);
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        assert_eq!(mac, parsed);
    }

    #[test]
    fn oui_is_first_three_octets() {
        let mac = MacAddr::new([0xb0, 0xc5, 0x54, 1, 2, 3]);
        assert_eq!(mac.oui(), [0xb0, 0xc5, 0x54]);
    }

    /// Keeps every `write` it is handed, one entry per call.
    #[derive(Default)]
    struct Recorder(Vec<Vec<u8>>);

    impl Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0.push(bytes.to_vec());
        }
    }

    fn recorded(mac: MacAddr) -> Vec<Vec<u8>> {
        let mut recorder = Recorder::default();
        mac.hash(&mut recorder);
        recorder.0
    }

    /// An address whose octets are each 0 or 1: 64 of them, so a drawn
    /// pair is equal often enough to exercise both sides of the contract.
    fn small_mac(bits: [bool; 6]) -> MacAddr {
        MacAddr::new(bits.map(u8::from))
    }

    proptest! {
        /// Equal addresses feed the hasher equal bytes and unequal ones
        /// unequal bytes, in a single write of the six octets.
        #[test]
        fn mac_hash_is_one_write_of_its_octets(
            a in any::<[bool; 6]>(),
            b in any::<[bool; 6]>(),
            same in any::<bool>(),
        ) {
            let a = small_mac(a);
            let b = if same { a } else { small_mac(b) };
            prop_assert_eq!(recorded(a), vec![a.octets().to_vec()]);
            prop_assert_eq!(a == b, recorded(a) == recorded(b));
        }
    }
}
