//! The measurement lab (Fig. 4): repeated setup runs with factory resets.

use std::io::Write;

use sentinel_netproto::pcap::PcapWriter;
use sentinel_netproto::ParseError;

use crate::generator::TraceGenerator;
use crate::{DeviceProfile, SetupTrace};

/// Simulates the paper's device-fingerprint collection lab: each
/// device-type's setup procedure is repeated `n` times (the paper used
/// `n = 20`), with a hard reset — fresh MAC suffix, lease, and timing —
/// between runs.
#[derive(Debug, Clone, Default)]
pub struct Testbed {
    generator: TraceGenerator,
    base_seed: u64,
}

impl Testbed {
    /// Creates a testbed; `base_seed` makes entire collection campaigns
    /// reproducible.
    pub fn new(base_seed: u64) -> Self {
        Testbed {
            generator: TraceGenerator::new(),
            base_seed,
        }
    }

    /// Performs setup run number `run` of `profile` (hard reset before
    /// each run).
    pub fn setup_run(&self, profile: &DeviceProfile, run: u64) -> SetupTrace {
        let seed = mix(self.base_seed, &profile.name, run);
        self.generator.generate(profile, seed)
    }

    /// Performs standby-cycle capture number `run` of `profile`
    /// (Sect. VIII-A: fingerprinting devices already installed in a
    /// legacy network from their heartbeat traffic).
    pub fn standby_run(&self, profile: &DeviceProfile, run: u64, cycles: u32) -> SetupTrace {
        let seed = mix(self.base_seed ^ 0xfeed, &profile.name, run);
        self.generator.generate_standby(profile, seed, cycles)
    }

    /// Exports a trace as a pcap capture (what the lab's tcpdump wrote).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] if writing fails.
    pub fn export_pcap<W: Write>(&self, trace: &SetupTrace, writer: W) -> Result<(), ParseError> {
        let mut pcap = PcapWriter::new(writer)?;
        for packet in &trace.packets {
            pcap.write_packet(packet)?;
        }
        pcap.finish()?;
        Ok(())
    }
}

/// Mixes the campaign seed, device name and run number into a run seed
/// (FNV-1a).
fn mix(base: u64, name: &str, run: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
    for byte in name.bytes().chain(run.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn runs_are_distinct_but_reproducible() {
        let devices = catalog();
        let testbed = Testbed::new(7);
        let a = testbed.setup_run(&devices[0].profile, 0);
        let b = testbed.setup_run(&devices[0].profile, 1);
        let a_again = testbed.setup_run(&devices[0].profile, 0);
        assert_ne!(a.mac, b.mac, "factory reset randomizes the MAC suffix");
        assert_eq!(a, a_again);
    }

    #[test]
    fn different_base_seeds_give_different_campaigns() {
        let devices = catalog();
        let a = Testbed::new(1).setup_run(&devices[2].profile, 0);
        let b = Testbed::new(2).setup_run(&devices[2].profile, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn pcap_export_roundtrips() {
        let devices = catalog();
        let testbed = Testbed::new(3);
        let trace = testbed.setup_run(&devices[4].profile, 0);
        let mut buf = Vec::new();
        testbed.export_pcap(&trace, &mut buf).unwrap();
        let mut reader = sentinel_netproto::pcap::PcapReader::new(buf.as_slice()).unwrap();
        let packets = reader.read_all().unwrap();
        assert_eq!(packets, trace.packets);
    }

    #[test]
    fn standby_runs_are_reproducible_and_distinct_from_setup() {
        let devices = catalog();
        let testbed = Testbed::new(21);
        let a = testbed.standby_run(&devices[0].profile, 0, 3);
        let b = testbed.standby_run(&devices[0].profile, 0, 3);
        assert_eq!(a, b);
        let setup = testbed.setup_run(&devices[0].profile, 0);
        assert_ne!(a.packets, setup.packets);
    }

    #[test]
    fn standby_cycles_scale_packet_count() {
        let devices = catalog();
        let testbed = Testbed::new(22);
        let one = testbed.standby_run(&devices[4].profile, 0, 1);
        let three = testbed.standby_run(&devices[4].profile, 0, 3);
        assert!(three.packets.len() > one.packets.len());
    }

    #[test]
    fn every_device_has_a_standby_cycle() {
        for device in catalog() {
            assert!(
                !device.profile.standby_phases.is_empty(),
                "{} lacks standby phases",
                device.info.identifier
            );
        }
    }

    #[test]
    fn every_device_produces_nonempty_setup_traffic() {
        let devices = catalog();
        let testbed = Testbed::new(11);
        for device in &devices {
            let trace = testbed.setup_run(&device.profile, 0);
            assert!(
                trace.packets.len() >= 3,
                "{} produced only {} packets",
                device.info.identifier,
                trace.packets.len()
            );
        }
    }
}
