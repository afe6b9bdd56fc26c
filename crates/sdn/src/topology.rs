//! The evaluation lab topology (Fig. 4): user devices `D1–Dn` on the
//! Security Gateway's wireless interface, a local server `Slocal`, and a
//! remote server `Sremote` in a cloud region.

use std::net::Ipv4Addr;

use sentinel_netproto::MacAddr;

/// The role of a host in the lab network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostKind {
    /// The Security Gateway itself.
    Gateway,
    /// A wireless client device (`D1`…`Dn`).
    WirelessDevice,
    /// A server on the wired local network (`Slocal`).
    LocalServer,
    /// A server on the Internet (`Sremote`, Amazon EC2 in the paper).
    RemoteServer,
}

/// One host of the lab network.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Host name (e.g. `D1`, `Slocal`).
    pub name: String,
    /// MAC address.
    pub mac: MacAddr,
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Role in the topology.
    pub kind: HostKind,
    /// Per-host one-way wireless/link latency contribution in
    /// milliseconds (radio quality differs per device, which is why the
    /// paper's Table V rows differ).
    pub link_latency_ms: f64,
}

/// The kind of path a flow takes through the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// Wireless device to wireless device (two radio hops via the AP).
    DeviceToDevice,
    /// Wireless device to the wired local server.
    DeviceToLocal,
    /// Wireless device to the remote server (adds Internet transit).
    DeviceToRemote,
}

/// The Fig. 4 lab network.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    hosts: Vec<Host>,
    /// Local subnet prefix.
    pub subnet: Ipv4Addr,
    /// Local subnet mask length.
    pub mask_bits: u8,
}

impl Topology {
    /// Builds the evaluation topology: gateway, four user devices with
    /// slightly different radio characteristics, `Slocal` and `Sremote`.
    pub fn lab() -> Topology {
        let host = |name: &str, last: u8, kind, link_latency_ms| Host {
            name: name.to_owned(),
            mac: MacAddr::new([0x02, 0x4c, 0x41, 0x42, 0x00, last]),
            ip: match kind {
                HostKind::RemoteServer => Ipv4Addr::new(52, 57, 80, last),
                _ => Ipv4Addr::new(192, 168, 0, last),
            },
            kind,
            link_latency_ms,
        };
        Topology {
            hosts: vec![
                host("gateway", 1, HostKind::Gateway, 0.0),
                host("D1", 11, HostKind::WirelessDevice, 11.6),
                host("D2", 12, HostKind::WirelessDevice, 15.3),
                host("D3", 13, HostKind::WirelessDevice, 14.4),
                host("D4", 14, HostKind::WirelessDevice, 13.1),
                host("Slocal", 2, HostKind::LocalServer, 2.1),
                host("Sremote", 80, HostKind::RemoteServer, 1.2),
            ],
            subnet: Ipv4Addr::new(192, 168, 0, 0),
            mask_bits: 24,
        }
    }

    /// Looks up a host by name.
    pub fn host(&self, name: &str) -> Option<&Host> {
        self.hosts.iter().find(|h| h.name == name)
    }

    /// The wireless user devices, in order.
    pub fn devices(&self) -> impl Iterator<Item = &Host> {
        self.hosts
            .iter()
            .filter(|h| h.kind == HostKind::WirelessDevice)
    }

    /// Classifies the path between two hosts.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not one the lab measures (source must be a
    /// wireless device).
    pub fn path_kind(&self, src: &Host, dst: &Host) -> PathKind {
        assert_eq!(
            src.kind,
            HostKind::WirelessDevice,
            "lab measurements originate at user devices"
        );
        match dst.kind {
            HostKind::WirelessDevice => PathKind::DeviceToDevice,
            HostKind::LocalServer => PathKind::DeviceToLocal,
            HostKind::RemoteServer => PathKind::DeviceToRemote,
            HostKind::Gateway => PathKind::DeviceToLocal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{in_subnet, subnet_mask};

    impl Topology {
        /// Whether an address is inside the local subnet.
        fn is_local(&self, ip: Ipv4Addr) -> bool {
            in_subnet(ip, self.subnet, subnet_mask(self.mask_bits))
        }
    }

    impl Topology {
        /// All hosts.
        fn hosts(&self) -> &[Host] {
            &self.hosts
        }
    }

    #[test]
    fn lab_matches_fig4() {
        let lab = Topology::lab();
        assert_eq!(lab.devices().count(), 4);
        assert!(lab.host("Slocal").is_some());
        assert!(lab.host("Sremote").is_some());
        assert!(lab.host("gateway").is_some());
        assert!(lab.host("D9").is_none());
    }

    #[test]
    fn path_kinds() {
        let lab = Topology::lab();
        let d1 = lab.host("D1").unwrap();
        let d4 = lab.host("D4").unwrap();
        let slocal = lab.host("Slocal").unwrap();
        let sremote = lab.host("Sremote").unwrap();
        assert_eq!(lab.path_kind(d1, d4), PathKind::DeviceToDevice);
        assert_eq!(lab.path_kind(d1, slocal), PathKind::DeviceToLocal);
        assert_eq!(lab.path_kind(d1, sremote), PathKind::DeviceToRemote);
    }

    #[test]
    fn locality() {
        let lab = Topology::lab();
        assert!(lab.is_local(Ipv4Addr::new(192, 168, 0, 77)));
        assert!(!lab.is_local(Ipv4Addr::new(52, 57, 80, 80)));
        assert!(!lab.is_local(lab.host("Sremote").unwrap().ip));
    }

    #[test]
    fn subnet_width_decides_locality() {
        let at = |mask_bits| Topology {
            subnet: Ipv4Addr::new(192, 168, 0, 7),
            mask_bits,
            ..Topology::lab()
        };
        let probes = [
            Ipv4Addr::new(192, 168, 0, 7),
            Ipv4Addr::new(192, 168, 0, 77),
            Ipv4Addr::new(52, 57, 80, 80),
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
        ];
        let local = |mask_bits| probes.map(|ip| at(mask_bits).is_local(ip));
        assert_eq!(local(0), [true; 5], "/0 holds every address");
        assert_eq!(local(24), [true, true, false, false, false]);
        assert_eq!(local(32), [true, false, false, false, false]);
        assert_eq!(local(40), local(32), "a length past 32 reads as /32");
    }

    #[test]
    fn macs_are_unique() {
        let lab = Topology::lab();
        let macs: std::collections::HashSet<_> = lab.hosts().iter().map(|h| h.mac).collect();
        assert_eq!(macs.len(), lab.hosts().len());
    }
}
