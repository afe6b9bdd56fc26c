//! Vulnerability assessment (Sect. III-B).
//!
//! The paper consults repositories like the CVE database for reports
//! about an identified device-type: types with known vulnerabilities get
//! isolation level *restricted*, clean types get *trusted*, unknown
//! types get *strict*. The data source is pluggable behind
//! [`VulnerabilityDatabase`]; [`StaticVulnDb`] is an offline store
//! seeded with synthetic records standing in for the live CVE feed.

use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

use sentinel_sdn::IsolationLevel;

/// A vulnerability record (a CVE entry, a pentest finding, or a
/// crowdsourced incident report).
#[derive(Debug, Clone, PartialEq)]
pub struct CveRecord {
    /// Identifier, e.g. `CVE-2016-10401`.
    pub id: String,
    /// One-line summary.
    pub summary: String,
    /// CVSS-style severity in `[0, 10]`.
    pub severity: f64,
}

/// A queryable source of per-device-type vulnerability intelligence.
pub trait VulnerabilityDatabase {
    /// Vulnerability records known for `device_type`.
    fn lookup(&self, device_type: &str) -> &[CveRecord];

    /// Remote endpoints the vendor's cloud service uses, offered as the
    /// whitelist when the type must be restricted.
    fn vendor_endpoints(&self, device_type: &str) -> &[IpAddr];

    /// Whether the device-type has an external communication channel the
    /// Security Gateway cannot control (Bluetooth, LTE, proprietary
    /// sub-GHz radio). For such devices network isolation is
    /// insufficient — the paper's Sect. III-C.3 mandates notifying the
    /// user to physically remove a vulnerable unit.
    fn has_uncontrollable_channel(&self, device_type: &str) -> bool {
        let _ = device_type;
        false
    }

    /// The user-notification text for a vulnerable device that cannot be
    /// contained by isolation alone, or `None` when isolation suffices.
    fn removal_notice(&self, device_type: Option<&str>) -> Option<String> {
        let name = device_type?;
        if !self.lookup(name).is_empty() && self.has_uncontrollable_channel(name) {
            Some(format!(
                "device-type {name} has known vulnerabilities and an external \
                 communication channel the gateway cannot control; remove the \
                 device from the network"
            ))
        } else {
            None
        }
    }

    /// Maps an identification result to an isolation level (Fig. 3):
    /// unknown type ⇒ strict; known vulnerabilities ⇒ restricted; clean
    /// ⇒ trusted.
    fn assess(&self, device_type: Option<&str>) -> IsolationLevel {
        match device_type {
            None => IsolationLevel::Strict,
            Some(name) => {
                if self.lookup(name).is_empty() {
                    IsolationLevel::Trusted
                } else {
                    IsolationLevel::Restricted
                }
            }
        }
    }
}

/// An offline vulnerability store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StaticVulnDb {
    records: HashMap<String, Vec<CveRecord>>,
    endpoints: HashMap<String, Vec<IpAddr>>,
    uncontrollable: HashSet<String>,
}

impl StaticVulnDb {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store pre-seeded with synthetic advisories for the device-types
    /// the 2016-era press reported as vulnerable, mirroring the kind of
    /// assessment the paper's IoTSSP would produce over its Table II
    /// fleet.
    pub fn with_known_iot_advisories() -> Self {
        let mut db = StaticVulnDb::new();
        db.add_record(
            "EdimaxCam",
            CveRecord {
                id: "SENTINEL-2016-0001".into(),
                summary: "unauthenticated remote configuration disclosure".into(),
                severity: 7.5,
            },
        );
        db.add_record(
            "EdnetCam",
            CveRecord {
                id: "SENTINEL-2016-0002".into(),
                summary: "hard-coded credentials in web interface".into(),
                severity: 9.8,
            },
        );
        db.add_record(
            "iKettle2",
            CveRecord {
                id: "SENTINEL-2016-0003".into(),
                summary: "plaintext WiFi PSK disclosure over local socket".into(),
                severity: 8.1,
            },
        );
        db.add_record(
            "SmarterCoffee",
            CveRecord {
                id: "SENTINEL-2016-0004".into(),
                summary: "unauthenticated firmware update channel".into(),
                severity: 8.8,
            },
        );
        db.add_record(
            "D-LinkCam",
            CveRecord {
                id: "SENTINEL-2016-0005".into(),
                summary: "command injection in cloud registration".into(),
                severity: 9.1,
            },
        );
        // Types with radios the gateway cannot see (Table II "Other"
        // column: proprietary sub-GHz links).
        db.mark_uncontrollable("HomeMaticPlug");
        db.mark_uncontrollable("MAXGateway");
        db.mark_uncontrollable("EdnetGateway");
        // EdnetGateway both has an advisory and an uncontrolled radio:
        // the Sect. III-C.3 "notify the user" case.
        db.add_record(
            "EdnetGateway",
            CveRecord {
                id: "SENTINEL-2016-0006".into(),
                summary: "pairing protocol accepts unauthenticated sub-GHz commands".into(),
                severity: 8.3,
            },
        );
        db.add_endpoint(
            "EdnetGateway",
            IpAddr::V4(sentinel_devicesim::Endpoint::new("cloud.ednet-living.com").ip),
        );
        // Vendor cloud endpoints offered as restricted whitelists.
        for (device, domain) in [
            ("EdimaxCam", "www.myedimax.com"),
            ("EdnetCam", "ipcam.ednet-living.com"),
            ("iKettle2", "pool.ntp.org"),
            ("SmarterCoffee", "pool.ntp.org"),
            ("D-LinkCam", "mp-eu-dcdda.dcdsvc.com"),
        ] {
            let ip = sentinel_devicesim::Endpoint::new(domain).ip;
            db.add_endpoint(device, IpAddr::V4(ip));
        }
        db
    }

    /// Adds a vulnerability record for a device-type.
    pub fn add_record(&mut self, device_type: impl Into<String>, record: CveRecord) {
        self.records
            .entry(device_type.into())
            .or_default()
            .push(record);
    }

    /// Registers a vendor-cloud endpoint for a device-type.
    pub fn add_endpoint(&mut self, device_type: impl Into<String>, endpoint: IpAddr) {
        self.endpoints
            .entry(device_type.into())
            .or_default()
            .push(endpoint);
    }

    /// Marks a device-type as having an external channel the gateway
    /// cannot control.
    pub fn mark_uncontrollable(&mut self, device_type: impl Into<String>) {
        self.uncontrollable.insert(device_type.into());
    }

    /// All `(device-type, advisories)` entries, in unspecified order
    /// (binary model persistence sorts them itself).
    pub fn records(&self) -> impl Iterator<Item = (&str, &[CveRecord])> {
        self.records
            .iter()
            .map(|(name, records)| (name.as_str(), records.as_slice()))
    }

    /// All `(device-type, vendor endpoints)` entries, in unspecified
    /// order.
    pub fn endpoints(&self) -> impl Iterator<Item = (&str, &[IpAddr])> {
        self.endpoints
            .iter()
            .map(|(name, endpoints)| (name.as_str(), endpoints.as_slice()))
    }

    /// All device-types marked as having uncontrollable channels, in
    /// unspecified order.
    pub fn uncontrollable(&self) -> impl Iterator<Item = &str> {
        self.uncontrollable.iter().map(String::as_str)
    }
}

impl VulnerabilityDatabase for StaticVulnDb {
    fn lookup(&self, device_type: &str) -> &[CveRecord] {
        self.records.get(device_type).map_or(&[], Vec::as_slice)
    }

    fn vendor_endpoints(&self, device_type: &str) -> &[IpAddr] {
        self.endpoints.get(device_type).map_or(&[], Vec::as_slice)
    }

    fn has_uncontrollable_channel(&self, device_type: &str) -> bool {
        self.uncontrollable.contains(device_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assessment_follows_fig3() {
        let db = StaticVulnDb::with_known_iot_advisories();
        assert_eq!(db.assess(None), IsolationLevel::Strict);
        assert_eq!(db.assess(Some("EdimaxCam")), IsolationLevel::Restricted);
        assert_eq!(db.assess(Some("HueBridge")), IsolationLevel::Trusted);
    }

    #[test]
    fn vulnerable_types_have_whitelists() {
        let db = StaticVulnDb::with_known_iot_advisories();
        assert!(!db.vendor_endpoints("EdimaxCam").is_empty());
        assert!(db.vendor_endpoints("HueBridge").is_empty());
    }

    #[test]
    fn removal_notice_requires_vuln_and_uncontrolled_channel() {
        let db = StaticVulnDb::with_known_iot_advisories();
        // Vulnerable + sub-GHz radio: notify.
        let notice = db.removal_notice(Some("EdnetGateway"));
        assert!(notice.is_some());
        assert!(notice.unwrap().contains("remove the device"));
        // Vulnerable but fully WiFi (controllable): isolation suffices.
        assert_eq!(db.removal_notice(Some("EdimaxCam")), None);
        // Uncontrolled radio but no vulnerabilities: no notice.
        assert_eq!(db.removal_notice(Some("HomeMaticPlug")), None);
        // Unknown type: strict isolation, no notice.
        assert_eq!(db.removal_notice(None), None);
    }

    #[test]
    fn records_accumulate() {
        let mut db = StaticVulnDb::new();
        assert!(db.lookup("X").is_empty());
        db.add_record(
            "X",
            CveRecord {
                id: "CVE-1".into(),
                summary: "a".into(),
                severity: 5.0,
            },
        );
        db.add_record(
            "X",
            CveRecord {
                id: "CVE-2".into(),
                summary: "b".into(),
                severity: 6.0,
            },
        );
        assert_eq!(db.lookup("X").len(), 2);
        assert_eq!(db.assess(Some("X")), IsolationLevel::Restricted);
    }
}
