//! Result types of the identification and onboarding pipeline.

use std::fmt;
use std::net::IpAddr;

use serde::{Deserialize, Serialize};

use sentinel_netproto::MacAddr;
use sentinel_sdn::{EnforcementRule, IsolationLevel};

/// The outcome of a device-type identification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The fingerprint was attributed to a known device-type.
    Identified {
        /// Predicted type label.
        label: usize,
        /// Predicted type name.
        name: String,
    },
    /// No classifier accepted the fingerprint: a new/unknown
    /// device-type.
    Unknown,
}

/// The full record of one identification (Sect. IV-B pipeline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Identification {
    /// Final outcome.
    pub outcome: Outcome,
    /// Labels accepted by the classifier bank (first stage).
    pub candidates: Vec<usize>,
    /// Whether edit-distance discrimination (second stage) ran.
    pub discriminated: bool,
    /// Dissimilarity scores `s_i ∈ [0, 5]` per candidate, aligned with
    /// `candidates`; empty when discrimination was skipped.
    pub scores: Vec<f64>,
}

impl Identification {
    /// The predicted label, if any.
    pub fn label(&self) -> Option<usize> {
        match &self.outcome {
            Outcome::Identified { label, .. } => Some(*label),
            Outcome::Unknown => None,
        }
    }
}

impl fmt::Display for Identification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Outcome::Identified { name, .. } => write!(f, "identified as {name}")?,
            Outcome::Unknown => write!(f, "unknown device-type")?,
        }
        write!(f, " ({} candidate(s)", self.candidates.len())?;
        if self.discriminated {
            write!(f, ", edit-distance discrimination applied")?;
        }
        write!(f, ")")
    }
}

/// What the IoT Security Service returns to a Security Gateway for one
/// device fingerprint (Sect. III-B: "it just receives fingerprints and
/// returns an isolation level accordingly").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceResponse {
    /// The identification record.
    pub identification: Identification,
    /// Isolation level to enforce.
    pub isolation: IsolationLevel,
    /// Permitted remote endpoints (non-empty only for
    /// [`IsolationLevel::Restricted`]).
    pub permitted_endpoints: Vec<IpAddr>,
    /// Sect. III-C.3 user notification: set when isolation cannot contain
    /// the device (vulnerable type with an uncontrollable external
    /// channel) and the user must remove it.
    pub user_notification: Option<String>,
}

impl ServiceResponse {
    /// The enforcement rule this verdict calls for on device `mac` — the
    /// one place an onboarding verdict becomes a rule, installed by the
    /// gateway (`sentinel_stream::StreamRuntime`) for every device it
    /// onboards.
    pub fn rule_for(&self, mac: MacAddr) -> EnforcementRule {
        match self.isolation {
            IsolationLevel::Strict => EnforcementRule::strict(mac),
            IsolationLevel::Restricted => {
                EnforcementRule::restricted(mac, self.permitted_endpoints.iter().copied())
            }
            IsolationLevel::Trusted => EnforcementRule::trusted(mac),
        }
    }
}

/// The gateway-side record of a completed device onboarding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnboardingReport {
    /// The onboarded device.
    pub mac: MacAddr,
    /// Packets captured during the setup phase.
    pub setup_packets: usize,
    /// The service's verdict.
    pub response: ServiceResponse,
}

impl fmt::Display for OnboardingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} ({} setup packets): {}, isolation {}",
            self.mac, self.setup_packets, self.response.identification, self.response.isolation
        )?;
        if !self.response.permitted_endpoints.is_empty() {
            write!(f, ", permitted {:?}", self.response.permitted_endpoints)?;
        }
        if self.response.user_notification.is_some() {
            write!(f, " [USER ACTION REQUIRED]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identification_accessors_and_display() {
        let id = Identification {
            outcome: Outcome::Identified {
                label: 3,
                name: "HueBridge".into(),
            },
            candidates: vec![3, 4],
            discriminated: true,
            scores: vec![0.4, 2.5],
        };
        assert_eq!(id.label(), Some(3));
        let text = id.to_string();
        assert!(text.contains("HueBridge"));
        assert!(text.contains("discrimination"));
    }

    #[test]
    fn unknown_display() {
        let id = Identification {
            outcome: Outcome::Unknown,
            candidates: vec![],
            discriminated: false,
            scores: vec![],
        };
        assert_eq!(id.label(), None);
        assert!(id.to_string().contains("unknown"));
    }

    #[test]
    fn onboarding_report_display() {
        let report = OnboardingReport {
            mac: "13-73-74-7E-A9-C2".parse().unwrap(),
            setup_packets: 17,
            response: ServiceResponse {
                identification: Identification {
                    outcome: Outcome::Unknown,
                    candidates: vec![],
                    discriminated: false,
                    scores: vec![],
                },
                isolation: IsolationLevel::Strict,
                permitted_endpoints: vec![],
                user_notification: None,
            },
        };
        let text = report.to_string();
        assert!(text.contains("17 setup packets"));
        assert!(text.contains("strict"));
    }
}
