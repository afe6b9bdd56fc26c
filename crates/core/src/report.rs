//! Result types of the identification and onboarding pipeline.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use serde::{Serialize, Value};

use sentinel_netproto::MacAddr;
use sentinel_sdn::{EnforcementRule, IsolationLevel, Whitelist};

/// A device-type name, shared rather than copied: the identifier keeps
/// one per label and every [`Outcome::Identified`] clones the pointer.
///
/// One word: the `Arc` points at a `String`, so a name costs its two
/// blocks once per label and an outcome carries 8 bytes of it. `Arc`
/// rather than `Rc` because one trained service backs every worker
/// thread of a fleet. It reads as a `str` (`Deref`, `as_str`,
/// `Display`, and a `Debug` and serialized form identical to the
/// string's).
#[derive(Clone, PartialEq, Eq)]
pub struct TypeName(Arc<String>);

impl TypeName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for TypeName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for TypeName {
    fn from(name: &str) -> Self {
        TypeName::from(name.to_owned())
    }
}

impl From<String> for TypeName {
    fn from(name: String) -> Self {
        TypeName(Arc::new(name))
    }
}

impl Serialize for TypeName {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

/// The outcome of a device-type identification.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Outcome {
    /// The fingerprint was attributed to a known device-type.
    Identified {
        /// Predicted type label.
        label: usize,
        /// Predicted type name.
        name: TypeName,
    },
    /// No classifier accepted the fingerprint: a new/unknown
    /// device-type.
    Unknown,
}

/// The full record of one identification (Sect. IV-B pipeline).
///
/// Each stage-1 candidate sits beside its stage-2 score in one boxed
/// slice, so an identification owns one heap block, and none when no
/// classifier accepted.
///
/// Serializes as the four keys `outcome`, `candidates` (the labels),
/// `discriminated` and `scores` (empty unless `scored`).
#[derive(Debug, Clone, PartialEq)]
pub struct Identification {
    /// Final outcome.
    pub outcome: Outcome,
    /// Labels accepted by the classifier bank (first stage), each with
    /// its dissimilarity score `s_i ∈ [0, 5]` (second stage). A score
    /// means something only when `scored` is set, and is 0 otherwise;
    /// [`Identification::scores`] reads them.
    pub candidates: Box<[(usize, f64)]>,
    /// Whether edit-distance discrimination (second stage) ran.
    pub discriminated: bool,
    /// Whether stage 2 scored the candidates: not under
    /// [`crate::IdentifyMode::RfOnly`], which breaks ties by classifier
    /// confidence instead.
    pub scored: bool,
}

impl Identification {
    /// The predicted label, if any.
    pub fn label(&self) -> Option<usize> {
        match &self.outcome {
            Outcome::Identified { label, .. } => Some(*label),
            Outcome::Unknown => None,
        }
    }

    /// The candidate labels, in stage-1 order.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.candidates.iter().map(|&(label, _)| label)
    }

    /// The dissimilarity scores, aligned with [`Identification::labels`];
    /// empty when stage 2 did not score.
    pub fn scores(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        let scored = if self.scored {
            self.candidates.len()
        } else {
            0
        };
        self.candidates[..scored].iter().map(|&(_, score)| score)
    }
}

impl Serialize for Identification {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("outcome".to_string(), self.outcome.to_value()),
            (
                "candidates".to_string(),
                Value::Array(self.labels().map(|label| label.to_value()).collect()),
            ),
            ("discriminated".to_string(), self.discriminated.to_value()),
            (
                "scores".to_string(),
                Value::Array(self.scores().map(|score| score.to_value()).collect()),
            ),
        ])
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

/// The IoTSSP's answer for one device-type (Sect. III-B): the
/// isolation level its vulnerability assessment calls for, the vendor
/// whitelist of a restricted type and the removal notice of a type
/// isolation cannot contain.
///
/// The service builds one per known label plus one for an unknown
/// type, and every [`ServiceResponse`] shares its type's through an
/// `Arc`; every rule made from it shares its whitelist in turn.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeVerdict {
    /// Isolation level to enforce.
    pub isolation: IsolationLevel,
    /// Permitted remote endpoints (non-empty only for
    /// [`IsolationLevel::Restricted`]), built once per type: every
    /// rule [`ServiceResponse::rule_for`] makes points at this list.
    pub permitted_endpoints: Whitelist,
    /// Sect. III-C.3 user notification: set when isolation cannot contain
    /// the device (vulnerable type with an uncontrollable external
    /// channel) and the user must remove it.
    pub user_notification: Option<String>,
}

/// What the IoT Security Service returns to a Security Gateway for one
/// device fingerprint (Sect. III-B: "it just receives fingerprints and
/// returns an isolation level accordingly").
///
/// Serializes as the four keys `identification`, `isolation`,
/// `permitted_endpoints` and `user_notification`: the verdict's fields
/// sit beside the identification, not under a key of their own.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// The identification record.
    pub identification: Identification,
    /// The verdict for the identified type, shared with every other
    /// response for that type.
    pub verdict: Arc<TypeVerdict>,
}

impl ServiceResponse {
    /// The enforcement rule this verdict calls for on device `mac` — the
    /// one place an onboarding verdict becomes a rule, installed by the
    /// gateway (`sentinel_stream::StreamRuntime`) for every device it
    /// onboards. It allocates nothing: a restricted rule shares its
    /// type's whitelist.
    pub fn rule_for(&self, mac: MacAddr) -> EnforcementRule {
        match self.verdict.isolation {
            IsolationLevel::Strict => EnforcementRule::strict(mac),
            IsolationLevel::Restricted => {
                EnforcementRule::restricted(mac, self.verdict.permitted_endpoints.clone())
            }
            IsolationLevel::Trusted => EnforcementRule::trusted(mac),
        }
    }
}

impl Serialize for ServiceResponse {
    fn to_value(&self) -> Value {
        let verdict = &*self.verdict;
        Value::Object(vec![
            ("identification".to_string(), self.identification.to_value()),
            ("isolation".to_string(), verdict.isolation.to_value()),
            (
                "permitted_endpoints".to_string(),
                verdict.permitted_endpoints[..].to_value(),
            ),
            (
                "user_notification".to_string(),
                verdict.user_notification.to_value(),
            ),
        ])
    }
}

/// The gateway-side record of a completed device onboarding.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
            self.mac,
            self.setup_packets,
            self.response.identification,
            self.response.verdict.isolation
        )?;
        if !self.response.verdict.permitted_endpoints.is_empty() {
            write!(
                f,
                ", permitted {:?}",
                self.response.verdict.permitted_endpoints
            )?;
        }
        if self.response.verdict.user_notification.is_some() {
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
            candidates: [(3, 0.4), (4, 2.5)].into(),
            discriminated: true,
            scored: true,
        };
        assert_eq!(id.label(), Some(3));
        assert_eq!(id.labels().collect::<Vec<_>>(), [3, 4]);
        assert_eq!(id.scores().collect::<Vec<_>>(), [0.4, 2.5]);
        let text = id.to_string();
        assert!(text.contains("HueBridge"));
        assert!(text.contains("discrimination"));
    }

    #[test]
    fn an_unscored_identification_serializes_no_scores() {
        // The `RfOnly` shape: candidates without stage-2 scores.
        let id = Identification {
            outcome: Outcome::Identified {
                label: 4,
                name: "HueBridge".into(),
            },
            candidates: [(3, 0.0), (4, 0.0)].into(),
            discriminated: false,
            scored: false,
        };
        let keys = |value: Value| match value {
            Value::Object(fields) => fields,
            other => panic!("an object, not {other:?}"),
        };
        let fields = keys(id.to_value());
        let names: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(names, ["outcome", "candidates", "discriminated", "scores"]);
        assert_eq!(
            fields[1].1,
            Value::Array(vec![Value::U64(3), Value::U64(4)])
        );
        assert_eq!(fields[3].1, Value::Array(vec![]));
    }

    #[test]
    fn unknown_display() {
        let id = Identification {
            outcome: Outcome::Unknown,
            candidates: Box::default(),
            discriminated: false,
            scored: false,
        };
        assert_eq!(id.label(), None);
        assert!(id.to_string().contains("unknown"));
    }

    #[test]
    fn size_is_pinned() {
        // The verdict is one pointer, the type name one word and the
        // candidates with their scores one boxed slice.
        assert_eq!(std::mem::size_of::<TypeName>(), 8);
        assert_eq!(std::mem::size_of::<ServiceResponse>(), 48);
        assert_eq!(std::mem::size_of::<OnboardingReport>(), 64);
    }

    #[test]
    fn onboarding_report_display() {
        let report = OnboardingReport {
            mac: "13-73-74-7E-A9-C2".parse().unwrap(),
            setup_packets: 17,
            response: ServiceResponse {
                identification: Identification {
                    outcome: Outcome::Unknown,
                    candidates: Box::default(),
                    discriminated: false,
                    scored: false,
                },
                verdict: Arc::new(TypeVerdict {
                    isolation: IsolationLevel::Strict,
                    permitted_endpoints: Whitelist::default(),
                    user_notification: None,
                }),
            },
        };
        let text = report.to_string();
        assert!(text.contains("17 setup packets"));
        assert!(text.contains("strict"));
    }
}
