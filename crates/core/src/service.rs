//! The IoT Security Service (IoTSSP, Sect. III-B).
//!
//! The service receives device fingerprints from Security Gateways,
//! identifies the device-type with the two-stage pipeline, assesses its
//! vulnerability and returns the isolation level (plus the endpoint
//! whitelist for restricted devices). It stores nothing about its
//! clients.

use serde::{Deserialize, Serialize};

use sentinel_fingerprint::{Fingerprint, FixedFingerprint};

use crate::identify::{AssessKey, ClassifyScratch};
use crate::report::{Identification, Outcome, ServiceResponse};
use crate::vulndb::{StaticVulnDb, VulnerabilityDatabase};
use crate::{FingerprintDataset, Identifier, IdentifierConfig};

/// Reusable working memory for [`SecurityService::assess_keyed_batch_into`].
///
/// Wraps the identifier's [`ClassifyScratch`] (stage 1's leaf words and
/// candidate pool; stage 2's probe symbols, sampled reference indices,
/// their distances, mask table and kernel state) plus the intermediate
/// identification buffer, so a caller that keeps one `AssessScratch`
/// (a gateway holds one for the keyed batch of each ingest round)
/// assesses batch after batch without rebuilding any per-tick state:
/// once warm, neither stage allocates working memory, only what each
/// response owns. Scratch carries no state between calls; reuse cannot
/// change any response.
#[derive(Debug, Default)]
pub struct AssessScratch {
    /// Stage-1 and stage-2 working memory for the identifier.
    classify: ClassifyScratch,
    /// Identifications of the current batch, drained into responses.
    identifications: Vec<Identification>,
}

/// Anything a Security Gateway (`sentinel_stream::StreamRuntime`) can
/// consult about a new device.
///
/// The paper's gateways reach the IoTSSP over the network (optionally
/// via Tor); in-process implementations stand in for that RPC.
///
/// Assessment has one path: [`SecurityService::assess_keyed_batch_into`].
/// A stateless stub implements only [`SecurityService::assess`] and
/// inherits a batch that answers item by item; a real service overrides
/// the batch and defines `assess` through it. The single-item and
/// owned-vector forms are provided wrappers nobody overrides.
pub trait SecurityService {
    /// Identifies one fingerprint outside any packet stream and returns
    /// the enforcement decision. Must be a pure function of the trained
    /// state and the arguments: asking twice, or in a different order,
    /// gives the same response.
    fn assess(&self, full: &Fingerprint, fixed: &FixedFingerprint) -> ServiceResponse;

    /// Keyed batch assessment into caller-owned buffers: one response
    /// per item, **appended** to `out` (the shared batch-entry contract
    /// — the caller owns and clears `out`), all per-batch working memory
    /// drawn from `scratch`.
    ///
    /// Every random decision for an item is drawn from a generator keyed
    /// by that item's [`AssessKey`], so each response is a pure function
    /// of `(trained state, fingerprints, key)` — independent of call
    /// order, interleaving, batch boundaries, or which thread serves it.
    /// This is what lets a gateway assess whatever completed in one
    /// ingest call as one batch, and lets one shared service back every
    /// home of a fleet on any number of worker threads, with
    /// bit-identical output at every batch size and thread count.
    ///
    /// The default answers each item with [`SecurityService::assess`]
    /// and ignores keys and scratch — correct exactly because `assess`
    /// is pure.
    fn assess_keyed_batch_into(
        &self,
        items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
        scratch: &mut AssessScratch,
        out: &mut Vec<ServiceResponse>,
    ) {
        let _ = scratch;
        out.extend(
            items
                .iter()
                .map(|&(full, fixed, _)| self.assess(full, fixed)),
        );
    }

    /// [`SecurityService::assess_keyed_batch_into`] with fresh scratch,
    /// returning the responses. Not meant to be overridden.
    fn assess_keyed_batch(
        &self,
        items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
    ) -> Vec<ServiceResponse> {
        let mut out = Vec::with_capacity(items.len());
        self.assess_keyed_batch_into(items, &mut AssessScratch::default(), &mut out);
        out
    }

    /// Assesses one keyed completion: a batch of one. Not meant to be
    /// overridden.
    fn assess_keyed(
        &self,
        full: &Fingerprint,
        fixed: &FixedFingerprint,
        key: AssessKey,
    ) -> ServiceResponse {
        self.assess_keyed_batch(&[(full, fixed, key)])
            .pop()
            .expect("one item in, one response out")
    }
}

/// One trained service can back several gateways at once by handing
/// each a shared reference.
impl<S: SecurityService + ?Sized> SecurityService for &S {
    fn assess(&self, full: &Fingerprint, fixed: &FixedFingerprint) -> ServiceResponse {
        (**self).assess(full, fixed)
    }

    fn assess_keyed_batch_into(
        &self,
        items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
        scratch: &mut AssessScratch,
        out: &mut Vec<ServiceResponse>,
    ) {
        (**self).assess_keyed_batch_into(items, scratch, out)
    }
}

/// Configuration of an [`IoTSecurityService`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Identification-pipeline parameters.
    pub identifier: IdentifierConfig,
}

/// The reference IoTSSP implementation: trained identifier + offline
/// vulnerability database.
#[derive(Debug)]
pub struct IoTSecurityService {
    identifier: Identifier,
    vulndb: StaticVulnDb,
}

impl IoTSecurityService {
    /// Trains the service on a labeled fingerprint corpus, using the
    /// built-in advisory seed data.
    pub fn train(dataset: &FingerprintDataset, config: &ServiceConfig) -> Self {
        Self::train_with_vulndb(dataset, config, StaticVulnDb::with_known_iot_advisories())
    }

    /// Wraps an already-trained identifier (e.g. reassembled from a
    /// [`crate::TrainedModel`]) with the built-in advisory database.
    pub fn from_identifier(identifier: crate::Identifier) -> Self {
        Self::from_parts(identifier, StaticVulnDb::with_known_iot_advisories())
    }

    /// Assembles a service from an already-trained identifier and an
    /// explicit vulnerability database — the restore path binary model
    /// persistence uses, where both halves come off disk.
    pub fn from_parts(identifier: crate::Identifier, vulndb: StaticVulnDb) -> Self {
        IoTSecurityService { identifier, vulndb }
    }

    /// Trains the service with an explicit vulnerability database.
    pub fn train_with_vulndb(
        dataset: &FingerprintDataset,
        config: &ServiceConfig,
        vulndb: StaticVulnDb,
    ) -> Self {
        IoTSecurityService {
            identifier: Identifier::train(dataset, &config.identifier),
            vulndb,
        }
    }

    /// The identification pipeline (exposed for evaluation harnesses).
    pub fn identifier(&self) -> &Identifier {
        &self.identifier
    }

    /// Teaches the service one additional device-type without retraining
    /// the existing classifiers (the paper's incremental-onboarding
    /// property). Returns the new type's label.
    ///
    /// `dataset` must be the extended corpus: all previously known types
    /// plus fingerprints labeled with the new type's index. Delegates to
    /// [`Identifier::add_type`], which appends the new classifier and
    /// its stage-2 reference fingerprints and rebuilds the stage-1
    /// scorer; everything already trained is left bit-identical.
    pub fn add_type(&mut self, name: impl Into<String>, dataset: &FingerprintDataset) -> usize {
        self.identifier.add_type(name, dataset)
    }

    /// Does nothing: stage 1 has no verdict cache to turn on. Kept only
    /// because the frozen benchmark (`ledger/`) calls it, as it sets
    /// `StreamConfig::threads`.
    pub fn enable_verdict_cache(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Always `(0, 0)`: stage 1 has no verdict cache whose hits and
    /// lookups it could count. Kept only because the frozen benchmark
    /// (`ledger/`) calls it.
    pub fn verdict_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The vulnerability database.
    pub fn vulndb(&self) -> &StaticVulnDb {
        &self.vulndb
    }

    /// Turns a finished identification into the enforcement decision
    /// (vulnerability lookup, isolation level, endpoint whitelist).
    fn respond(&self, identification: crate::report::Identification) -> ServiceResponse {
        let type_name = match &identification.outcome {
            Outcome::Identified { name, .. } => Some(name.as_str()),
            Outcome::Unknown => None,
        };
        let isolation = self.vulndb.assess(type_name);
        let permitted_endpoints = type_name
            .map(|name| self.vulndb.vendor_endpoints(name).to_vec())
            .filter(|_| isolation == sentinel_sdn::IsolationLevel::Restricted)
            .unwrap_or_default();
        let user_notification = self.vulndb.removal_notice(type_name);
        ServiceResponse {
            identification,
            isolation,
            permitted_endpoints,
            user_notification,
        }
    }
}

impl SecurityService for IoTSecurityService {
    /// The keyed path under [`AssessKey::DIRECT`]: a direct query has no
    /// stream position, so every one draws from the same fixed key and
    /// the response depends on nothing but the model and the
    /// fingerprints.
    fn assess(&self, full: &Fingerprint, fixed: &FixedFingerprint) -> ServiceResponse {
        self.assess_keyed(full, fixed, AssessKey::DIRECT)
    }

    /// Stage 1 scores each item's `F'` through the bank's scorer, stage
    /// 2 draws from each item's own keyed generator and scores out of
    /// the same scratch, then the vulnerability lookup per item — once
    /// the scratch is warm, the only allocations are the ones each
    /// response owns.
    fn assess_keyed_batch_into(
        &self,
        items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
        scratch: &mut AssessScratch,
        out: &mut Vec<ServiceResponse>,
    ) {
        scratch.identifications.clear();
        self.identifier.identify_keyed_batch_into(
            items,
            &mut scratch.classify,
            &mut scratch.identifications,
        );
        out.extend(
            scratch
                .identifications
                .drain(..)
                .map(|identification| self.respond(identification)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BankConfig;
    use sentinel_devicesim::{catalog, Testbed};
    use sentinel_fingerprint::extract;
    use sentinel_ml::ForestConfig;
    use sentinel_sdn::IsolationLevel;

    fn fast_service(n_devices: usize) -> IoTSecurityService {
        let devices: Vec<_> = catalog().into_iter().take(n_devices).collect();
        let dataset = FingerprintDataset::collect(&devices, 8, 5);
        let config = ServiceConfig {
            identifier: IdentifierConfig {
                bank: BankConfig {
                    forest: ForestConfig::default().with_trees(25),
                    ..BankConfig::default()
                },
                ..IdentifierConfig::default()
            },
        };
        IoTSecurityService::train(&dataset, &config)
    }

    fn fingerprints_of(device_index: usize, run: u64) -> (Fingerprint, FixedFingerprint) {
        let devices = catalog();
        let trace = Testbed::new(31).setup_run(&devices[device_index].profile, run);
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        (full, fixed)
    }

    #[test]
    fn clean_device_gets_trusted() {
        // Device 0 (Aria) has no advisisories in the seed database.
        let service = fast_service(3);
        let (full, fixed) = fingerprints_of(0, 0);
        let response = service.assess(&full, &fixed);
        assert_eq!(response.isolation, IsolationLevel::Trusted);
        assert!(response.permitted_endpoints.is_empty());
    }

    #[test]
    fn unknown_device_gets_strict() {
        use sentinel_devicesim::{DeviceProfile, Phase, RawDest};
        let service = fast_service(3);
        // An out-of-distribution device no classifier should accept.
        let mut odd = DeviceProfile::new("OddBall", [9, 9, 9]);
        odd.extend_phases([
            Phase::UdpRaw {
                dest: RawDest::Broadcast,
                port: 7777,
                sizes: vec![700, 11, 700],
            },
            Phase::Ping { count: 3 },
        ]);
        let trace = Testbed::new(2).setup_run(&odd, 0);
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        let response = service.assess(&full, &fixed);
        assert_eq!(response.identification.outcome, Outcome::Unknown);
        assert_eq!(response.isolation, IsolationLevel::Strict);
    }

    #[test]
    fn add_type_onboards_a_new_device_type() {
        let devices: Vec<_> = catalog().into_iter().take(4).collect();
        let three = FingerprintDataset::collect(&devices[..3], 8, 5);
        let four = FingerprintDataset::collect(&devices, 8, 5);
        let config = ServiceConfig {
            identifier: IdentifierConfig {
                bank: BankConfig {
                    forest: ForestConfig::default().with_trees(25),
                    ..BankConfig::default()
                },
                ..IdentifierConfig::default()
            },
        };
        let mut service = IoTSecurityService::train(&three, &config);
        let (full, fixed) = fingerprints_of(3, 0);
        assert_eq!(
            service.assess(&full, &fixed).identification.outcome,
            Outcome::Unknown,
            "the fourth device must be unknown before onboarding"
        );
        let label = service.add_type(devices[3].info.identifier, &four);
        assert_eq!(label, 3);
        // After incremental onboarding the device identifies, and its
        // classifier is bit-identical to a full retrain's (the extended
        // service shares the full retrain's state for the new label).
        assert_eq!(
            service.assess(&full, &fixed).identification.label(),
            Some(3)
        );
        let retrained = IoTSecurityService::train(&four, &config);
        assert_eq!(
            service.identifier().bank().classifier(label),
            retrained.identifier().bank().classifier(label)
        );
    }

    #[test]
    fn vulnerable_device_gets_restricted_with_whitelist() {
        // Train on 9 devices so EdimaxCam (index 8) is known.
        let service = fast_service(9);
        let (full, fixed) = fingerprints_of(8, 1);
        let response = service.assess(&full, &fixed);
        assert_eq!(
            response.identification.label(),
            Some(8),
            "EdimaxCam must be identified: {:?}",
            response.identification
        );
        assert_eq!(response.isolation, IsolationLevel::Restricted);
        assert!(!response.permitted_endpoints.is_empty());
    }
}
