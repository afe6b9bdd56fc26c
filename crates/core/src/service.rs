//! The IoT Security Service (IoTSSP, Sect. III-B).
//!
//! The service receives device fingerprints from Security Gateways,
//! identifies the device-type with the two-stage pipeline, assesses its
//! vulnerability and returns the isolation level (plus the endpoint
//! whitelist for restricted devices). It stores nothing about its
//! clients.

use std::sync::Arc;

use sentinel_fingerprint::{Fingerprint, FixedFingerprint};
use sentinel_sdn::{IsolationLevel, Whitelist};

use crate::identify::{AssessKey, ClassifyScratch};
use crate::report::{Identification, ServiceResponse, TypeVerdict};
use crate::vulndb::{StaticVulnDb, VulnerabilityDatabase};
use crate::{FingerprintDataset, Identifier, IdentifierConfig, TrainedModel};

/// Reusable working memory for [`SecurityService::assess_keyed_batch_into`].
///
/// Wraps the identifier's [`ClassifyScratch`] (stage 1's working words and
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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceConfig {
    /// Identification-pipeline parameters.
    pub identifier: IdentifierConfig,
}

/// The reference IoTSSP implementation: a serving identifier + offline
/// vulnerability database.
#[derive(Debug)]
pub struct IoTSecurityService {
    identifier: Identifier,
    vulndb: StaticVulnDb,
    /// The vulnerability database's verdict for each known type, indexed
    /// by label: a response shares its type's instead of building one.
    verdicts: Vec<Arc<TypeVerdict>>,
    /// The verdict for an unknown type (strict, no whitelist or notice).
    unknown: Arc<TypeVerdict>,
    /// The model [`IoTSecurityService::train`] fitted; a service built
    /// from parts (a booted one) keeps none.
    trained: Option<TrainedModel>,
}

impl IoTSecurityService {
    /// Trains a model on a labeled fingerprint corpus and serves it with
    /// the built-in advisory seed data, keeping the model.
    pub fn train(dataset: &FingerprintDataset, config: &ServiceConfig) -> Self {
        let model = TrainedModel::train(dataset, &config.identifier);
        let identifier = Identifier::from(&model);
        IoTSecurityService {
            trained: Some(model),
            ..Self::from_parts(identifier, StaticVulnDb::with_known_iot_advisories())
        }
    }

    /// Assembles a service from a serving identifier and a
    /// vulnerability database — the boot path, where both halves come
    /// off disk. The service keeps no trained model.
    pub fn from_parts(identifier: Identifier, vulndb: StaticVulnDb) -> Self {
        let verdicts = identifier
            .type_names()
            .iter()
            .map(|name| verdict_of(&vulndb, Some(name.as_str())))
            .collect();
        let unknown = verdict_of(&vulndb, None);
        IoTSecurityService {
            identifier,
            vulndb,
            verdicts,
            unknown,
            trained: None,
        }
    }

    /// The identification pipeline (exposed for evaluation harnesses).
    pub fn identifier(&self) -> &Identifier {
        &self.identifier
    }

    /// The model [`IoTSecurityService::train`] fitted, or `None` for a
    /// service built from parts. Kept only because the frozen benchmark
    /// (`ledger/`) snapshots a trained service through
    /// `Snapshot::of_service`, which reads it.
    pub fn trained_model(&self) -> Option<&TrainedModel> {
        self.trained.as_ref()
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

    /// Turns a finished identification into the enforcement decision:
    /// its type's verdict, shared.
    fn respond(&self, identification: Identification) -> ServiceResponse {
        let verdict = match identification.label() {
            Some(label) => &self.verdicts[label],
            None => &self.unknown,
        };
        ServiceResponse {
            verdict: Arc::clone(verdict),
            identification,
        }
    }
}

/// The vulnerability database's verdict for `device_type` (`None` for
/// an unknown type): its isolation level, the vendor whitelist when
/// that level is restricted, and the removal notice.
fn verdict_of(vulndb: &StaticVulnDb, device_type: Option<&str>) -> Arc<TypeVerdict> {
    let isolation = vulndb.assess(device_type);
    let permitted_endpoints = match device_type {
        Some(name) if isolation == IsolationLevel::Restricted => {
            Whitelist::from(vulndb.vendor_endpoints(name).iter().copied())
        }
        _ => Whitelist::default(),
    };
    Arc::new(TypeVerdict {
        isolation,
        permitted_endpoints,
        user_notification: vulndb.removal_notice(device_type),
    })
}

impl SecurityService for IoTSecurityService {
    /// The keyed path under one fixed [`AssessKey`] (sequence 0, the zero
    /// MAC): a direct query has no stream position, so every one draws
    /// from that key and
    /// the response depends on nothing but the model and the
    /// fingerprints.
    fn assess(&self, full: &Fingerprint, fixed: &FixedFingerprint) -> ServiceResponse {
        self.assess_keyed(full, fixed, AssessKey::DIRECT)
    }

    /// Stage 1 scores each item's `F'` through the bank's scorer, stage
    /// 2 draws from each item's own keyed generator and scores out of
    /// the same scratch, then each item takes its type's verdict — once
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
    use crate::report::Outcome;
    use crate::BankConfig;
    use sentinel_devicesim::{catalog, Testbed};
    use sentinel_fingerprint::extract;
    use sentinel_ml::ForestConfig;

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

    /// The fingerprints of a device no classifier should accept.
    fn oddball_fingerprints() -> (Fingerprint, FixedFingerprint) {
        use sentinel_devicesim::{DeviceProfile, Phase, RawDest};
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
        (full, fixed)
    }

    #[test]
    fn clean_device_gets_trusted() {
        // Device 0 (Aria) has no advisisories in the seed database.
        let service = fast_service(3);
        let (full, fixed) = fingerprints_of(0, 0);
        let response = service.assess(&full, &fixed);
        assert_eq!(response.verdict.isolation, IsolationLevel::Trusted);
        assert!(response.verdict.permitted_endpoints.is_empty());
    }

    #[test]
    fn unknown_device_gets_strict() {
        let service = fast_service(3);
        let (full, fixed) = oddball_fingerprints();
        let response = service.assess(&full, &fixed);
        assert_eq!(response.identification.outcome, Outcome::Unknown);
        assert_eq!(response.verdict.isolation, IsolationLevel::Strict);
    }

    /// `service` rebuilt from its trained model grown by `name`'s type
    /// (`dataset` is the extended corpus), with the same database.
    fn with_type_added(
        service: &IoTSecurityService,
        name: &str,
        dataset: &FingerprintDataset,
    ) -> (IoTSecurityService, TrainedModel, usize) {
        let mut model = service.trained_model().expect("trained").clone();
        let label = model.add_type(name, dataset);
        let grown =
            IoTSecurityService::from_parts(Identifier::from(&model), service.vulndb().clone());
        (grown, model, label)
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
        let service = IoTSecurityService::train(&three, &config);
        let (full, fixed) = fingerprints_of(3, 0);
        assert_eq!(
            service.assess(&full, &fixed).identification.outcome,
            Outcome::Unknown,
            "the fourth device must be unknown before onboarding"
        );
        let (service, model, label) = with_type_added(&service, devices[3].info.identifier, &four);
        assert_eq!(label, 3);
        // After incremental onboarding the device identifies, and its
        // classifier is bit-identical to a full retrain's (the extended
        // model shares the full retrain's state for the new label).
        assert_eq!(
            service.assess(&full, &fixed).identification.label(),
            Some(3)
        );
        let retrained = IoTSecurityService::train(&four, &config);
        assert_eq!(
            model.bank().classifier(label),
            retrained
                .trained_model()
                .expect("trained")
                .bank()
                .classifier(label)
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
        assert_eq!(response.verdict.isolation, IsolationLevel::Restricted);
        assert!(!response.verdict.permitted_endpoints.is_empty());
    }

    #[test]
    fn responses_of_one_type_share_its_verdict() {
        // Train on 9 devices so EdimaxCam (index 8, restricted) is known.
        let service = fast_service(9);
        let (full_a, fixed_a) = fingerprints_of(8, 1);
        let (full_b, fixed_b) = fingerprints_of(8, 2);
        let a = service.assess(&full_a, &fixed_a);
        let b = service.assess(&full_b, &fixed_b);
        assert_eq!(
            (a.identification.label(), b.identification.label()),
            (Some(8), Some(8))
        );
        assert_eq!(a.verdict.isolation, IsolationLevel::Restricted);
        assert!(!a.verdict.permitted_endpoints.is_empty());
        assert!(Arc::ptr_eq(&a.verdict, &b.verdict));
        let (Outcome::Identified { name: name_a, .. }, Outcome::Identified { name: name_b, .. }) =
            (&a.identification.outcome, &b.identification.outcome)
        else {
            unreachable!("both identified");
        };
        assert_eq!(name_a.as_str(), "EdimaxCam");
        assert!(std::ptr::eq(name_a.as_str(), name_b.as_str()));

        // An unknown device gets the strict verdict, with nothing else.
        let (full, fixed) = oddball_fingerprints();
        let unknown = service.assess(&full, &fixed);
        assert_eq!(unknown.identification.outcome, Outcome::Unknown);
        assert_eq!(
            *unknown.verdict,
            TypeVerdict {
                isolation: IsolationLevel::Strict,
                permitted_endpoints: Whitelist::default(),
                user_notification: None,
            }
        );

        // A type learnt later — by a service rebuilt from the grown
        // model — gets the verdict the database gives its name:
        // EdnetGateway is restricted with a removal notice.
        let devices = catalog();
        let ednet = devices
            .iter()
            .position(|d| d.info.identifier == "EdnetGateway")
            .expect("EdnetGateway is in the catalog");
        let mut extended: Vec<_> = devices[..9].to_vec();
        extended.push(devices[ednet].clone());
        let dataset = FingerprintDataset::collect(&extended, 8, 5);
        let (service, _, label) = with_type_added(&service, "EdnetGateway", &dataset);
        let db = service.vulndb();
        let verdict = &service.verdicts[label];
        assert_eq!(verdict.isolation, db.assess(Some("EdnetGateway")));
        assert_eq!(verdict.isolation, IsolationLevel::Restricted);
        assert_eq!(
            &*verdict.permitted_endpoints,
            db.vendor_endpoints("EdnetGateway")
        );
        assert_eq!(
            verdict.user_notification,
            db.removal_notice(Some("EdnetGateway"))
        );
        assert!(verdict.user_notification.is_some());
    }
}
