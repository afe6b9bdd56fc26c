//! IoT Sentinel core: automated device-type identification and security
//! enforcement (the paper's primary contribution).
//!
//! Of the two components of Fig. 1 this crate is the service side:
//!
//! * **[`IoTSecurityService`]** — the IoTSSP backend: a
//!   [`ClassifierBank`] with one binary Random Forest per known
//!   device-type, edit-distance discrimination between multiple matches
//!   (Sect. IV-B), and a vulnerability assessment that maps device-types
//!   to isolation levels (Sect. III-B).
//! * The **Security Gateway** — monitoring newly connected devices,
//!   detecting the end of the setup phase, fingerprinting and enforcing
//!   the returned isolation level — is `sentinel_stream::StreamRuntime`,
//!   which consults this crate through the [`SecurityService`] trait.
//!
//! # Example
//!
//! ```no_run
//! use sentinel_core::prelude::*;
//! use sentinel_devicesim::{catalog, Testbed};
//!
//! // Train the IoTSSP on 20 lab setups per device-type.
//! let devices = catalog();
//! let dataset = FingerprintDataset::collect(&devices, 20, 42);
//! let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());
//!
//! // A gateway sends the fingerprints of a new device's setup traffic.
//! let trace = Testbed::new(7).setup_run(&devices[0].profile, 99);
//! let full = extract(&trace.packets);
//! let fixed = FixedFingerprint::from_fingerprint(&full);
//! let response = service.assess(&full, &fixed);
//! println!("{} -> {}", response.identification, response.isolation);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod dataset;
mod identify;
pub mod migration;
pub mod report;
mod service;
pub mod vulndb;

pub use bank::{BankConfig, ClassifierBank};
pub use dataset::FingerprintDataset;
pub use identify::{
    AssessKey, ClassifyScratch, Identifier, IdentifierConfig, IdentifyMode, TrainedModel,
};
pub use migration::{
    migrate, LegacyDevice, MigrationOutcome, MigrationRecord, PskPolicy, RekeySupport,
};
pub use report::{Identification, OnboardingReport, Outcome, ServiceResponse};
pub use service::{AssessScratch, IoTSecurityService, SecurityService, ServiceConfig};

/// Commonly used types, re-exported for examples and downstream users.
pub mod prelude {
    pub use crate::migration::{
        migrate, LegacyDevice, MigrationOutcome, MigrationRecord, PskPolicy, RekeySupport,
    };
    pub use crate::report::{Identification, OnboardingReport, Outcome, ServiceResponse};
    pub use crate::vulndb::{CveRecord, StaticVulnDb, VulnerabilityDatabase};
    pub use crate::{
        AssessKey, AssessScratch, BankConfig, ClassifierBank, ClassifyScratch, FingerprintDataset,
        Identifier, IdentifierConfig, IdentifyMode, IoTSecurityService, SecurityService,
        ServiceConfig,
    };
    pub use sentinel_fingerprint::{extract, Fingerprint, FixedFingerprint};
    pub use sentinel_sdn::{EnforcementRule, IsolationLevel};
}
