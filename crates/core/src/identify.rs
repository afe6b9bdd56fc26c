//! The two-stage identification pipeline (Sect. IV-B).
//!
//! Stage 1 feeds `F'` to every per-type classifier. Zero acceptances ⇒
//! unknown device-type. One acceptance ⇒ done. Several ⇒ stage 2:
//! compare the full fingerprint `F` against 5 reference fingerprints of
//! each candidate type with normalized Damerau–Levenshtein distance,
//! sum per type into a dissimilarity score `s_i ∈ [0, 5]`, and pick the
//! minimum.

use serde::{Deserialize, Serialize};

use sentinel_fingerprint::editdist::OsaScratch;
use sentinel_fingerprint::{Fingerprint, FixedFingerprint, InternedFingerprint, SymbolTable};
use sentinel_ml::pinned::PinnedRng;
use sentinel_ml::BankScorer;
use sentinel_netproto::MacAddr;

use crate::report::{Identification, Outcome};
use crate::{BankConfig, ClassifierBank, FingerprintDataset};

/// The deterministic key of one assessment in a packet stream: the
/// stream sequence number of the packet that completed the device's
/// setup phase, plus the device MAC.
///
/// Identification derives its entire discrimination randomness —
/// reference sampling and tie-breaks — from `(seed, key)` through the
/// pinned RNG contract ([`sentinel_ml::pinned`]). The answer is
/// therefore a pure function of the trained model, the fingerprints and
/// this key: two completions assess identically no matter which thread,
/// batch or order serves them, which is what lets a gateway assess the
/// completions of one ingest call as one keyed batch, whatever the
/// call's size. Callers with no stream position pick any fixed key
/// (evaluation harnesses key by test index;
/// [`crate::IoTSecurityService`]'s direct `assess` uses one documented
/// constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AssessKey {
    /// Stream sequence of the completing packet (unique per stream).
    pub seq: u64,
    /// The assessed device's MAC address.
    pub mac: MacAddr,
}

impl AssessKey {
    /// The key of a direct, out-of-stream query
    /// ([`crate::SecurityService::assess`] on the reference IoTSSP).
    pub const DIRECT: AssessKey = AssessKey {
        seq: 0,
        mac: MacAddr::ZERO,
    };

    /// Builds the key for a completion.
    pub fn new(seq: u64, mac: MacAddr) -> Self {
        AssessKey { seq, mac }
    }

    /// The MAC's 48 bits as the low key word.
    fn mac_bits(self) -> u64 {
        self.mac
            .octets()
            .iter()
            .fold(0u64, |bits, &byte| (bits << 8) | u64::from(byte))
    }

    /// The pinned per-completion generator for a model seed.
    pub(crate) fn rng(self, seed: u64) -> PinnedRng {
        PinnedRng::from_key(seed, self.seq, self.mac_bits())
    }
}

/// Which pipeline variant to run — the ablation axis of
/// `fig5_accuracy --mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum IdentifyMode {
    /// The paper's pipeline: classifier bank, then edit-distance
    /// discrimination of multiple matches.
    #[default]
    TwoStage,
    /// Classifier bank only; ties broken by acceptance confidence.
    RfOnly,
    /// Edit distance against every type's references (no classifiers) —
    /// accurate but slow, the paper's argument for the two-stage design.
    EditOnly,
}

/// Configuration of an [`Identifier`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdentifierConfig {
    /// Classifier-bank training parameters.
    pub bank: BankConfig,
    /// Reference fingerprints per type used for discrimination (the
    /// paper uses 5).
    pub references_per_type: usize,
    /// Pipeline variant.
    pub mode: IdentifyMode,
    /// Seed for reference sampling.
    pub seed: u64,
    /// Rejection cutoff on the winner's *mean* normalized dissimilarity:
    /// if even the best-scoring candidate is farther than this from its
    /// own references (per sampled reference, so the score cutoff is
    /// `max_dissimilarity × references`), the device is reported as
    /// unknown rather than force-matched. Same-type probes score well
    /// below this; traffic that shares nothing with a type's references
    /// scores 1.0 per reference.
    pub max_dissimilarity: f64,
    /// No longer consulted: identification has one, sequential, path
    /// (stage 2 used to fan candidate scoring out over this many
    /// workers, which made `Identification::scores` depend on the
    /// thread count). The field stays only because snapshot format v1
    /// encodes it; it goes with the next snapshot version.
    pub threads: usize,
}

impl Default for IdentifierConfig {
    fn default() -> Self {
        IdentifierConfig {
            bank: BankConfig::default(),
            references_per_type: 5,
            mode: IdentifyMode::TwoStage,
            seed: 0,
            max_dissimilarity: 0.9,
            threads: 0,
        }
    }
}

/// Reusable scratch for the batched identification paths.
///
/// Holds stage 1's leaf words and per-item candidate pool, and stage 2's
/// probe symbols, sampled reference indices, their distances and
/// bit-parallel kernel memory (the probe's match masks and per-lane
/// column state, [`OsaScratch`]). A caller that keeps one `ClassifyScratch` alive
/// across ticks (a gateway holds one, inside its `AssessScratch`) performs
/// **zero heap allocations** in steady-state batched classification,
/// and steady-state identification allocates only what each [`Identification`] owns —
/// its candidates, scores and type name, however many candidates and
/// references stage 2 compares. Both are pinned by the
/// counting-allocator tests in `crates/core/tests/alloc_batch.rs`. The
/// scratch carries no state between calls (the mask table is zeroed
/// again after every item), so reuse cannot change any result.
#[derive(Debug, Default)]
pub struct ClassifyScratch {
    /// The [`BankScorer`]'s leaf words for the row being scored.
    words: Vec<u64>,
    /// Per-item candidate label sets; entries are reused across ticks.
    candidates: Vec<Vec<usize>>,
    /// Stage 2: the current item's probe, projected to symbol ids.
    probe: Vec<u32>,
    /// Stage 2: reference indices sampled for the candidate being scored.
    chosen: Vec<usize>,
    /// Stage 2: the probe's exact distances to those references.
    distances: Vec<usize>,
    /// Stage 2: the probe's match masks (built once per item, not per
    /// reference) and the kernel's per-lane column state.
    osa: OsaScratch,
}

/// The trained identification pipeline: classifier bank plus reference
/// fingerprints for edit-distance discrimination.
#[derive(Debug)]
pub struct Identifier {
    bank: ClassifierBank,
    /// The bank's forests as one scorer — the stage-1 hot path (results
    /// identical to the bank's own forests), rebuilt whenever they change.
    scorer: BankScorer,
    /// All training fingerprints `F`, grouped by type label.
    references: Vec<Vec<Fingerprint>>,
    /// Packet columns of every reference, interned to `u32` symbols.
    symbols: SymbolTable,
    /// Interned views of `references` (same shape), precomputed at
    /// training time so the stage-2 kernel looks masks up by integer.
    interned: Vec<Vec<InternedFingerprint>>,
    /// `0..references[label].len()` per label — the sampling pool handed
    /// to [`PinnedRng::sample_k_into`], prebuilt so discrimination does
    /// not allocate it on every identification.
    pools: Vec<Vec<usize>>,
    config: IdentifierConfig,
}

/// The serializable snapshot of a trained [`Identifier`] — what an
/// IoTSSP ships to (or restores from) persistent storage so gateways do
/// not retrain on every boot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedModel {
    bank: ClassifierBank,
    references: Vec<Vec<Fingerprint>>,
    config: IdentifierConfig,
}

impl TrainedModel {
    /// Reassembles a model from persisted parts. The reference list is
    /// indexed by the bank's labels, so both must agree on the number
    /// of device-types, and every type needs a reference fingerprint.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn from_parts(
        bank: ClassifierBank,
        references: Vec<Vec<Fingerprint>>,
        config: IdentifierConfig,
    ) -> Result<Self, String> {
        if references.len() != bank.n_types() {
            return Err(format!(
                "{} reference sets for {} device-types",
                references.len(),
                bank.n_types()
            ));
        }
        if let Some(label) = references.iter().position(Vec::is_empty) {
            return Err(format!("device-type {label} has no reference fingerprints"));
        }
        Ok(TrainedModel {
            bank,
            references,
            config,
        })
    }

    /// The stage-1 one-vs-rest classifier bank.
    pub fn bank(&self) -> &ClassifierBank {
        &self.bank
    }

    /// Stage-2 reference fingerprints, indexed by label.
    pub fn references(&self) -> &[Vec<Fingerprint>] {
        &self.references
    }

    /// The configuration the identifier was trained with.
    pub fn config(&self) -> &IdentifierConfig {
        &self.config
    }
}

impl From<&Identifier> for TrainedModel {
    fn from(identifier: &Identifier) -> Self {
        TrainedModel {
            bank: identifier.bank.clone(),
            references: identifier.references.clone(),
            config: identifier.config.clone(),
        }
    }
}

impl From<TrainedModel> for Identifier {
    fn from(model: TrainedModel) -> Self {
        Identifier::assemble(model.bank, model.references, model.config)
    }
}

impl Identifier {
    /// Trains the pipeline on a labeled fingerprint dataset.
    pub fn train(dataset: &FingerprintDataset, config: &IdentifierConfig) -> Self {
        let bank = ClassifierBank::train(dataset, &config.bank);
        let references = (0..dataset.n_types())
            .map(|label| {
                dataset
                    .indices_of(label)
                    .into_iter()
                    .map(|i| dataset.full(i).clone())
                    .collect()
            })
            .collect();
        Identifier::assemble(bank, references, config.clone())
    }

    /// Builds the identifier from its parts, interning every reference
    /// fingerprint so identification-time edit distances run over `u32`
    /// symbols.
    fn assemble(
        bank: ClassifierBank,
        references: Vec<Vec<Fingerprint>>,
        config: IdentifierConfig,
    ) -> Self {
        let mut symbols = SymbolTable::new();
        let interned = references
            .iter()
            .map(|of_type| of_type.iter().map(|fp| symbols.intern(fp)).collect())
            .collect();
        let scorer = BankScorer::new(bank.classifiers());
        let pools = references
            .iter()
            .map(|of_type| (0..of_type.len()).collect())
            .collect();
        Identifier {
            bank,
            scorer,
            references,
            symbols,
            interned,
            pools,
            config,
        }
    }

    /// The underlying classifier bank.
    pub fn bank(&self) -> &ClassifierBank {
        &self.bank
    }

    /// Learns one additional device-type incrementally: trains its
    /// classifier ([`ClassifierBank::add_type`]), registers its stage-2
    /// reference fingerprints, and rebuilds the stage-1 scorer over the
    /// grown bank — all without touching the existing types' models,
    /// references or interned symbols. Returns the new type's label.
    ///
    /// `dataset` must contain at least one fingerprint labeled with the
    /// new type's index (i.e. the current number of types) — its stage-2
    /// references; with none, training its classifier panics. The
    /// appended state is bit-identical to what a full
    /// [`Identifier::train`] on `dataset` builds for that label: the
    /// classifier's RNG streams derive from the label and seeds alone,
    /// references are registered in the same label order, and interning
    /// new symbols is append-only.
    pub fn add_type(&mut self, name: impl Into<String>, dataset: &FingerprintDataset) -> usize {
        let label = self.bank.add_type(name, dataset);
        let references: Vec<Fingerprint> = dataset
            .indices_of(label)
            .into_iter()
            .map(|i| dataset.full(i).clone())
            .collect();
        let interned = references
            .iter()
            .map(|fp| self.symbols.intern(fp))
            .collect();
        self.scorer = BankScorer::new(self.bank.classifiers());
        self.pools.push((0..references.len()).collect());
        self.interned.push(interned);
        self.references.push(references);
        label
    }

    /// Device-type names, indexed by label.
    pub fn type_names(&self) -> &[String] {
        self.bank.type_names()
    }

    /// Identifies one device: a batch of one through
    /// [`Identifier::identify_keyed_batch_into`], so the answer is the
    /// same pure function of the trained model, the fingerprints and
    /// `key` (see [`AssessKey`]) that any batch containing the item
    /// returns for it.
    pub fn identify_keyed(
        &self,
        full: &Fingerprint,
        fixed: &FixedFingerprint,
        key: AssessKey,
    ) -> Identification {
        let mut out = Vec::with_capacity(1);
        self.identify_keyed_batch_into(
            &[(full, fixed, key)],
            &mut ClassifyScratch::default(),
            &mut out,
        );
        out.pop().expect("one item in, one identification out")
    }

    /// Identifies a batch of keyed completions — *the* identification
    /// path. Stage 1 scores each item's `F'` through the bank's
    /// [`BankScorer`] ([`Identifier::classify_batch_in`]); stage 2
    /// builds each item's pinned generator from its [`AssessKey`], so
    /// nothing depends on item order or on how a stream of completions
    /// is cut into batches — a gateway's tick decides the batch, never
    /// the answer.
    ///
    /// Identifications are **appended** to `out` (the shared batch-entry
    /// contract — the caller owns and clears `out`), and the working
    /// memory of both stages comes from `scratch`, so a caller that
    /// keeps both warm across ticks (a gateway) allocates only what the
    /// appended [`Identification`]s own.
    pub fn identify_keyed_batch_into(
        &self,
        items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
        scratch: &mut ClassifyScratch,
        out: &mut Vec<Identification>,
    ) {
        let mode = self.config.mode;
        // Edit-only has no stage 1: every type is a candidate.
        if mode != IdentifyMode::EditOnly {
            self.classify_into(items.len(), |i| items[i].1.as_slice(), scratch);
        }
        for (index, &(full, fixed, key)) in items.iter().enumerate() {
            let mut rng = key.rng(self.config.seed);
            out.push(match mode {
                IdentifyMode::TwoStage => {
                    let candidates = scratch.candidates[index].clone();
                    self.discriminate(full, candidates, &mut rng, scratch)
                }
                IdentifyMode::RfOnly => self.rf_best(fixed, scratch.candidates[index].clone()),
                // Scoring every type is not a stage-1 multiple match.
                IdentifyMode::EditOnly => Identification {
                    discriminated: false,
                    ..self.discriminate(full, (0..self.bank.n_types()).collect(), &mut rng, scratch)
                },
            });
        }
    }

    /// Stage-1 classification of a whole batch into caller-owned
    /// scratch: per-item candidate label sets, identical to
    /// [`ClassifierBank::matches`] on each item.
    ///
    /// Each `F'` row is scored in place, from the caller's slice, by one
    /// [`BankScorer::candidates_into`] pass, so a row costs the same in
    /// a batch of one as in a batch of 512. The returned slice borrows
    /// the scratch's candidate pool (one entry per item, in order); with
    /// a warm scratch this makes zero heap allocations.
    pub fn classify_batch_in<'s>(
        &self,
        fixed: &[&FixedFingerprint],
        scratch: &'s mut ClassifyScratch,
    ) -> &'s [Vec<usize>] {
        self.classify_into(fixed.len(), |i| fixed[i].as_slice(), scratch);
        &scratch.candidates[..fixed.len()]
    }

    /// Stage 1 behind every batch path: scores the `n` rows `row(0..n)`,
    /// one [`BankScorer::candidates_into`] pass each, and leaves item
    /// `i`'s candidate labels in `scratch.candidates[i]`. Nothing is
    /// remembered between rows or calls.
    fn classify_into<'a>(
        &self,
        n: usize,
        row: impl Fn(usize) -> &'a [f64],
        scratch: &mut ClassifyScratch,
    ) {
        let ClassifyScratch {
            words, candidates, ..
        } = scratch;
        if candidates.len() < n {
            candidates.resize_with(n, Vec::new);
        }
        for (index, slot) in candidates[..n].iter_mut().enumerate() {
            slot.clear();
            self.scorer.candidates_into(row(index), words, slot);
        }
    }

    /// Stage 2: scores `full` against sampled references of every
    /// candidate type and picks the least dissimilar one. An empty
    /// candidate set is an unknown device-type and draws nothing.
    ///
    /// A single acceptance still gets its dissimilarity checked: a
    /// barely-over-threshold classifier can accept traffic that shares
    /// nothing with the type's references, and the score is what
    /// exposes that (see `max_dissimilarity`).
    fn discriminate(
        &self,
        full: &Fingerprint,
        candidates: Vec<usize>,
        rng: &mut PinnedRng,
        scratch: &mut ClassifyScratch,
    ) -> Identification {
        if candidates.is_empty() {
            return self.decided(None, candidates, false, Vec::new());
        }
        let discriminated = candidates.len() > 1;
        let scores = self.dissimilarity_scores(full, &candidates, rng, scratch);
        self.pick_minimum(candidates, scores, discriminated, rng)
    }

    /// Confidence-based tie-break over a stage-1 candidate set (the
    /// `RfOnly` ablation's second half).
    fn rf_best(&self, fixed: &FixedFingerprint, candidates: Vec<usize>) -> Identification {
        let best = candidates.iter().copied().max_by(|&a, &b| {
            self.bank
                .confidence(a, fixed)
                .partial_cmp(&self.bank.confidence(b, fixed))
                .expect("finite confidences")
        });
        self.decided(best, candidates, false, Vec::new())
    }

    /// Wraps a decision — the winning label, or `None` for an unknown
    /// device-type — and its evidence into an [`Identification`].
    fn decided(
        &self,
        winner: Option<usize>,
        candidates: Vec<usize>,
        discriminated: bool,
        scores: Vec<f64>,
    ) -> Identification {
        let outcome = match winner {
            Some(label) => Outcome::Identified {
                label,
                name: self.type_names()[label].clone(),
            },
            None => Outcome::Unknown,
        };
        Identification {
            outcome,
            candidates,
            discriminated,
            scores,
        }
    }

    /// Sums normalized edit distances to `references_per_type` sampled
    /// reference fingerprints of each candidate type (the paper's
    /// `s_i ∈ [0, 5]`).
    ///
    /// The probe is the kernel's pattern: its match masks are built once
    /// here, and each candidate's sampled references stream past them
    /// together, as the lanes of one `distances_into` call. Scores carry
    /// a best-so-far cutoff: once some candidate scored `B`, a later
    /// candidate whose score provably exceeds `B + 1e-12` (the tie
    /// tolerance) records a certified lower bound instead of the exact
    /// score. The winning label is unaffected — a pruned candidate can
    /// never reach the tie set — and the winner's own score is always
    /// exact. Candidates are scored in order, so the cutoff, and with it
    /// every recorded lower bound, is the same on every run.
    fn dissimilarity_scores(
        &self,
        full: &Fingerprint,
        candidates: &[usize],
        rng: &mut PinnedRng,
        scratch: &mut ClassifyScratch,
    ) -> Vec<f64> {
        let ClassifyScratch {
            probe,
            chosen,
            distances,
            osa,
            ..
        } = scratch;
        probe.clear();
        self.symbols.project_into(full, probe);
        // The table's ids plus the one id unseen columns project to.
        let mut pattern = osa.load(probe, self.symbols.len() + 1);
        let mut best = f64::INFINITY;
        let mut scores = Vec::with_capacity(candidates.len());
        for &label in candidates {
            // Scoring draws nothing, so sampling candidate by candidate
            // consumes the generator exactly as sampling all up front.
            chosen.clear();
            rng.sample_k_into(&self.pools[label], self.config.references_per_type, chosen);
            let refs = &self.interned[label];
            distances.clear();
            pattern.distances_into(chosen.len(), |i| refs[chosen[i]].symbols(), distances);
            let score = self.score_candidate(pattern.len(), label, chosen, distances, best);
            best = best.min(score);
            scores.push(score);
        }
        scores
    }

    /// Scores one candidate type from the `m`-symbol probe's exact
    /// distances to its sampled references, cut off once the score
    /// provably exceeds `best + 1e-12`.
    ///
    /// Returns the exact score, or a lower bound `lb` with
    /// `best + 1e-12 < lb <= true score` when pruned.
    fn score_candidate(
        &self,
        m: usize,
        label: usize,
        chosen: &[usize],
        distances: &[usize],
        best: f64,
    ) -> f64 {
        let refs = &self.interned[label];
        let mut sum = 0.0;
        for (&index, &distance) in chosen.iter().zip(distances) {
            let longest = m.max(refs[index].len());
            if longest == 0 {
                continue; // two empty fingerprints: distance 0
            }
            // Distance bound: the full `longest` when no cutoff is
            // active (an OSA distance never exceeds the longer length),
            // else the remaining normalized-distance budget before the
            // score leaves the tie tolerance around `best`, rescaled to
            // edit operations.
            let bound = if !best.is_finite() {
                longest
            } else {
                let budget = best + 1e-12 - sum;
                if budget <= 0.0 {
                    0
                } else {
                    ((budget * longest as f64).floor() as usize).min(longest)
                }
            };
            if distance > bound {
                // This partial sum is a certified lower bound strictly
                // above `best + 1e-12`: the candidate cannot win or tie.
                return sum + (bound + 1) as f64 / longest as f64;
            }
            sum += distance as f64 / longest as f64;
        }
        sum
    }

    fn pick_minimum(
        &self,
        candidates: Vec<usize>,
        scores: Vec<f64>,
        discriminated: bool,
        rng: &mut PinnedRng,
    ) -> Identification {
        let minimum = scores.iter().copied().fold(f64::INFINITY, f64::min);
        // Identical-firmware types can produce exactly tied dissimilarity
        // scores; break ties uniformly so neither twin is systematically
        // preferred.
        let is_tied = |score: f64| score <= minimum + 1e-12;
        let tied = scores.iter().filter(|&&score| is_tied(score)).count();
        let pick = if tied == 1 { 0 } else { rng.index(tied) };
        let best = candidates
            .iter()
            .zip(&scores)
            .filter(|(_, &score)| is_tied(score))
            .map(|(&candidate, _)| candidate)
            .nth(pick)
            .expect("the minimum itself is in the tie set");
        // Even the best candidate must actually resemble its own
        // references: a winner whose mean normalized distance exceeds
        // the cutoff is traffic the classifiers should not have
        // accepted, and is reported as unknown (the winner is never
        // pruned, so `minimum` is its exact score).
        let effective_refs = self
            .config
            .references_per_type
            .min(self.references[best].len());
        let cutoff = self.config.max_dissimilarity * effective_refs as f64;
        self.decided(
            (minimum <= cutoff).then_some(best),
            candidates,
            discriminated,
            scores,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_devicesim::{catalog, Testbed};
    use sentinel_fingerprint::extract;
    use sentinel_ml::ForestConfig;

    fn fast_config(mode: IdentifyMode) -> IdentifierConfig {
        IdentifierConfig {
            bank: BankConfig {
                forest: ForestConfig::default().with_trees(25),
                ..BankConfig::default()
            },
            mode,
            ..IdentifierConfig::default()
        }
    }

    /// One direct identification (any fixed key serves a unit test).
    fn identify(
        identifier: &Identifier,
        full: &Fingerprint,
        fixed: &FixedFingerprint,
    ) -> Identification {
        identifier.identify_keyed(full, fixed, AssessKey::DIRECT)
    }

    fn train_on_three() -> (Identifier, FingerprintDataset) {
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        let dataset = FingerprintDataset::collect(&devices, 8, 5);
        let identifier = Identifier::train(&dataset, &fast_config(IdentifyMode::TwoStage));
        (identifier, dataset)
    }

    #[test]
    fn identifies_held_out_runs_of_known_types() {
        let (identifier, _) = train_on_three();
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        let testbed = Testbed::new(99); // different campaign seed = held-out runs
        let mut correct = 0;
        let mut total = 0;
        for (label, device) in devices.iter().enumerate() {
            for run in 0..4 {
                let trace = testbed.setup_run(&device.profile, run);
                let full = extract(&trace.packets);
                let fixed = FixedFingerprint::from_fingerprint(&full);
                let id = identify(&identifier, &full, &fixed);
                total += 1;
                if id.label() == Some(label) {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 10 >= total * 9,
            "only {correct}/{total} held-out runs identified"
        );
    }

    #[test]
    fn out_of_distribution_device_rejected_by_all_classifiers() {
        use sentinel_devicesim::{DeviceProfile, Phase, RawDest};
        // Rejection needs a negative pool that covers the feature space:
        // train on the full catalog (as the deployed IoTSSP would).
        let devices = catalog();
        let dataset = FingerprintDataset::collect(&devices, 6, 5);
        let mut config = fast_config(IdentifyMode::TwoStage);
        config.bank.forest = ForestConfig::default().with_trees(15);
        let identifier = Identifier::train(&dataset, &config);
        // A device-type unlike anything trained on: pure proprietary
        // broadcast chatter, no DHCP/DNS/cloud traffic at all.
        let mut odd = DeviceProfile::new("OddBall", [9, 9, 9]);
        odd.extend_phases([
            Phase::UdpRaw {
                dest: RawDest::Broadcast,
                port: 7777,
                sizes: vec![700, 11, 700, 11],
            },
            Phase::Ping { count: 3 },
            Phase::UdpRaw {
                dest: RawDest::Gateway,
                port: 7778,
                sizes: vec![900],
            },
        ]);
        let trace = Testbed::new(1).setup_run(&odd, 0);
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        let id = identify(&identifier, &full, &fixed);
        assert_eq!(id.outcome, Outcome::Unknown, "got {id:?}");
    }

    #[test]
    fn edit_only_mode_identifies_without_classifiers() {
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        let dataset = FingerprintDataset::collect(&devices, 8, 5);
        let identifier = Identifier::train(&dataset, &fast_config(IdentifyMode::EditOnly));
        let trace = Testbed::new(77).setup_run(&devices[1].profile, 0);
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        let id = identify(&identifier, &full, &fixed);
        assert_eq!(id.label(), Some(1));
        assert_eq!(id.candidates.len(), 3, "edit-only scores every type");
    }

    #[test]
    fn add_type_matches_full_retrain_for_the_new_label() {
        // Extending a trained identifier with a fourth type must leave
        // the three existing types bit-identical and append exactly the
        // state a full retrain on the extended dataset would build for
        // the new label: same classifier, same reference fingerprints,
        // and the same stage-1 candidates through the rebuilt scorer.
        let devices: Vec<_> = catalog().into_iter().take(4).collect();
        let three = FingerprintDataset::collect(&devices[..3], 8, 5);
        let four = FingerprintDataset::collect(&devices, 8, 5);
        let config = fast_config(IdentifyMode::TwoStage);
        let mut incremental = Identifier::train(&three, &config);
        let old_bank = incremental.bank().clone();
        let label = incremental.add_type(devices[3].info.identifier, &four);
        assert_eq!(label, 3);
        // Existing classifiers untouched, bit-for-bit.
        for old in 0..3 {
            assert_eq!(incremental.bank().classifier(old), old_bank.classifier(old));
        }
        let full = Identifier::train(&four, &config);
        assert_eq!(
            incremental.bank().classifier(label),
            full.bank().classifier(label)
        );
        assert_eq!(incremental.references[label], full.references[label]);
        // The scorer was rebuilt with the bank: a stale one would miss
        // the new label on the new type's own training fingerprints.
        let fixed: Vec<&FixedFingerprint> = (0..four.len()).map(|i| four.fixed(i)).collect();
        let mut scratch = ClassifyScratch::default();
        let grown = incremental.classify_batch_in(&fixed, &mut scratch).to_vec();
        let mut fresh = ClassifyScratch::default();
        let retrained = full.classify_batch_in(&fixed, &mut fresh);
        for (i, candidates) in grown.iter().enumerate() {
            assert_eq!(
                candidates,
                &incremental.bank().matches(fixed[i]),
                "sample {i}"
            );
            assert_eq!(
                candidates.contains(&label),
                retrained[i].contains(&label),
                "sample {i}"
            );
        }
        assert!(grown.iter().any(|candidates| candidates.contains(&label)));
        // And held-out runs of the new device actually identify as it.
        let testbed = Testbed::new(55);
        let trace = testbed.setup_run(&devices[3].profile, 0);
        let probe = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&probe);
        assert_eq!(identify(&incremental, &probe, &fixed).label(), Some(3));
    }

    #[test]
    fn classify_batch_matches_the_unpacked_bank_per_item() {
        let (identifier, dataset) = train_on_three();
        let fixed: Vec<&FixedFingerprint> = (0..dataset.len()).map(|i| dataset.fixed(i)).collect();
        let mut scratch = ClassifyScratch::default();
        let batch = identifier.classify_batch_in(&fixed, &mut scratch);
        assert_eq!(batch.len(), fixed.len());
        for (i, candidates) in batch.iter().enumerate() {
            assert_eq!(candidates, &identifier.bank().matches(fixed[i]), "item {i}");
        }
    }

    #[test]
    fn a_model_file_with_hostile_thresholds_boots_and_scores_like_its_bank() {
        // `DecisionTree::from_parts` takes any threshold bits and the
        // snapshot codec passes them through: NaN of either sign, ±∞,
        // −0.0 and a value some probe holds exactly must neither panic
        // the scorer's build nor move a verdict off the bank's.
        use sentinel_ml::{DecisionTree, RandomForest};
        let (identifier, dataset) = train_on_three();
        let model = TrainedModel::from(&identifier);
        let probe = dataset.fixed(0).as_slice();
        let mut k = 0usize;
        let classifiers = (model.bank().classifiers().iter())
            .map(|forest| {
                let trees = (forest.trees().iter())
                    .map(|tree| {
                        let mut parts = tree.to_parts();
                        for (at, &feature) in parts.features.iter().enumerate() {
                            if feature == u32::MAX {
                                continue;
                            }
                            let hostile = [
                                f64::NAN,
                                -f64::NAN,
                                f64::INFINITY,
                                f64::NEG_INFINITY,
                                -0.0,
                                probe[feature as usize],
                            ];
                            if let Some(&threshold) = hostile.get(k % 8) {
                                parts.thresholds[at] = threshold;
                            }
                            k += 1;
                        }
                        DecisionTree::from_parts(parts, probe.len()).expect("structure kept")
                    })
                    .collect();
                RandomForest::from_parts(trees, forest.oob_accuracy()).expect("classes kept")
            })
            .collect();
        let bank = ClassifierBank::from_parts(
            classifiers,
            model.bank().type_names().to_vec(),
            model.bank().config().clone(),
        )
        .expect("still one binary classifier per name");
        let patched: Identifier =
            TrainedModel::from_parts(bank, model.references().to_vec(), model.config().clone())
                .expect("references kept")
                .into();
        let fixed: Vec<&FixedFingerprint> = (0..dataset.len()).map(|i| dataset.fixed(i)).collect();
        let mut scratch = ClassifyScratch::default();
        let batch = patched.classify_batch_in(&fixed, &mut scratch);
        assert!(
            k >= 8,
            "every hostile value landed in some split ({k} splits)"
        );
        for (i, candidates) in batch.iter().enumerate() {
            assert_eq!(candidates, &patched.bank().matches(fixed[i]), "item {i}");
        }
    }

    #[test]
    fn scores_are_bounded_by_reference_count() {
        let (identifier, dataset) = train_on_three();
        let id = identify(&identifier, dataset.full(0), dataset.fixed(0));
        for score in &id.scores {
            assert!((0.0..=5.0).contains(score));
        }
    }

    #[test]
    fn from_parts_refuses_a_type_without_references() {
        // Such a type samples nothing, scores 0 and would win stage 2
        // outright whenever stage 1 accepted it.
        let (identifier, _) = train_on_three();
        let model = TrainedModel::from(&identifier);
        let mut references = model.references().to_vec();
        references[1].clear();
        let err =
            TrainedModel::from_parts(model.bank().clone(), references, model.config().clone())
                .expect_err("an empty reference set is refused");
        assert!(err.contains("device-type 1"), "{err}");
    }

    /// The sequential stage 2 the lockstep kernel replaced, kept as the
    /// oracle: sampled references scored one at a time over the textbook
    /// [`osa_distance`], each against the remaining budget, returning
    /// the certified lower bound as soon as one distance exceeds it.
    mod score_oracle {
        use std::sync::OnceLock;

        use proptest::prelude::*;
        use sentinel_fingerprint::editdist::osa_distance;
        use sentinel_fingerprint::FeatureVector;

        use super::*;

        fn oracle_score_candidate(
            identifier: &Identifier,
            probe: &[u32],
            label: usize,
            chosen: &[usize],
            best: f64,
        ) -> f64 {
            let mut sum = 0.0;
            for &index in chosen {
                let reference = identifier.interned[label][index].symbols();
                let longest = probe.len().max(reference.len());
                if longest == 0 {
                    continue;
                }
                let bound = if !best.is_finite() {
                    longest
                } else {
                    let budget = best + 1e-12 - sum;
                    if budget <= 0.0 {
                        0
                    } else {
                        ((budget * longest as f64).floor() as usize).min(longest)
                    }
                };
                let distance = osa_distance(probe, reference);
                match (distance <= bound).then_some(distance) {
                    Some(distance) => sum += distance as f64 / longest as f64,
                    None => return sum + (bound + 1) as f64 / longest as f64,
                }
            }
            sum
        }

        fn oracle_scores(
            identifier: &Identifier,
            full: &Fingerprint,
            candidates: &[usize],
            rng: &mut PinnedRng,
        ) -> Vec<f64> {
            let probe = identifier.symbols.project(full);
            let mut best = f64::INFINITY;
            let per_type = identifier.config.references_per_type;
            (candidates.iter())
                .map(|&label| {
                    let chosen = rng.sample_k(&identifier.pools[label], per_type);
                    let score =
                        oracle_score_candidate(identifier, probe.symbols(), label, &chosen, best);
                    best = best.min(score);
                    score
                })
                .collect()
        }

        /// The whole identification of `full` in the identifier's mode,
        /// stage 2 through the oracle.
        fn oracle_identify(
            identifier: &Identifier,
            full: &Fingerprint,
            fixed: &FixedFingerprint,
            key: AssessKey,
        ) -> Identification {
            let mode = identifier.config.mode;
            let candidates = match mode {
                IdentifyMode::EditOnly => (0..identifier.bank.n_types()).collect(),
                _ => identifier.bank.matches(fixed),
            };
            if mode == IdentifyMode::RfOnly {
                return identifier.rf_best(fixed, candidates);
            }
            if candidates.is_empty() {
                return identifier.decided(None, candidates, false, Vec::new());
            }
            let mut rng = key.rng(identifier.config.seed);
            let scores = oracle_scores(identifier, full, &candidates, &mut rng);
            let discriminated = mode == IdentifyMode::TwoStage && candidates.len() > 1;
            identifier.pick_minimum(candidates, scores, discriminated, &mut rng)
        }

        /// The whole catalog, 6 runs per type, 5-tree forests: 27 types
        /// to draw candidate sets from, trained once for every case.
        fn model() -> &'static (TrainedModel, FingerprintDataset) {
            static MODEL: OnceLock<(TrainedModel, FingerprintDataset)> = OnceLock::new();
            MODEL.get_or_init(|| {
                let dataset = FingerprintDataset::collect(&catalog(), 6, 11);
                let mut config = fast_config(IdentifyMode::TwoStage);
                config.bank.forest = ForestConfig::default().with_trees(5);
                let identifier = Identifier::train(&dataset, &config);
                (TrainedModel::from(&identifier), dataset)
            })
        }

        /// One probe edit: delete, swap with the next, insert a column of
        /// another training fingerprint, insert a column no reference
        /// has, or append a whole other fingerprint (which takes probes
        /// past 64 columns, onto the blocked path).
        fn apply(columns: &mut Vec<FeatureVector>, dataset: &FingerprintDataset, edit: [usize; 4]) {
            let [op, at, source, column] = edit;
            let donor = dataset.full(source % dataset.len()).vectors();
            let at = at % (columns.len() + 1);
            match op % 5 {
                0 if at < columns.len() => {
                    columns.remove(at);
                }
                1 if at + 1 < columns.len() => columns.swap(at, at + 1),
                2 if !donor.is_empty() => columns.insert(at, donor[column % donor.len()].clone()),
                3 if !donor.is_empty() => {
                    let mut unseen = donor[0].clone();
                    unseen.packet_size = 60_000 + column as u32 % 1_000;
                    columns.insert(at, unseen);
                }
                4 => columns.extend_from_slice(donor),
                _ => {}
            }
        }

        fn bits(scores: &[f64]) -> Vec<u64> {
            scores.iter().map(|score| score.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn lockstep_scores_equal_the_sequential_oracle_bit_for_bit(
                base in any::<usize>(),
                edits in proptest::collection::vec(any::<[usize; 4]>(), 0..8),
                order in proptest::collection::vec(any::<u64>(), 27),
                count in 1usize..=27,
                references_per_type in 1usize..=7,
                mode in prop_oneof![
                    Just(IdentifyMode::TwoStage),
                    Just(IdentifyMode::RfOnly),
                    Just(IdentifyMode::EditOnly),
                ],
                seq in any::<u64>(),
            ) {
                let (model, dataset) = model();
                let config = IdentifierConfig {
                    references_per_type,
                    mode,
                    ..model.config().clone()
                };
                let identifier =
                    Identifier::assemble(model.bank().clone(), model.references().to_vec(), config);
                let mut columns = dataset.full(base % dataset.len()).vectors().to_vec();
                for edit in edits {
                    apply(&mut columns, dataset, edit);
                }
                let full = Fingerprint::new(columns);
                let fixed = FixedFingerprint::from_fingerprint(&full);
                let key = AssessKey::new(seq, MacAddr::ZERO);

                // Stage 2 over a drawn candidate set (any size and order).
                let mut candidates: Vec<usize> = (0..27).collect();
                candidates.sort_by_key(|&label| order[label]);
                candidates.truncate(count);
                let mut scratch = ClassifyScratch::default();
                let mut rng = key.rng(identifier.config.seed);
                let scores = identifier.dissimilarity_scores(&full, &candidates, &mut rng, &mut scratch);
                let mut oracle_rng = key.rng(identifier.config.seed);
                let expected = oracle_scores(&identifier, &full, &candidates, &mut oracle_rng);
                prop_assert_eq!(bits(&scores), bits(&expected));
                prop_assert_eq!(rng.index(1 << 20), oracle_rng.index(1 << 20), "draws consumed");

                // And the whole identification in this mode: tie set,
                // keyed tie-break draw and recorded scores.
                let id = identifier.identify_keyed(&full, &fixed, key);
                let oracle = oracle_identify(&identifier, &full, &fixed, key);
                prop_assert_eq!(bits(&id.scores), bits(&oracle.scores));
                prop_assert_eq!(id, oracle);
            }
        }
    }
}
