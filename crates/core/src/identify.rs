//! The two-stage identification pipeline (Sect. IV-B).
//!
//! Stage 1 feeds `F'` to every per-type classifier. Zero acceptances ⇒
//! unknown device-type. One acceptance ⇒ done. Several ⇒ stage 2:
//! compare the full fingerprint `F` against 5 reference fingerprints of
//! each candidate type with normalized Damerau–Levenshtein distance,
//! sum per type into a dissimilarity score `s_i ∈ [0, 5]`, and pick the
//! minimum.

use sentinel_fingerprint::editdist::OsaScratch;
use sentinel_fingerprint::{Fingerprint, FixedFingerprint, InternedFingerprint, SymbolTable};
use sentinel_ml::pinned::PinnedRng;
use sentinel_ml::BankScorer;
use sentinel_netproto::MacAddr;

use crate::report::{Identification, Outcome, TypeName};
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
    pub(crate) const DIRECT: AssessKey = AssessKey {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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
#[derive(Debug, Clone, PartialEq)]
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
}

impl Default for IdentifierConfig {
    fn default() -> Self {
        IdentifierConfig {
            bank: BankConfig::default(),
            references_per_type: 5,
            mode: IdentifyMode::TwoStage,
            seed: 0,
            max_dissimilarity: 0.9,
        }
    }
}

/// Reusable scratch for the batched identification paths.
///
/// Holds stage 1's working words and per-item candidate pool, and stage 2's
/// probe symbols, sampled reference indices, their distances, the
/// item's scores and bit-parallel kernel memory (the probe's match masks
/// and per-lane column state, [`OsaScratch`]). A caller that keeps one
/// `ClassifyScratch` alive across ticks (a gateway holds one, inside its
/// `AssessScratch`) performs **zero heap allocations** in steady-state
/// batched classification, and steady-state identification allocates
/// only the one block each [`Identification`] owns — its candidates
/// beside their scores (the type name is shared), however many
/// candidates and references stage 2 compares. Both are pinned by the
/// counting-allocator tests in `crates/core/tests/alloc_batch.rs`. The
/// scratch carries no state between calls (the mask table is zeroed
/// again after every item), so reuse cannot change any result.
#[derive(Debug, Default)]
pub struct ClassifyScratch {
    /// The [`BankScorer`]'s working words: leaf words and vote counts
    /// for the row being scored, or lane masks and per-leaf lanes for
    /// up to 64 rows at once.
    words: Vec<u64>,
    /// Per-item candidate label sets; entries are reused across ticks.
    /// Edit-only mode keeps every label in the first.
    candidates: Vec<Vec<usize>>,
    /// Stage 2's working memory.
    stage2: Stage2Scratch,
}

/// Stage 2's share of a [`ClassifyScratch`], apart from the candidate
/// pool it reads.
#[derive(Debug, Default)]
struct Stage2Scratch {
    /// The current item's probe, projected to symbol ids.
    probe: Vec<u32>,
    /// Every candidate's sampled references (indices into the
    /// identifier's `interned`), candidate after candidate.
    chosen: Vec<usize>,
    /// The probe's exact distances to those references.
    distances: Vec<usize>,
    /// The current item's scores, one per candidate.
    scores: Vec<f64>,
    /// The probe's match masks (built once per item, not per reference)
    /// and the kernel's per-lane column state.
    osa: OsaScratch,
}

/// The serving form of a [`TrainedModel`]: only what identification
/// reads. `Identifier::from(&model)` is its one constructor.
#[derive(Debug)]
pub struct Identifier {
    /// The bank's forests as one scorer — the stage-1 hot path (results
    /// identical to the bank's own forests), and `RfOnly`'s vote shares.
    scorer: BankScorer,
    /// The type names as shared [`TypeName`]s, indexed by label: an
    /// identification clones a pointer, not the string.
    names: Vec<TypeName>,
    /// Packet columns of every reference, interned to `u32` symbols.
    symbols: SymbolTable,
    /// Every reference fingerprint `F` as symbols, type after type,
    /// interned once so the stage-2 kernel looks masks up by integer.
    interned: Vec<InternedFingerprint>,
    /// Where each type's run of `interned` starts, plus its end:
    /// type `label`'s references are `interned[first[label]..first[label + 1]]`.
    first: Vec<usize>,
    config: IdentifierConfig,
}

/// A trained model: the classifier bank, the stage-2 reference
/// fingerprints and the configuration — what an IoTSSP trains, grows
/// and ships to gateways, which serve it as an [`Identifier`]. The
/// `sentinel-snapshot` container is its only format: a model is built
/// from bytes only through its decoder, which validates every part via
/// [`TrainedModel::from_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    bank: ClassifierBank,
    references: Vec<Vec<Fingerprint>>,
    config: IdentifierConfig,
}

impl TrainedModel {
    /// Trains the bank on a labeled fingerprint dataset and keeps every
    /// type's fingerprints as its stage-2 references.
    pub fn train(dataset: &FingerprintDataset, config: &IdentifierConfig) -> Self {
        TrainedModel {
            bank: ClassifierBank::train(dataset, &config.bank),
            references: (0..dataset.n_types())
                .map(|label| references_of(dataset, label))
                .collect(),
            config: config.clone(),
        }
    }

    /// Learns one more device-type without touching the existing ones:
    /// trains its classifier ([`ClassifierBank::add_type`]) and keeps
    /// its fingerprints as references — bit-identical to what
    /// [`TrainedModel::train`] on `dataset` builds for that label.
    /// `dataset` is the extended corpus and must hold the new label
    /// (else training panics). Returns the label;
    /// `Identifier::from(&model)` serves the grown model.
    pub fn add_type(&mut self, name: impl Into<String>, dataset: &FingerprintDataset) -> usize {
        let label = self.bank.add_type(name, dataset);
        self.references.push(references_of(dataset, label));
        label
    }

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

    /// The configuration the model was trained with.
    pub fn config(&self) -> &IdentifierConfig {
        &self.config
    }
}

/// Type `label`'s fingerprints in `dataset`, in dataset order.
fn references_of(dataset: &FingerprintDataset, label: usize) -> Vec<Fingerprint> {
    (dataset.indices_of(label).into_iter())
        .map(|i| dataset.full(i).clone())
        .collect()
}

impl From<&TrainedModel> for Identifier {
    /// Packs the bank's forests into one [`BankScorer`] and interns every
    /// reference, so stage-2 edit distances run over `u32` symbols.
    fn from(model: &TrainedModel) -> Self {
        let mut symbols = SymbolTable::new();
        let n_references = model.references.iter().map(Vec::len).sum();
        let (mut interned, mut first) = (Vec::with_capacity(n_references), vec![0]);
        for of_type in &model.references {
            interned.extend(of_type.iter().map(|fp| symbols.intern(fp)));
            first.push(interned.len());
        }
        let names = (model.bank.type_names().iter())
            .map(|name| TypeName::from(name.as_str()))
            .collect();
        Identifier {
            scorer: BankScorer::new(model.bank.classifiers()),
            names,
            symbols,
            interned,
            first,
            config: model.config.clone(),
        }
    }
}

impl Identifier {
    /// Trains a model on a labeled fingerprint dataset and serves it.
    pub fn train(dataset: &FingerprintDataset, config: &IdentifierConfig) -> Self {
        Identifier::from(&TrainedModel::train(dataset, config))
    }

    /// Device-type names, indexed by label.
    pub fn type_names(&self) -> &[TypeName] {
        &self.names
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
        let ClassifyScratch {
            words,
            candidates,
            stage2,
        } = scratch;
        if mode == IdentifyMode::EditOnly {
            // Edit-only has no stage 1: every type is a candidate.
            if candidates.is_empty() {
                candidates.push(Vec::new());
            }
            candidates[0].clear();
            candidates[0].extend(0..self.names.len());
        } else {
            self.classify_into(items.len(), |i| items[i].1.as_slice(), words, candidates);
        }
        for (index, &(full, fixed, key)) in items.iter().enumerate() {
            let mut rng = key.rng(self.config.seed);
            out.push(match mode {
                IdentifyMode::TwoStage => {
                    self.discriminate(full, &candidates[index], &mut rng, stage2)
                }
                IdentifyMode::RfOnly => self.rf_best(fixed.as_slice(), &candidates[index], words),
                // Scoring every type is not a stage-1 multiple match.
                IdentifyMode::EditOnly => Identification {
                    discriminated: false,
                    ..self.discriminate(full, &candidates[0], &mut rng, stage2)
                },
            });
        }
    }

    /// Stage-1 classification of a whole batch into caller-owned
    /// scratch: per-item candidate label sets, identical to the model's
    /// [`ClassifierBank::matches`] on each item.
    ///
    /// Each `F'` row is scored in place, from the caller's slice, by one
    /// [`BankScorer::candidates_batch_into`] call: runs of 64 rows, and
    /// a last run of 20 or more, take its lane kernel (64 rows per
    /// machine word), and a shorter run is scored row by row — below
    /// about 20 rows the lane kernel's per-call cost outweighs what it
    /// saves per row. Either way each row gets the same answer, so the
    /// batch shape never changes a result, only its cost. The returned
    /// slice borrows the scratch's candidate pool (one entry per item,
    /// in order); with a warm scratch this makes zero heap allocations.
    pub fn classify_batch_in<'s>(
        &self,
        fixed: &[&FixedFingerprint],
        scratch: &'s mut ClassifyScratch,
    ) -> &'s [Vec<usize>] {
        let ClassifyScratch {
            words, candidates, ..
        } = scratch;
        self.classify_into(fixed.len(), |i| fixed[i].as_slice(), words, candidates);
        &candidates[..fixed.len()]
    }

    /// Stage 1 behind every batch path: scores the `n` rows `row(0..n)`
    /// in one [`BankScorer::candidates_batch_into`] call over the
    /// scorer's `words`, and leaves item `i`'s candidate labels in
    /// `candidates[i]`. Nothing is remembered between rows or calls.
    fn classify_into<'a>(
        &self,
        n: usize,
        row: impl Fn(usize) -> &'a [f64],
        words: &mut Vec<u64>,
        candidates: &mut Vec<Vec<usize>>,
    ) {
        if candidates.len() < n {
            candidates.resize_with(n, Vec::new);
        }
        for slot in &mut candidates[..n] {
            slot.clear();
        }
        self.scorer
            .candidates_batch_into(row, words, &mut candidates[..n]);
    }

    /// Stage 2: scores `full` against sampled references of every
    /// candidate type and picks the least dissimilar one. An empty
    /// candidate set is an unknown device-type and draws nothing.
    ///
    /// A single acceptance still gets its dissimilarity checked: a
    /// barely-over-threshold classifier can accept traffic that shares
    /// nothing with the type's references, and the score is what
    /// exposes that (see `max_dissimilarity`).
    ///
    /// The scores land in `stage2.scores`, and the identification's one
    /// block is built from them and `candidates` once the winner is
    /// picked.
    fn discriminate(
        &self,
        full: &Fingerprint,
        candidates: &[usize],
        rng: &mut PinnedRng,
        stage2: &mut Stage2Scratch,
    ) -> Identification {
        if candidates.is_empty() {
            return self.decided(None, Box::default(), false, false);
        }
        self.dissimilarity_scores_into(full, candidates, rng, stage2);
        let scores = &stage2.scores;
        let winner = self.pick_minimum(candidates, scores, rng);
        let scored = candidates.iter().copied().zip(scores.iter().copied());
        self.decided(winner, scored.collect(), candidates.len() > 1, true)
    }

    /// Confidence-based tie-break over a stage-1 candidate set (the
    /// `RfOnly` ablation's second half): the last candidate whose forest
    /// gives the `F'` row the largest class-1 vote share wins. Nothing
    /// is scored; `words` is the scorer's scratch.
    fn rf_best(&self, row: &[f64], candidates: &[usize], words: &mut Vec<u64>) -> Identification {
        let best = (candidates.iter())
            .map(|&label| (label, self.scorer.vote_share(label, row, words)))
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite confidences"))
            .map(|(label, _)| label);
        let unscored = candidates.iter().map(|&label| (label, 0.0)).collect();
        self.decided(best, unscored, false, false)
    }

    /// Wraps a decision — the winning label, or `None` for an unknown
    /// device-type — and its evidence into an [`Identification`].
    fn decided(
        &self,
        winner: Option<usize>,
        candidates: Box<[(usize, f64)]>,
        discriminated: bool,
        scored: bool,
    ) -> Identification {
        let outcome = match winner {
            Some(label) => Outcome::Identified {
                label,
                name: self.names[label].clone(),
            },
            None => Outcome::Unknown,
        };
        Identification {
            outcome,
            candidates,
            discriminated,
            scored,
        }
    }

    /// Sums normalized edit distances to `references_per_type` sampled
    /// reference fingerprints of each candidate type (the paper's
    /// `s_i ∈ [0, 5]`) into `stage2.scores`, one per candidate.
    ///
    /// The probe is the kernel's pattern: its match masks are built once
    /// here, and every candidate's sampled references stream past them
    /// together, as the texts of one `distances_into` call. Scores carry
    /// a best-so-far cutoff: once some candidate scored `B`, a later
    /// candidate whose score provably exceeds `B + 1e-12` (the tie
    /// tolerance) records a certified lower bound instead of the exact
    /// score. The winning label is unaffected — a pruned candidate can
    /// never reach the tie set — and the winner's own score is always
    /// exact. Candidates are scored in order, so the cutoff, and with it
    /// every recorded lower bound, is the same on every run.
    fn dissimilarity_scores_into(
        &self,
        full: &Fingerprint,
        candidates: &[usize],
        rng: &mut PinnedRng,
        stage2: &mut Stage2Scratch,
    ) {
        let Stage2Scratch {
            probe,
            chosen,
            distances,
            scores,
            osa,
        } = stage2;
        probe.clear();
        self.symbols.project_into(full, probe);
        // Scoring draws nothing, so sampling every candidate up front
        // consumes the generator exactly as sampling candidate by
        // candidate. Each draw is `PinnedRng::sample_k` over the type's
        // references, laid out behind the samples drawn so far.
        chosen.clear();
        for &label in candidates {
            let start = chosen.len();
            chosen.extend(self.first[label]..self.first[label + 1]);
            for slot in 0..self.drawn(label) {
                rng.sample_step(&mut chosen[start..], slot);
            }
            chosen.truncate(start + self.drawn(label));
        }
        distances.clear();
        // The table's ids plus the one id unseen columns project to.
        let mut pattern = osa.load(probe, self.symbols.len() + 1);
        let reference = |i: usize| self.interned[chosen[i]].symbols();
        pattern.distances_into(chosen.len(), reference, distances);
        let mut best = f64::INFINITY;
        scores.clear();
        let mut start = 0;
        for &label in candidates {
            let end = start + self.drawn(label);
            let (chosen, distances) = (&chosen[start..end], &distances[start..end]);
            let score = self.score_candidate(probe.len(), chosen, distances, best);
            best = best.min(score);
            scores.push(score);
            start = end;
        }
    }

    /// How many references stage 2 samples of `label`.
    fn drawn(&self, label: usize) -> usize {
        let pool = self.first[label + 1] - self.first[label];
        self.config.references_per_type.min(pool)
    }

    /// Scores one candidate type from the `m`-symbol probe's exact
    /// distances to its sampled references, cut off once the score
    /// provably exceeds `best + 1e-12`.
    ///
    /// Returns the exact score, or a lower bound `lb` with
    /// `best + 1e-12 < lb <= true score` when pruned.
    fn score_candidate(&self, m: usize, chosen: &[usize], distances: &[usize], best: f64) -> f64 {
        let mut sum = 0.0;
        for (&reference, &distance) in chosen.iter().zip(distances) {
            let longest = m.max(self.interned[reference].len());
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

    /// The least dissimilar candidate (ties drawn from `rng`), or `None`
    /// when even it is farther from its references than the cutoff.
    fn pick_minimum(
        &self,
        candidates: &[usize],
        scores: &[f64],
        rng: &mut PinnedRng,
    ) -> Option<usize> {
        let minimum = scores.iter().copied().fold(f64::INFINITY, f64::min);
        // Identical-firmware types can produce exactly tied dissimilarity
        // scores; break ties uniformly so neither twin is systematically
        // preferred.
        let is_tied = |score: f64| score <= minimum + 1e-12;
        let tied = scores.iter().filter(|&&score| is_tied(score)).count();
        let pick = if tied == 1 { 0 } else { rng.index(tied) };
        let best = candidates
            .iter()
            .zip(scores)
            .filter(|(_, &score)| is_tied(score))
            .map(|(&candidate, _)| candidate)
            .nth(pick)
            .expect("the minimum itself is in the tie set");
        // Even the best candidate must actually resemble its own
        // references: a winner whose mean normalized distance exceeds
        // the cutoff is traffic the classifiers should not have
        // accepted, and is reported as unknown (the winner is never
        // pruned, so `minimum` is its exact score).
        let cutoff = self.config.max_dissimilarity * self.drawn(best) as f64;
        (minimum <= cutoff).then_some(best)
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

    fn train_on_three() -> (TrainedModel, FingerprintDataset) {
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        let dataset = FingerprintDataset::collect(&devices, 8, 5);
        let model = TrainedModel::train(&dataset, &fast_config(IdentifyMode::TwoStage));
        (model, dataset)
    }

    #[test]
    fn identifies_held_out_runs_of_known_types() {
        let identifier = Identifier::from(&train_on_three().0);
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
        // Extending a trained model with a fourth type must leave the
        // three existing types bit-identical and append exactly the
        // state a full retrain on the extended dataset would build for
        // the new label: same classifier, same reference fingerprints,
        // and the same stage-1 candidates once the grown model is
        // served.
        let devices: Vec<_> = catalog().into_iter().take(4).collect();
        let three = FingerprintDataset::collect(&devices[..3], 8, 5);
        let four = FingerprintDataset::collect(&devices, 8, 5);
        let config = fast_config(IdentifyMode::TwoStage);
        let mut model = TrainedModel::train(&three, &config);
        let old = model.clone();
        let label = model.add_type(devices[3].info.identifier, &four);
        assert_eq!(label, 3);
        // Existing classifiers and references untouched, bit-for-bit.
        for known in 0..3 {
            assert_eq!(model.bank().classifier(known), old.bank().classifier(known));
            assert_eq!(model.references()[known], old.references()[known]);
        }
        let full = TrainedModel::train(&four, &config);
        assert_eq!(
            model.bank().classifier(label),
            full.bank().classifier(label)
        );
        assert_eq!(model.references()[label], full.references()[label]);
        // The identifier rebuilt from the grown model scores the new
        // label on the new type's own training fingerprints.
        let incremental = Identifier::from(&model);
        let fixed: Vec<&FixedFingerprint> = (0..four.len()).map(|i| four.fixed(i)).collect();
        let mut scratch = ClassifyScratch::default();
        let grown = incremental.classify_batch_in(&fixed, &mut scratch).to_vec();
        let mut fresh = ClassifyScratch::default();
        let retrained = Identifier::from(&full);
        let retrained = retrained.classify_batch_in(&fixed, &mut fresh);
        for (i, candidates) in grown.iter().enumerate() {
            assert_eq!(candidates, &model.bank().matches(fixed[i]), "sample {i}");
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
        let (model, dataset) = train_on_three();
        let identifier = Identifier::from(&model);
        let fixed: Vec<&FixedFingerprint> = (0..dataset.len()).map(|i| dataset.fixed(i)).collect();
        let mut scratch = ClassifyScratch::default();
        let batch = identifier.classify_batch_in(&fixed, &mut scratch);
        assert_eq!(batch.len(), fixed.len());
        for (i, candidates) in batch.iter().enumerate() {
            assert_eq!(candidates, &model.bank().matches(fixed[i]), "item {i}");
        }
    }

    #[test]
    fn a_model_file_with_hostile_thresholds_boots_and_scores_like_its_bank() {
        // `DecisionTree::from_parts` takes any threshold bits and the
        // snapshot codec passes them through: NaN of either sign, ±∞,
        // −0.0 and a value some probe holds exactly must neither panic
        // the scorer's build nor move a verdict off the bank's.
        use sentinel_ml::{DecisionTree, RandomForest};
        let (model, dataset) = train_on_three();
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
        let patched =
            TrainedModel::from_parts(bank, model.references().to_vec(), model.config().clone())
                .expect("references kept");
        let identifier = Identifier::from(&patched);
        let fixed: Vec<&FixedFingerprint> = (0..dataset.len()).map(|i| dataset.fixed(i)).collect();
        let mut scratch = ClassifyScratch::default();
        let batch = identifier.classify_batch_in(&fixed, &mut scratch);
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
        let (model, dataset) = train_on_three();
        let identifier = Identifier::from(&model);
        let id = identify(&identifier, dataset.full(0), dataset.fixed(0));
        assert!(id.scored);
        for score in id.scores() {
            assert!((0.0..=5.0).contains(&score));
        }
    }

    #[test]
    fn from_parts_refuses_a_type_without_references() {
        // Such a type samples nothing, scores 0 and would win stage 2
        // outright whenever stage 1 accepted it.
        let (model, _) = train_on_three();
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
                let reference = identifier.interned[identifier.first[label] + index].symbols();
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
                    let pool: Vec<usize> =
                        (0..identifier.first[label + 1] - identifier.first[label]).collect();
                    let chosen = rng.sample_k(&pool, per_type);
                    let score =
                        oracle_score_candidate(identifier, probe.symbols(), label, &chosen, best);
                    best = best.min(score);
                    score
                })
                .collect()
        }

        /// The whole identification of `full` in the identifier's mode,
        /// stage 1 through `model`'s bank (`RfOnly`'s tie-break through
        /// its confidences) and stage 2 through the oracle.
        fn oracle_identify(
            model: &TrainedModel,
            identifier: &Identifier,
            full: &Fingerprint,
            fixed: &FixedFingerprint,
            key: AssessKey,
        ) -> Identification {
            let (mode, bank) = (identifier.config.mode, model.bank());
            let candidates: Vec<usize> = match mode {
                IdentifyMode::EditOnly => (0..bank.n_types()).collect(),
                _ => bank.matches(fixed),
            };
            if mode == IdentifyMode::RfOnly {
                let best = candidates.iter().copied().max_by(|&a, &b| {
                    (bank.confidence(a, fixed))
                        .partial_cmp(&bank.confidence(b, fixed))
                        .expect("finite confidences")
                });
                let unscored = candidates.iter().map(|&label| (label, 0.0)).collect();
                return identifier.decided(best, unscored, false, false);
            }
            if candidates.is_empty() {
                return identifier.decided(None, Box::default(), false, false);
            }
            let mut rng = key.rng(identifier.config.seed);
            let scores = oracle_scores(identifier, full, &candidates, &mut rng);
            let discriminated = mode == IdentifyMode::TwoStage && candidates.len() > 1;
            let winner = identifier.pick_minimum(&candidates, &scores, &mut rng);
            let scored = candidates.into_iter().zip(scores).collect();
            identifier.decided(winner, scored, discriminated, true)
        }

        /// The whole catalog, 6 runs per type, 5-tree forests: 27 types
        /// to draw candidate sets from, trained once for every case.
        fn model() -> &'static (TrainedModel, FingerprintDataset) {
            static MODEL: OnceLock<(TrainedModel, FingerprintDataset)> = OnceLock::new();
            MODEL.get_or_init(|| {
                let dataset = FingerprintDataset::collect(&catalog(), 6, 11);
                let mut config = fast_config(IdentifyMode::TwoStage);
                config.bank.forest = ForestConfig::default().with_trees(5);
                (TrainedModel::train(&dataset, &config), dataset)
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

        fn bits(scores: impl IntoIterator<Item = f64>) -> Vec<u64> {
            scores.into_iter().map(f64::to_bits).collect()
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
                let model =
                    TrainedModel::from_parts(model.bank().clone(), model.references().to_vec(), config)
                        .expect("the trained parts");
                let identifier = Identifier::from(&model);
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
                let mut stage2 = Stage2Scratch::default();
                let mut rng = key.rng(identifier.config.seed);
                identifier.dissimilarity_scores_into(&full, &candidates, &mut rng, &mut stage2);
                let mut oracle_rng = key.rng(identifier.config.seed);
                let expected = oracle_scores(&identifier, &full, &candidates, &mut oracle_rng);
                prop_assert_eq!(bits(stage2.scores.iter().copied()), bits(expected));
                prop_assert_eq!(rng.index(1 << 20), oracle_rng.index(1 << 20), "draws consumed");

                // And the whole identification in this mode: tie set,
                // keyed tie-break draw and recorded scores.
                let id = identifier.identify_keyed(&full, &fixed, key);
                let oracle = oracle_identify(&model, &identifier, &full, &fixed, key);
                prop_assert_eq!(bits(id.scores()), bits(oracle.scores()));
                prop_assert_eq!(id, oracle);
            }
        }
    }
}
