//! Labeled fingerprint datasets (the paper's 540-fingerprint corpus).

use sentinel_devicesim::{DeviceModel, DeviceProfile, SetupTrace, Testbed};
use sentinel_fingerprint::{FeatureExtractor, Fingerprint, FixedFingerprint, FIXED_PACKETS};
use sentinel_netproto::{Packet, RawFeatures};

/// A labeled corpus of device fingerprints: for each setup run both the
/// variable-length `F` (for edit-distance discrimination) and the fixed
/// 276-dimensional `F'` (for classification), plus the device-type
/// label.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintDataset {
    type_names: Vec<String>,
    labels: Vec<usize>,
    full: Vec<Fingerprint>,
    fixed: Vec<FixedFingerprint>,
}

impl FingerprintDataset {
    /// Collects `runs` setup traces per catalog device on a fresh
    /// [`Testbed`] seeded with `seed`, and extracts fingerprints — the
    /// reproduction of the paper's data collection (Sect. VI-A: 27
    /// types × 20 runs = 540 fingerprints).
    pub fn collect(devices: &[DeviceModel], runs: u64, seed: u64) -> Self {
        Self::collect_with_packets(devices, runs, seed, FIXED_PACKETS)
    }

    /// Collects fingerprints from *standby/operation* traffic instead of
    /// setup traffic (the Sect. VIII-A legacy-installation scenario):
    /// `cycles` heartbeat cycles per capture, `runs` captures per type.
    pub fn collect_standby(devices: &[DeviceModel], runs: u64, cycles: u32, seed: u64) -> Self {
        let testbed = Testbed::new(seed);
        Self::from_runs(devices, runs, FIXED_PACKETS, |profile, run| {
            testbed.standby_run(profile, run, cycles)
        })
    }

    /// Like [`FingerprintDataset::collect`] but building `F'` from a
    /// non-default number of unique packets (the truncation-length
    /// ablation).
    pub fn collect_with_packets(
        devices: &[DeviceModel],
        runs: u64,
        seed: u64,
        packets: usize,
    ) -> Self {
        let testbed = Testbed::new(seed);
        Self::from_runs(devices, runs, packets, |profile, run| {
            testbed.setup_run(profile, run)
        })
    }

    /// Fingerprints `runs` traces per device through [`scan_capture`],
    /// with `F'` over the first `packets` unique columns.
    fn from_runs(
        devices: &[DeviceModel],
        runs: u64,
        packets: usize,
        trace: impl Fn(&DeviceProfile, u64) -> SetupTrace,
    ) -> Self {
        let (mut labels, mut full, mut fixed) = (vec![], vec![], vec![]);
        for (label, device) in devices.iter().enumerate() {
            for run in 0..runs {
                let fingerprint = scan_capture(&trace(&device.profile, run).packets, |_| {});
                labels.push(label);
                fixed.push(FixedFingerprint::with_packets(&fingerprint, packets));
                full.push(fingerprint);
            }
        }
        let names = devices.iter().map(|d| d.info.identifier.to_owned());
        Self::from_parts(names.collect(), labels, full, fixed)
    }

    /// Builds a dataset from pre-extracted fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length or a label is out of
    /// range.
    pub fn from_parts(
        type_names: Vec<String>,
        labels: Vec<usize>,
        full: Vec<Fingerprint>,
        fixed: Vec<FixedFingerprint>,
    ) -> Self {
        assert_eq!(labels.len(), full.len());
        assert_eq!(labels.len(), fixed.len());
        assert!(labels.iter().all(|&l| l < type_names.len()));
        FingerprintDataset {
            type_names,
            labels,
            full,
            fixed,
        }
    }

    /// Number of fingerprints.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of device-types.
    pub fn n_types(&self) -> usize {
        self.type_names.len()
    }

    /// Device-type names, indexed by label.
    pub fn type_names(&self) -> &[String] {
        &self.type_names
    }

    /// The label of fingerprint `index`.
    pub fn label(&self, index: usize) -> usize {
        self.labels[index]
    }

    /// All labels in order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The variable-length fingerprint `F` at `index`.
    pub fn full(&self, index: usize) -> &Fingerprint {
        &self.full[index]
    }

    /// The fixed-size fingerprint `F'` at `index`.
    pub fn fixed(&self, index: usize) -> &FixedFingerprint {
        &self.fixed[index]
    }

    /// Indices of all fingerprints with the given label.
    pub(crate) fn indices_of(&self, label: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.labels[i] == label)
            .collect()
    }

    /// A sub-dataset restricted to `indices` (labels and names kept).
    pub fn subset(&self, indices: &[usize]) -> FingerprintDataset {
        FingerprintDataset {
            type_names: self.type_names.clone(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            full: indices.iter().map(|&i| self.full[i].clone()).collect(),
            fixed: indices.iter().map(|&i| self.fixed[i].clone()).collect(),
        }
    }
}

/// Fingerprints packets as the gateway reads them: each is encoded into
/// one reused frame buffer and scanned, and `observe` sees every scanned
/// record. A frame the scan rejects is skipped, as the gateway skips it;
/// a simulated packet's never is (`parse(encode(p)) == p`).
pub(crate) fn scan_capture(
    packets: &[Packet],
    mut observe: impl FnMut(&RawFeatures),
) -> Fingerprint {
    let (mut extractor, mut frame) = (FeatureExtractor::with_capacity(packets.len()), Vec::new());
    for packet in packets {
        packet.encode_into(&mut frame);
        if let Ok(raw) = RawFeatures::from_frame(&frame) {
            observe(&raw);
            extractor.push_raw(&raw);
        }
    }
    extractor.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_devicesim::catalog;

    fn small() -> FingerprintDataset {
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        FingerprintDataset::collect(&devices, 4, 1)
    }

    #[test]
    fn collect_shape() {
        let dataset = small();
        assert_eq!(dataset.len(), 12);
        assert_eq!(dataset.n_types(), 3);
        assert_eq!(dataset.indices_of(0).len(), 4);
        assert_eq!(dataset.fixed(0).dimensions(), 276);
    }

    #[test]
    fn paper_scale_dataset() {
        let devices = catalog();
        let dataset = FingerprintDataset::collect(&devices, 2, 2);
        assert_eq!(dataset.len(), 54);
        assert_eq!(dataset.n_types(), 27);
        assert_eq!(dataset.type_names()[0], "Aria");
    }

    #[test]
    fn subset_keeps_alignment() {
        let dataset = small();
        let indices = dataset.indices_of(1);
        let sub = dataset.subset(&indices);
        assert_eq!(sub.len(), 4);
        assert!(sub.labels().iter().all(|&l| l == 1));
        assert_eq!(sub.full(0), dataset.full(indices[0]));
    }

    #[test]
    fn same_type_runs_vary_but_share_structure() {
        let dataset = small();
        let a = dataset.full(0);
        let b = dataset.full(1);
        // Different runs of the same device are not byte-identical…
        assert_ne!(a, b);
        // …but lie close in edit distance compared to other types.
        let within = sentinel_fingerprint::editdist::normalized_distance(a, b);
        let other = dataset.indices_of(2)[0];
        let across = sentinel_fingerprint::editdist::normalized_distance(a, dataset.full(other));
        assert!(within < across, "within {within} vs across {across}");
    }

    #[test]
    fn standby_collection_shape() {
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        let dataset = FingerprintDataset::collect_standby(&devices, 4, 2, 1);
        assert_eq!(dataset.len(), 12);
        // Standby cycles are shorter than setup traces.
        let setup = FingerprintDataset::collect(&devices, 4, 1);
        let mean_len = |d: &FingerprintDataset| {
            (0..d.len()).map(|i| d.full(i).len()).sum::<usize>() as f64 / d.len() as f64
        };
        assert!(mean_len(&dataset) > 0.0);
        assert!(mean_len(&setup) > 0.0);
    }

    /// The dataset of `devices` × `runs` traces built through the
    /// decoded-packet `extract`: the reference every collection is held
    /// to, column for column.
    fn oracle(
        devices: &[DeviceModel],
        runs: u64,
        packets: usize,
        trace: impl Fn(&DeviceProfile, u64) -> SetupTrace,
    ) -> FingerprintDataset {
        let (mut labels, mut full, mut fixed) = (Vec::new(), Vec::new(), Vec::new());
        for (label, device) in devices.iter().enumerate() {
            for run in 0..runs {
                let fingerprint =
                    sentinel_fingerprint::extract(&trace(&device.profile, run).packets);
                labels.push(label);
                fixed.push(FixedFingerprint::with_packets(&fingerprint, packets));
                full.push(fingerprint);
            }
        }
        let names = devices.iter().map(|d| d.info.identifier.to_owned());
        FingerprintDataset::from_parts(names.collect(), labels, full, fixed)
    }

    #[test]
    fn collections_equal_the_decoded_packet_oracle() {
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        let testbed = Testbed::new(1);
        let setup = |profile: &DeviceProfile, run| testbed.setup_run(profile, run);
        let standby = |profile: &DeviceProfile, run| testbed.standby_run(profile, run, 2);
        assert_eq!(
            FingerprintDataset::collect(&devices, 4, 1),
            oracle(&devices, 4, FIXED_PACKETS, setup)
        );
        assert_eq!(
            FingerprintDataset::collect_with_packets(&devices, 4, 1, 16),
            oracle(&devices, 4, 16, setup)
        );
        assert_eq!(
            FingerprintDataset::collect_standby(&devices, 4, 2, 1),
            oracle(&devices, 4, FIXED_PACKETS, standby)
        );
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn from_parts_validates_lengths() {
        let _ = FingerprintDataset::from_parts(
            vec!["a".into()],
            vec![0, 0],
            vec![Fingerprint::default()],
            vec![],
        );
    }
}
