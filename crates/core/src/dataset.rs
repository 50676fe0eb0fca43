//! Dataset assembly: one sample per dependency-graph node that materialized
//! into hardware, with its 302 features and (V, H) congestion labels.
//!
//! Features live in one flat row-major [`Matrix`] owned by the dataset
//! (structure-of-arrays), not in per-sample `Vec`s: row `i` of the matrix
//! belongs to `samples[i]`. The SoA extract kernel writes each row in
//! place, and [`CongestionDataset::to_ml`] hands the whole block to mlkit
//! without copying a single row.

use crate::backtrace::{backtrace_labels, BacktraceError};
use crate::features::{extract_rows, ExtractKernel, FEATURE_COUNT};
use fpga_fabric::{Device, ImplResult};
use hls_ir::{FuncId, OpId, ReplicaTag};
use hls_synth::SynthesizedDesign;
use mlkit::dataset::{Dataset, Matrix};

/// One labelled sample's metadata. Its 302 features are row `i` of the
/// owning [`CongestionDataset`]'s feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Design name.
    pub design: String,
    /// Function the op belongs to.
    pub func: FuncId,
    /// Representative op of the graph node.
    pub op: OpId,
    /// Source line of the op (0 = unknown).
    pub line: u32,
    /// Unroll provenance (for the marginal filter).
    pub replica: Option<ReplicaTag>,
    /// Vertical congestion label (%).
    pub vertical: f64,
    /// Horizontal congestion label (%).
    pub horizontal: f64,
}

impl Sample {
    /// The paper's Avg(V, H) label.
    pub fn average(&self) -> f64 {
        (self.vertical + self.horizontal) / 2.0
    }
}

/// Which congestion metric a model is trained on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Vertical congestion.
    Vertical,
    /// Horizontal congestion.
    Horizontal,
    /// Mean of the two.
    Average,
}

impl Target {
    /// All targets in the paper's column order.
    pub const ALL: [Target; 3] = [Target::Vertical, Target::Horizontal, Target::Average];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Target::Vertical => "Vertical",
            Target::Horizontal => "Horizontal",
            Target::Average => "Avg(V,H)",
        }
    }

    /// The label of a sample under this target.
    pub fn of(&self, s: &Sample) -> f64 {
        match self {
            Target::Vertical => s.vertical,
            Target::Horizontal => s.horizontal,
            Target::Average => s.average(),
        }
    }
}

/// The congestion dataset (paper §IV: 8111 samples over the suite).
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionDataset {
    /// Per-sample metadata; `samples[i]` owns feature row `i`.
    pub samples: Vec<Sample>,
    /// Flat row-major feature block, `FEATURE_COUNT` columns.
    features: Matrix,
}

impl Default for CongestionDataset {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionDataset {
    /// An empty dataset.
    pub fn new() -> Self {
        CongestionDataset {
            samples: Vec::new(),
            features: Matrix::with_cols(FEATURE_COUNT),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Append one sample with an explicit feature row.
    ///
    /// # Panics
    /// Panics if `features.len() != FEATURE_COUNT`.
    pub fn push(&mut self, sample: Sample, features: &[f64]) {
        self.features.push_row(features);
        self.samples.push(sample);
    }

    /// Feature row of sample `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn features_of(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// The whole feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Mutable feature matrix (feature-knockout ablations edit columns in
    /// place).
    pub fn features_mut(&mut self) -> &mut Matrix {
        &mut self.features
    }

    /// Append every sample of `other`, preserving order. The feature block
    /// moves as one flat copy — this is how per-design datasets merge back
    /// into the build's dataset without touching individual rows.
    pub fn extend(&mut self, other: &CongestionDataset) {
        self.samples.extend_from_slice(&other.samples);
        self.features.extend(&other.features);
    }

    /// Add every hardware-backed graph node of `design` as a sample using
    /// the default (SoA) extract kernel.
    ///
    /// # Errors
    /// Fails with a [`BacktraceError`] when op→cell provenance is broken;
    /// the dataset is left untouched in that case.
    pub fn add_design(
        &mut self,
        design: &SynthesizedDesign,
        impl_result: &ImplResult,
        device: &Device,
    ) -> Result<usize, BacktraceError> {
        self.add_design_with(design, impl_result, device, ExtractKernel::default())
    }

    /// [`CongestionDataset::add_design`] with an explicit extract kernel.
    /// Both kernels produce bitwise-identical rows; `Reference` is the
    /// original per-node allocation path kept for differential testing.
    /// Only labelled nodes are extracted: a node is labelled if any member
    /// op has hardware, and its first such op represents it.
    ///
    /// # Errors
    /// Same contract as [`CongestionDataset::add_design`].
    pub fn add_design_with(
        &mut self,
        design: &SynthesizedDesign,
        impl_result: &ImplResult,
        device: &Device,
        kernel: ExtractKernel,
    ) -> Result<usize, BacktraceError> {
        let labels = backtrace_labels(design, impl_result)?;
        let before = self.samples.len();
        let CongestionDataset { samples, features } = self;
        extract_rows(design, device, kernel, features, |fid, f, ops| {
            let Some((op, label)) = ops
                .iter()
                .find_map(|&o| labels.get(&(fid, o)).map(|l| (o, l)))
            else {
                return 0;
            };
            let op_ref = f.op(op);
            samples.push(Sample {
                design: design.module.name.clone(),
                func: fid,
                op,
                line: op_ref.loc.map(|l| l.line).unwrap_or(0),
                replica: op_ref.replica,
                vertical: label.vertical,
                horizontal: label.horizontal,
            });
            1
        });
        Ok(self.samples.len() - before)
    }

    /// The dataset's statistical identity: per-column distribution
    /// sketches plus a digest of the raw matrix bits (see
    /// [`crate::fingerprint`]). Fingerprints of bit-identical datasets are
    /// byte-identical, so this inherits the 1-vs-N-worker invariance of
    /// the build itself.
    pub fn fingerprint(&self) -> crate::fingerprint::DatasetFingerprint {
        crate::fingerprint::DatasetFingerprint::of(self)
    }

    /// Convert to an [`mlkit`] dataset for a given target metric. The
    /// feature block is cloned as one flat buffer — no per-row copies.
    pub fn to_ml(&self, target: Target) -> Dataset {
        Dataset {
            x: self.features.clone(),
            y: self.samples.iter().map(|s| target.of(s)).collect(),
        }
    }

    /// Deterministic train/test split at the sample level.
    ///
    /// `test_fraction` is clamped to `[0, 1]` (NaN counts as 0). Whenever
    /// the dataset has at least two samples and the fraction is non-zero
    /// after clamping, both halves are guaranteed non-empty — a tiny
    /// dataset can no longer round its way into an empty test set (which
    /// used to make `evaluate` panic downstream).
    pub fn split(&self, test_fraction: f64, seed: u64) -> (CongestionDataset, CongestionDataset) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let fraction = if test_fraction.is_nan() {
            0.0
        } else {
            test_fraction.clamp(0.0, 1.0)
        };
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let mut n_test = ((self.len() as f64) * fraction).round() as usize;
        if self.len() >= 2 && fraction > 0.0 {
            n_test = n_test.clamp(1, self.len() - 1);
        }
        let (test, train) = idx.split_at(n_test.min(self.len()));
        let pick = |ids: &[usize]| CongestionDataset {
            samples: ids.iter().map(|&i| self.samples[i].clone()).collect(),
            features: self.features.select(ids),
        };
        (pick(train), pick(test))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::par::{run_par, ParOptions};
    use hls_ir::frontend::compile;
    use hls_synth::{HlsFlow, HlsOptions};

    fn build_dataset(srcs: &[&str]) -> CongestionDataset {
        let device = Device::xc7z020();
        let mut ds = CongestionDataset::new();
        for (i, src) in srcs.iter().enumerate() {
            let m = hls_ir::frontend::compile_named(src, &format!("d{i}")).unwrap();
            let d = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
            let r = run_par(&d, &device, &ParOptions::fast());
            let added = ds.add_design(&d, &r, &device).unwrap();
            assert!(added > 0, "every test design yields samples");
        }
        ds
    }

    const SRC: &str =
        "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k; } return s; }";

    #[test]
    fn samples_have_302_features() {
        let ds = build_dataset(&[SRC]);
        assert!(!ds.is_empty());
        assert_eq!(ds.features().rows(), ds.len());
        assert_eq!(ds.features().cols(), FEATURE_COUNT);
        for (i, s) in ds.samples.iter().enumerate() {
            assert_eq!(ds.features_of(i).len(), FEATURE_COUNT);
            assert!(ds.features_of(i).iter().all(|v| v.is_finite()));
            assert!(s.vertical >= 0.0 && s.horizontal >= 0.0);
        }
    }

    #[test]
    fn both_kernels_build_identical_datasets() {
        let device = Device::xc7z020();
        let m = hls_ir::frontend::compile_named(SRC, "d0").unwrap();
        let d = HlsFlow::new(HlsOptions::default()).run(&m).unwrap();
        let r = run_par(&d, &device, &ParOptions::fast());
        let mut soa = CongestionDataset::new();
        let mut reference = CongestionDataset::new();
        soa.add_design_with(&d, &r, &device, ExtractKernel::Soa)
            .unwrap();
        reference
            .add_design_with(&d, &r, &device, ExtractKernel::Reference)
            .unwrap();
        assert_eq!(soa, reference);
    }

    #[test]
    fn multiple_designs_accumulate() {
        let one = build_dataset(&[SRC]).len();
        let two = build_dataset(&[SRC, "int32 g(int32 x, int32 y) { return x * y - x; }"]).len();
        assert!(two > one);
    }

    #[test]
    fn to_ml_respects_target() {
        let ds = build_dataset(&[SRC]);
        let v = ds.to_ml(Target::Vertical);
        let h = ds.to_ml(Target::Horizontal);
        let a = ds.to_ml(Target::Average);
        assert_eq!(v.len(), ds.len());
        assert_eq!(v.x.rows(), ds.len());
        for i in 0..ds.len() {
            assert!((a.y[i] - (v.y[i] + h.y[i]) / 2.0).abs() < 1e-9);
            assert_eq!(v.x.row(i), ds.features_of(i), "to_ml must not reorder rows");
        }
        let _ = compile(SRC).unwrap();
    }

    #[test]
    fn split_partitions_samples() {
        let ds = build_dataset(&[SRC]);
        let (train, test) = ds.split(0.2, 42);
        assert_eq!(train.len() + test.len(), ds.len());
        assert!(!test.is_empty());
        assert_eq!(train.features().rows(), train.len());
        assert_eq!(test.features().rows(), test.len());
    }

    /// A dataset of `n` synthetic samples — `split` only looks at indices.
    fn synthetic(n: usize) -> CongestionDataset {
        let mut ds = CongestionDataset::new();
        for i in 0..n {
            ds.push(
                Sample {
                    design: format!("s{i}"),
                    func: FuncId(0),
                    op: OpId(i as u32),
                    line: 0,
                    replica: None,
                    vertical: 0.0,
                    horizontal: 0.0,
                },
                &vec![0.0; FEATURE_COUNT],
            );
        }
        ds
    }

    #[test]
    fn split_never_returns_empty_test_for_two_plus_samples() {
        // 2 samples at 10%: round(0.2) = 0 used to leave the test set
        // empty; the guarantee is ≥1 test sample whenever len ≥ 2.
        for n in 2..12 {
            let (train, test) = synthetic(n).split(0.1, 3);
            assert!(!test.is_empty(), "empty test set for n = {n}");
            assert!(!train.is_empty(), "empty train set for n = {n}");
            assert_eq!(train.len() + test.len(), n);
        }
    }

    #[test]
    fn split_clamps_fraction_to_unit_interval() {
        let ds = synthetic(10);
        // Above 1: everything the guarantee allows goes to test.
        let (train, test) = ds.split(7.5, 1);
        assert_eq!(test.len(), 9);
        assert_eq!(train.len(), 1);
        // Below 0 (and NaN): nothing goes to test.
        let (train, test) = ds.split(-0.3, 1);
        assert_eq!((train.len(), test.len()), (10, 0));
        let (train, test) = ds.split(f64::NAN, 1);
        assert_eq!((train.len(), test.len()), (10, 0));
    }

    #[test]
    fn split_edge_sizes() {
        // Empty and singleton datasets stay degenerate but never panic.
        let (train, test) = synthetic(0).split(0.5, 1);
        assert_eq!((train.len(), test.len()), (0, 0));
        let (train, test) = synthetic(1).split(0.99, 1);
        assert_eq!(train.len() + test.len(), 1);
    }
}
