//! Columnar storage and the batched scoring kernel of the ranking stack.
//!
//! The inner loop of the paper — evaluating every candidate package against
//! every posterior weight sample — used to be written as scalar
//! `for sample in pool` loops over per-sample `Vec<f64>`s scattered across the
//! engine, the ranking semantics, the samplers and the maintenance code.  This
//! module centralises that loop on *contiguous* storage:
//!
//! * [`WeightMatrix`] — the weight samples of a pool, row-major
//!   (`samples × dim`), together with their importance weights,
//! * [`CandidateMatrix`] — candidate package feature vectors, row-major
//!   (`candidates × dim`),
//! * [`score_batch`] / [`score_batch_threaded`] — the cache-blocked kernel
//!   computing the full `candidates × samples` utility matrix
//!   (`S[c][s] = candidate_c · weights_s`), optionally split across OS threads
//!   with [`std::thread::scope`],
//! * [`ScoreMatrix`] — the result, with the reductions the ranking stack
//!   needs: weighted expectations per candidate, the best candidate per
//!   sample, and threshold scans per candidate row.
//!
//! Dimension agreement is enforced here, at matrix construction and kernel
//! entry, with checks that hold in **release** builds — the scalar
//! [`crate::utility::dot`] only `debug_assert`s and would silently
//! zip-truncate a mismatched pair.
//!
//! # Layout invariants the autovectorizer relies on
//!
//! The kernel is written so that rustc/LLVM can turn the inner loops into
//! SIMD without any `unsafe` or intrinsics.  Three invariants make that
//! possible, and every [`WeightMatrix`] upholds them by construction:
//!
//! * **Padded stride** — weight rows are stored at a fixed stride of
//!   [`WeightMatrix::stride`] floats, the dimensionality rounded up to a
//!   multiple of [`WEIGHT_STRIDE_LANES`] (4 × f64 = one 256-bit vector).
//!   Row starts therefore sit on vector-width boundaries relative to the
//!   buffer start, and the address of sample `s` is the single multiply
//!   `s * stride` with a power-friendly stride, not a data-dependent scan.
//!   The pad lanes are always zero ([`WeightMatrix::push`] /
//!   [`WeightMatrix::set_row`] maintain this), so strided reads past `dim`
//!   are defined and harmless.
//! * **Sample-lane blocking** — [`score_batch`] walks the sample dimension
//!   in fixed blocks of [`SAMPLE_BLOCK`] rows, keeping one accumulator per
//!   lane.  The feature loop is outermost inside a block, so each step is a
//!   broadcast of `candidate[j]` against [`SAMPLE_BLOCK`] strided loads —
//!   the exact shape LLVM recognises as a vectorisable
//!   broadcast-multiply-accumulate.  Per-cell summation still runs feature
//!   index `j = 0..dim` in ascending order, so every score is bit-identical
//!   to the scalar [`dot`].
//! * **Monomorphised dimensionality** — dimensionalities up to
//!   [`MAX_UNROLLED_DIM`] dispatch to a `const D` kernel, so the feature
//!   loop has a compile-time trip count and no bounds checks survive.
//!
//! `fig_scoring` races this kernel against the scalar [`dot`] path
//! (`BENCH_scoring.json`).
//!
//! # Example
//!
//! Score two candidate packages against a three-sample pool and reduce to
//! expected utilities:
//!
//! ```
//! use pkgrec_core::scoring::{score_batch, CandidateMatrix, WeightMatrix};
//!
//! // Three weight samples in 2-D, the middle one carrying double importance.
//! let mut weights = WeightMatrix::new(2);
//! weights.push(&[1.0, 0.0], 1.0);
//! weights.push(&[0.0, 1.0], 2.0);
//! weights.push(&[0.5, 0.5], 1.0);
//!
//! // Two candidate package feature vectors.
//! let candidates = CandidateMatrix::from_rows(2, &[vec![0.8, 0.2], vec![0.1, 0.9]]);
//!
//! let scores = score_batch(&candidates, &weights);
//! assert_eq!(scores.num_candidates(), 2);
//! assert_eq!(scores.num_samples(), 3);
//! // Candidate 0 under sample 0: (0.8, 0.2) · (1.0, 0.0) = 0.8.
//! assert!((scores.get(0, 0) - 0.8).abs() < 1e-12);
//!
//! // Weighted expected utility per candidate (importances 1, 2, 1).
//! let exp = scores.weighted_expectations(weights.importances());
//! assert!((exp[1] - (0.1 + 2.0 * 0.9 + 0.5) / 4.0).abs() < 1e-12);
//!
//! // The best candidate under each sample (the third sample scores both
//! // candidates 0.5; ties break toward the lower index).
//! assert_eq!(scores.top_candidate_per_sample(), vec![0, 1, 0]);
//! ```

use crate::utility::dot;

/// Largest dimensionality with a fully unrolled, bounds-check-free inner
/// kernel; the workspace's catalogs use 2–10 features, comfortably inside.
pub const MAX_UNROLLED_DIM: usize = 16;

/// Stride granularity of [`WeightMatrix`] rows, in `f64` lanes: every row
/// starts at a multiple of this many floats (4 × f64 = one 256-bit SIMD
/// vector), with zeroed pad lanes between `dim` and the next boundary.
pub const WEIGHT_STRIDE_LANES: usize = 4;

/// Number of weight samples each lane-blocked kernel step scores together
/// (one accumulator per lane; two 256-bit vectors' worth of `f64`).
pub const SAMPLE_BLOCK: usize = 8;

/// The padded row stride for a given dimensionality: `dim` rounded up to a
/// multiple of [`WEIGHT_STRIDE_LANES`] (0 stays 0 — an empty layout).
fn padded_stride(dim: usize) -> usize {
    dim.div_ceil(WEIGHT_STRIDE_LANES) * WEIGHT_STRIDE_LANES
}

/// Row-major flat storage of weight samples (`samples × dim`) plus their
/// importance weights — the columnar backbone of
/// [`SamplePool`](crate::sampler::SamplePool).
///
/// Every row is dimension-checked on insertion (a hard check, not a
/// `debug_assert`), so any matrix handed to the kernel is rectangular by
/// construction.  The type deliberately does not implement serde traits:
/// deserialising raw fields would bypass that invariant — pools serialise
/// through [`SamplePool`](crate::sampler::SamplePool)'s validating impls
/// instead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeightMatrix {
    dim: usize,
    /// Row stride in floats: `dim` rounded up to [`WEIGHT_STRIDE_LANES`].
    /// The lanes between `dim` and `stride` of every row are zero.
    stride: usize,
    weights: Vec<f64>,
    importances: Vec<f64>,
}

impl WeightMatrix {
    /// An empty matrix of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        WeightMatrix {
            dim,
            stride: padded_stride(dim),
            weights: Vec::new(),
            importances: Vec::new(),
        }
    }

    /// An empty matrix with room for `rows` samples.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        WeightMatrix {
            dim,
            stride: padded_stride(dim),
            weights: Vec::with_capacity(padded_stride(dim) * rows),
            importances: Vec::with_capacity(rows),
        }
    }

    /// Builds a matrix from per-sample rows and importances.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim` or the importance count
    /// differs from the row count (checked in release builds).
    pub fn from_rows(dim: usize, rows: &[Vec<f64>], importances: &[f64]) -> Self {
        assert_eq!(
            rows.len(),
            importances.len(),
            "one importance weight per sample row"
        );
        let mut matrix = WeightMatrix::with_capacity(dim, rows.len());
        for (row, &importance) in rows.iter().zip(importances) {
            matrix.push(row, importance);
        }
        matrix
    }

    /// Appends one weight sample.
    ///
    /// # Panics
    /// Panics if `weights.len() != self.dim()` (checked in release builds).
    pub fn push(&mut self, weights: &[f64], importance: f64) {
        assert_eq!(
            weights.len(),
            self.dim,
            "weight sample dimensionality {} does not match the matrix dimensionality {}",
            weights.len(),
            self.dim
        );
        self.weights.extend_from_slice(weights);
        // Zero the pad lanes up to the row stride (the layout invariant the
        // lane-blocked kernel reads through).
        self.weights
            .extend(std::iter::repeat_n(0.0, self.stride - self.dim));
        self.importances.push(importance);
    }

    /// Replaces the sample at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range or `weights.len() != self.dim()`.
    pub fn set_row(&mut self, row: usize, weights: &[f64], importance: f64) {
        assert_eq!(
            weights.len(),
            self.dim,
            "weight sample dimensionality {} does not match the matrix dimensionality {}",
            weights.len(),
            self.dim
        );
        let start = row * self.stride;
        self.weights[start..start + self.dim].copy_from_slice(weights);
        self.importances[row] = importance;
    }

    /// Number of features per sample.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.importances.len()
    }

    /// Whether the matrix holds no samples.
    pub fn is_empty(&self) -> bool {
        self.importances.is_empty()
    }

    /// The weight vector of one sample.
    pub fn row(&self, row: usize) -> &[f64] {
        let start = row * self.stride;
        &self.weights[start..start + self.dim]
    }

    /// The importance weight of one sample.
    pub fn importance(&self, row: usize) -> f64 {
        self.importances[row]
    }

    /// The row stride of the flat storage, in floats: `dim` rounded up to a
    /// multiple of [`WEIGHT_STRIDE_LANES`].  Sample `s` starts at
    /// `s * stride` in [`WeightMatrix::weights_flat`]; lanes `dim..stride`
    /// of every row are zero.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The flat, stride-padded row-major weight storage (`len × stride`
    /// floats; see [`WeightMatrix::stride`] for the layout contract).
    pub fn weights_flat(&self) -> &[f64] {
        &self.weights
    }

    /// The importance weights, one per sample.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Iterates over the sample rows (pad lanes excluded).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.weights
            .chunks_exact(self.stride.max(1))
            .map(move |row| &row[..self.dim])
    }

    /// Drops every row past `rows`, keeping the allocation.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.len() {
            self.weights.truncate(rows * self.stride);
            self.importances.truncate(rows);
        }
    }

    /// Keeps exactly the rows `keep` approves (called in order with the row
    /// index and the weight slice), compacting survivors toward the front
    /// in their original order **in place** — the flat allocation is reused,
    /// not reallocated.  Returns the number of rows kept.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize, &[f64]) -> bool) -> usize {
        let mut kept = 0usize;
        for i in 0..self.len() {
            let start = i * self.stride;
            let keep_row = keep(i, &self.weights[start..start + self.dim]);
            if keep_row {
                if kept != i {
                    self.weights
                        .copy_within(start..start + self.stride, kept * self.stride);
                    self.importances[kept] = self.importances[i];
                }
                kept += 1;
            }
        }
        self.truncate(kept);
        kept
    }
}

/// Row-major flat storage of candidate feature vectors (`candidates × dim`),
/// the left operand of [`score_batch`].  Like [`WeightMatrix`] it is
/// rectangular by construction and therefore not deserialisable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateMatrix {
    dim: usize,
    data: Vec<f64>,
    rows: usize,
}

impl CandidateMatrix {
    /// An empty matrix of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        CandidateMatrix {
            dim,
            data: Vec::new(),
            rows: 0,
        }
    }

    /// Builds a matrix from candidate rows.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim` (checked in release
    /// builds).
    pub fn from_rows(dim: usize, rows: &[Vec<f64>]) -> Self {
        let mut matrix = CandidateMatrix {
            dim,
            data: Vec::with_capacity(dim * rows.len()),
            rows: 0,
        };
        for row in rows {
            matrix.push_row(row);
        }
        matrix
    }

    /// Appends one candidate feature vector.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()` (checked in release builds).
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.dim,
            "candidate dimensionality {} does not match the matrix dimensionality {}",
            row.len(),
            self.dim
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of features per candidate.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the matrix holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The feature vector of one candidate.
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.dim..(row + 1) * self.dim]
    }
}

/// The `candidates × samples` utility matrix produced by [`score_batch`],
/// stored row-major by candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreMatrix {
    candidates: usize,
    samples: usize,
    data: Vec<f64>,
}

impl ScoreMatrix {
    /// Number of candidate rows.
    pub fn num_candidates(&self) -> usize {
        self.candidates
    }

    /// Number of sample columns.
    pub fn num_samples(&self) -> usize {
        self.samples
    }

    /// The score of one candidate under one sample.
    pub fn get(&self, candidate: usize, sample: usize) -> f64 {
        self.data[candidate * self.samples + sample]
    }

    /// All scores of one candidate, indexed by sample.
    pub fn candidate_row(&self, candidate: usize) -> &[f64] {
        &self.data[candidate * self.samples..(candidate + 1) * self.samples]
    }

    /// The importance-weighted expected score of every candidate:
    /// `E[c] = Σ_s q_s · S[c][s] / Σ_s q_s` (the EXP semantics' estimator).
    ///
    /// # Panics
    /// Panics if `importances.len()` differs from the sample count.
    pub fn weighted_expectations(&self, importances: &[f64]) -> Vec<f64> {
        assert_eq!(
            importances.len(),
            self.samples,
            "one importance weight per sample column"
        );
        let total: f64 = importances.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.candidates];
        }
        (0..self.candidates)
            .map(|c| dot(self.candidate_row(c), importances) / total)
            .collect()
    }

    /// The index of the best-scoring candidate under every sample (ties break
    /// toward the lower candidate index).  Empty when there are no candidates.
    pub fn top_candidate_per_sample(&self) -> Vec<usize> {
        if self.candidates == 0 {
            return Vec::new();
        }
        let mut best = vec![0usize; self.samples];
        let mut best_score = self.candidate_row(0).to_vec();
        for c in 1..self.candidates {
            for (s, &score) in self.candidate_row(c).iter().enumerate() {
                if score > best_score[s] {
                    best_score[s] = score;
                    best[s] = c;
                }
            }
        }
        best
    }

    /// Indices of the samples under which `candidate` scores strictly above
    /// `threshold` — the batched form of the maintenance scan for samples
    /// violating a new preference (`w · (p2 − p1) > 0`).
    pub fn samples_above(&self, candidate: usize, threshold: f64) -> Vec<usize> {
        self.candidate_row(candidate)
            .iter()
            .enumerate()
            .filter(|(_, &score)| score > threshold)
            .map(|(s, _)| s)
            .collect()
    }
}

/// Computes the full `candidates × samples` score matrix
/// `S[c][s] = candidates.row(c) · weights.row(s)` with the single-threaded
/// cache-blocked kernel.
///
/// # Panics
/// Panics if both matrices are non-empty and disagree on dimensionality
/// (checked in release builds).
pub fn score_batch(candidates: &CandidateMatrix, weights: &WeightMatrix) -> ScoreMatrix {
    score_batch_threaded(candidates, weights, 1)
}

/// [`score_batch`] split across up to `num_threads` OS threads with
/// [`std::thread::scope`]; candidate rows are partitioned into contiguous
/// chunks, so the result is identical to the single-threaded kernel.
///
/// `num_threads` is clamped to at least 1; values of 1 (the
/// [`EngineBuilder`](crate::builder::EngineBuilder) default) stay on the
/// calling thread.
///
/// # Panics
/// Panics if both matrices are non-empty and disagree on dimensionality
/// (checked in release builds).
pub fn score_batch_threaded(
    candidates: &CandidateMatrix,
    weights: &WeightMatrix,
    num_threads: usize,
) -> ScoreMatrix {
    if !candidates.is_empty() && !weights.is_empty() {
        assert_eq!(
            candidates.dim(),
            weights.dim(),
            "candidate dimensionality {} does not match sample dimensionality {}",
            candidates.dim(),
            weights.dim()
        );
    }
    let rows = candidates.len();
    let samples = weights.len();
    let threads = num_threads.max(1).min(rows.max(1));
    let data = if threads <= 1 || rows * samples < 4096 {
        // Serial path: append-only fill in row-major order — no zero
        // initialisation of the output buffer.
        let mut data = Vec::with_capacity(rows * samples);
        score_rows_into(candidates, weights, 0, rows, Sink::Append(&mut data));
        data
    } else {
        // Threaded path: each scoped thread owns a disjoint, contiguous slice
        // of candidate rows of the (zero-initialised) output buffer.
        let mut data = vec![0.0f64; rows * samples];
        let chunk_rows = rows.div_ceil(threads);
        std::thread::scope(|scope| {
            for (i, out) in data.chunks_mut(chunk_rows * samples).enumerate() {
                let first = i * chunk_rows;
                let count = out.len() / samples.max(1);
                scope.spawn(move || {
                    score_rows_into(candidates, weights, first, count, Sink::Fill(out))
                });
            }
        });
        data
    };
    ScoreMatrix {
        candidates: rows,
        samples,
        data,
    }
}

/// Where a kernel block writes its scores: appended to a growing buffer
/// (serial path) or into a pre-sized slice (one per thread).
enum Sink<'a> {
    Append(&'a mut Vec<f64>),
    Fill(&'a mut [f64]),
}

/// Scores the candidate rows `first..first + count` into the sink in
/// row-major order through the lane-blocked kernel.  Dispatches to a
/// monomorphised kernel for the catalog dimensionalities that occur in
/// practice, so the feature loop has a compile-time trip count.
fn score_rows_into(
    candidates: &CandidateMatrix,
    weights: &WeightMatrix,
    first: usize,
    count: usize,
    mut sink: Sink<'_>,
) {
    let dim = weights.dim();
    if dim == 0 || weights.is_empty() || count == 0 {
        if let Sink::Append(data) = &mut sink {
            data.resize(data.len() + count * weights.len(), 0.0);
        }
        return;
    }
    macro_rules! dispatch {
        ($($d:literal),+) => {
            match dim {
                $($d => score_rows_blocked::<$d>(candidates, weights, first, count, sink),)+
                _ => score_rows_generic(candidates, weights, first, count, sink),
            }
        };
    }
    dispatch!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16);
}

/// One lane block: scores one candidate against [`SAMPLE_BLOCK`] consecutive
/// weight rows (`block` starts at the first row and spans
/// `SAMPLE_BLOCK * stride` floats).  The feature loop is outermost, so each
/// step broadcasts `cand[j]` against [`SAMPLE_BLOCK`] strided loads into
/// independent accumulators — the autovectorizer's broadcast-FMA shape.
/// Each accumulator still sums features in ascending order, so every lane is
/// bit-identical to [`dot`].
#[inline(always)]
fn block_dot<const D: usize>(cand: &[f64; D], block: &[f64], stride: usize) -> [f64; SAMPLE_BLOCK] {
    let mut acc = [0.0f64; SAMPLE_BLOCK];
    for j in 0..D {
        let cj = cand[j];
        for l in 0..SAMPLE_BLOCK {
            acc[l] += cj * block[l * stride + j];
        }
    }
    acc
}

/// One remainder lane: the fully unrolled per-cell dot (ascending feature
/// order, bit-identical to [`dot`]).
#[inline(always)]
fn lane_dot<const D: usize>(cand: &[f64; D], w: &[f64]) -> f64 {
    let w: &[f64; D] = w[..D].try_into().expect("weight rows are rectangular");
    let mut acc = 0.0;
    for j in 0..D {
        acc += cand[j] * w[j];
    }
    acc
}

/// The lane-blocked kernel (the production path): walks the sample dimension
/// in [`SAMPLE_BLOCK`]-wide blocks over the stride-padded weight storage,
/// with a per-cell unrolled tail for the remainder samples.
fn score_rows_blocked<const D: usize>(
    candidates: &CandidateMatrix,
    weights: &WeightMatrix,
    first: usize,
    count: usize,
    mut sink: Sink<'_>,
) {
    debug_assert!(D <= MAX_UNROLLED_DIM);
    let stride = weights.stride();
    let flat = weights.weights_flat();
    let samples = weights.len();
    let blocks = samples / SAMPLE_BLOCK;
    for c in first..first + count {
        let cand: &[f64; D] = candidates
            .row(c)
            .try_into()
            .expect("candidate rows match the dispatched dimensionality");
        match &mut sink {
            Sink::Append(data) => {
                data.reserve(samples);
                for b in 0..blocks {
                    let base = b * SAMPLE_BLOCK * stride;
                    let block = &flat[base..base + SAMPLE_BLOCK * stride];
                    data.extend_from_slice(&block_dot::<D>(cand, block, stride));
                }
                for s in blocks * SAMPLE_BLOCK..samples {
                    data.push(lane_dot::<D>(cand, &flat[s * stride..]));
                }
            }
            Sink::Fill(out) => {
                let row = &mut out[(c - first) * samples..(c - first + 1) * samples];
                let (full, tail) = row.split_at_mut(blocks * SAMPLE_BLOCK);
                for (b, chunk) in full.chunks_exact_mut(SAMPLE_BLOCK).enumerate() {
                    let base = b * SAMPLE_BLOCK * stride;
                    let block = &flat[base..base + SAMPLE_BLOCK * stride];
                    chunk.copy_from_slice(&block_dot::<D>(cand, block, stride));
                }
                for (i, slot) in tail.iter_mut().enumerate() {
                    let s = blocks * SAMPLE_BLOCK + i;
                    *slot = lane_dot::<D>(cand, &flat[s * stride..]);
                }
            }
        }
    }
}

/// Fallback kernel for dimensionalities above [`MAX_UNROLLED_DIM`].
fn score_rows_generic(
    candidates: &CandidateMatrix,
    weights: &WeightMatrix,
    first: usize,
    count: usize,
    mut sink: Sink<'_>,
) {
    let dim = weights.dim();
    let stride = weights.stride();
    let flat = weights.weights_flat();
    for c in first..first + count {
        let cand = candidates.row(c);
        match &mut sink {
            Sink::Append(data) => {
                data.extend(flat.chunks_exact(stride).map(|w| dot(cand, &w[..dim])))
            }
            Sink::Fill(out) => {
                let row = &mut out[(c - first) * weights.len()..(c - first + 1) * weights.len()];
                for (slot, w) in row.iter_mut().zip(flat.chunks_exact(stride)) {
                    *slot = dot(cand, &w[..dim]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrices(
        candidates: usize,
        samples: usize,
        dim: usize,
        seed: u64,
    ) -> (CandidateMatrix, WeightMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cand = CandidateMatrix::new(dim);
        for _ in 0..candidates {
            let row: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            cand.push_row(&row);
        }
        let mut weights = WeightMatrix::new(dim);
        for _ in 0..samples {
            let row: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            weights.push(&row, rng.gen_range(0.1..2.0));
        }
        (cand, weights)
    }

    /// The per-cell unrolled arm: every cell through the fixed-width
    /// [`lane_dot`] the blocked kernel keeps for its remainder lanes, with no
    /// lane blocking; dimensionalities above [`MAX_UNROLLED_DIM`] take [`dot`].
    fn score_unrolled(candidates: &CandidateMatrix, weights: &WeightMatrix) -> ScoreMatrix {
        let cell = |cand: &[f64], w: &[f64]| -> f64 {
            macro_rules! dispatch {
                ($($d:literal),+) => {
                    match cand.len() {
                        $($d => lane_dot::<$d>(cand.try_into().expect("dispatched width"), w),)+
                        _ => dot(cand, w),
                    }
                };
            }
            dispatch!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
        };
        let data = (0..candidates.len())
            .flat_map(|c| (0..weights.len()).map(move |s| cell(candidates.row(c), weights.row(s))))
            .collect();
        ScoreMatrix {
            candidates: candidates.len(),
            samples: weights.len(),
            data,
        }
    }

    #[test]
    fn kernel_matches_the_scalar_dot_product() {
        let (cand, weights) = random_matrices(37, 301, 5, 1);
        let scores = score_batch(&cand, &weights);
        for c in 0..cand.len() {
            for s in 0..weights.len() {
                let expected = dot(cand.row(c), weights.row(s));
                assert_eq!(scores.get(c, s), expected, "candidate {c} sample {s}");
            }
        }
    }

    #[test]
    fn threaded_kernel_is_bit_identical_to_the_serial_kernel() {
        // Sizes straddling the block boundaries and the serial cutoff.
        for (candidates, samples) in [(1, 1), (3, 700), (130, 300), (257, 511)] {
            let (cand, weights) = random_matrices(candidates, samples, 4, 2);
            let serial = score_batch(&cand, &weights);
            for threads in [2, 3, 8] {
                let parallel = score_batch_threaded(&cand, &weights, threads);
                assert_eq!(
                    serial, parallel,
                    "{candidates}x{samples} @ {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_operands_produce_empty_matrices() {
        let (cand, _) = random_matrices(3, 0, 2, 3);
        let empty_weights = WeightMatrix::new(2);
        let scores = score_batch(&cand, &empty_weights);
        assert_eq!(scores.num_candidates(), 3);
        assert_eq!(scores.num_samples(), 0);
        assert!(scores.top_candidate_per_sample().is_empty());

        let empty_cand = CandidateMatrix::new(7);
        let (_, weights) = random_matrices(0, 4, 2, 4);
        // Dimensionalities disagree, but one side is empty: no scores exist to
        // be wrong, so the kernel returns the empty matrix instead of
        // panicking.
        let scores = score_batch(&empty_cand, &weights);
        assert_eq!(scores.num_candidates(), 0);
        assert_eq!(scores.num_samples(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match sample dimensionality")]
    fn dimension_mismatch_panics_in_release_builds_too() {
        let (cand, _) = random_matrices(2, 0, 3, 5);
        let (_, weights) = random_matrices(0, 2, 4, 6);
        let _ = score_batch(&cand, &weights);
    }

    #[test]
    #[should_panic(expected = "weight sample dimensionality")]
    fn ragged_weight_rows_are_rejected_at_construction() {
        let mut weights = WeightMatrix::new(3);
        weights.push(&[0.1, 0.2, 0.3], 1.0);
        weights.push(&[0.1, 0.2], 1.0);
    }

    #[test]
    #[should_panic(expected = "candidate dimensionality")]
    fn ragged_candidate_rows_are_rejected_at_construction() {
        let mut cand = CandidateMatrix::new(2);
        cand.push_row(&[0.1, 0.2, 0.3]);
    }

    #[test]
    fn weighted_expectations_respect_importances() {
        let mut weights = WeightMatrix::new(1);
        weights.push(&[1.0], 1.0);
        weights.push(&[3.0], 3.0);
        let cand = CandidateMatrix::from_rows(1, &[vec![1.0]]);
        let scores = score_batch(&cand, &weights);
        // (1·1 + 3·3) / 4 = 2.5.
        let exp = scores.weighted_expectations(weights.importances());
        assert!((exp[0] - 2.5).abs() < 1e-12);
        // Degenerate importances reduce to zero instead of dividing by zero.
        let zeros = scores.weighted_expectations(&[0.0, 0.0]);
        assert_eq!(zeros, vec![0.0]);
    }

    #[test]
    fn top_candidate_and_threshold_reductions() {
        let mut weights = WeightMatrix::new(2);
        weights.push(&[1.0, 0.0], 1.0);
        weights.push(&[0.0, 1.0], 1.0);
        weights.push(&[-1.0, -1.0], 1.0);
        let cand =
            CandidateMatrix::from_rows(2, &[vec![0.9, 0.1], vec![0.1, 0.9], vec![-0.5, -0.5]]);
        let scores = score_batch(&cand, &weights);
        assert_eq!(scores.top_candidate_per_sample(), vec![0, 1, 2]);
        assert_eq!(scores.samples_above(0, 0.0), vec![0, 1]);
        assert_eq!(scores.samples_above(2, 0.0), vec![2]);
        assert_eq!(scores.candidate_row(1), &[0.1, 0.9, -1.0]);
    }

    #[test]
    fn matrix_accessors_and_row_replacement() {
        let mut weights = WeightMatrix::with_capacity(2, 2);
        weights.push(&[0.1, 0.2], 1.0);
        weights.push(&[0.3, 0.4], 2.0);
        assert_eq!(weights.len(), 2);
        assert_eq!(weights.dim(), 2);
        assert_eq!(weights.row(1), &[0.3, 0.4]);
        assert_eq!(weights.importance(1), 2.0);
        // The flat storage is stride-padded: dim 2 rounds up to one 4-lane
        // stride, with zeroed pad lanes after each row.
        assert_eq!(weights.stride(), 4);
        assert_eq!(
            weights.weights_flat(),
            &[0.1, 0.2, 0.0, 0.0, 0.3, 0.4, 0.0, 0.0]
        );
        let rows: Vec<&[f64]> = weights.rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[0.3, 0.4]);
        weights.set_row(0, &[0.5, 0.6], 3.0);
        assert_eq!(weights.row(0), &[0.5, 0.6]);
        assert_eq!(weights.importances(), &[3.0, 2.0]);

        let from = WeightMatrix::from_rows(2, &[vec![0.5, 0.6], vec![0.3, 0.4]], &[3.0, 2.0]);
        assert_eq!(from, weights);

        let cand = CandidateMatrix::from_rows(3, &[vec![1.0, 2.0, 3.0]]);
        assert_eq!(cand.dim(), 3);
        assert_eq!(cand.len(), 1);
        assert!(!cand.is_empty());
        assert_eq!(cand.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn stride_is_padded_to_the_lane_width() {
        for (dim, stride) in [(0, 0), (1, 4), (2, 4), (4, 4), (5, 8), (8, 8), (9, 12)] {
            let m = WeightMatrix::new(dim);
            assert_eq!(m.stride(), stride, "dim {dim}");
        }
        // Pad lanes stay zero through set_row as well as push.
        let mut m = WeightMatrix::new(3);
        m.push(&[1.0, 2.0, 3.0], 1.0);
        m.set_row(0, &[4.0, 5.0, 6.0], 2.0);
        assert_eq!(m.weights_flat(), &[4.0, 5.0, 6.0, 0.0]);
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_the_unrolled_arm() {
        // Shapes straddling the SAMPLE_BLOCK boundary (remainder lanes) and
        // the unrolled-dim ceiling (generic fallback).
        for (candidates, samples, dim) in [
            (1, 1, 2),
            (3, 7, 5),
            (5, 8, 3),
            (7, 9, 4),
            (11, 1000, 6),
            (13, 257, 17),
        ] {
            let (cand, weights) = random_matrices(candidates, samples, dim, 11);
            let blocked = score_batch(&cand, &weights);
            let unrolled = score_unrolled(&cand, &weights);
            assert_eq!(blocked, unrolled, "{candidates}x{samples}x{dim}");
            for c in 0..candidates {
                for s in 0..samples {
                    assert_eq!(
                        blocked.get(c, s),
                        dot(cand.row(c), weights.row(s)),
                        "{candidates}x{samples}x{dim} cell ({c},{s})"
                    );
                }
            }
        }
    }

    #[test]
    fn retain_rows_compacts_in_place_and_keeps_the_allocation() {
        let mut m = WeightMatrix::new(2);
        for i in 0..6 {
            m.push(&[i as f64, -(i as f64)], 1.0 + i as f64);
        }
        let capacity = m.weights.capacity();
        let kept = m.retain_rows(|i, row| {
            assert_eq!(row[0], i as f64, "callback sees the original row");
            i % 2 == 0
        });
        assert_eq!(kept, 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.row(0), &[0.0, -0.0]);
        assert_eq!(m.row(1), &[2.0, -2.0]);
        assert_eq!(m.row(2), &[4.0, -4.0]);
        assert_eq!(m.importances(), &[1.0, 3.0, 5.0]);
        assert_eq!(m.weights.capacity(), capacity, "no reallocation");
        // Pad lanes survive compaction (the kernel reads through them).
        assert_eq!(m.weights_flat().len(), 3 * m.stride());
        m.truncate(1);
        assert_eq!(m.len(), 1);
        m.truncate(5); // no-op past the end
        assert_eq!(m.len(), 1);
    }
}
