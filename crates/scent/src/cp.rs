//! CP-ALS decomposition of 3-mode sparse tensors — the
//! decomposition-based monitoring *baseline* SCENT is compared against.
//!
//! Alternating least squares with hash-free sparse MTTKRP; rank-R factor
//! matrices per mode; a small ridge term keeps the R×R normal equations
//! well conditioned.

use crate::tensor::SparseTensor;
use hive_par::chunk_len;
use hive_rng::Rng;

/// A rank-R CP model of a 3-mode tensor.
#[derive(Clone, Debug)]
pub struct CpModel {
    /// Factor matrices `[A (I×R), B (J×R), C (K×R)]`, row-major.
    pub factors: [Vec<Vec<f64>>; 3],
    /// Decomposition rank.
    pub rank: usize,
    /// Root sum-squared reconstruction error over the observed entries
    /// after the final iteration.
    pub residual: f64,
}

impl CpModel {
    /// Reconstructed value at `(i, j, k)`.
    pub fn reconstruct(&self, i: usize, j: usize, k: usize) -> f64 {
        let (a, b, c) = (&self.factors[0][i], &self.factors[1][j], &self.factors[2][k]);
        (0..self.rank).map(|r| a[r] * b[r] * c[r]).sum()
    }

    /// Root sum-squared difference between two models' reconstructions
    /// evaluated at `coords` — the decomposition-based change score.
    pub fn reconstruction_distance(&self, other: &CpModel, coords: &[[usize; 3]]) -> f64 {
        coords
            .iter()
            .map(|&[i, j, k]| {
                let d = self.reconstruct(i, j, k) - other.reconstruct(i, j, k);
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// Solves the symmetric positive (semi)definite system `G x = b` by
/// Gaussian elimination with partial pivoting; `G` gets a ridge `1e-9 I`.
#[allow(clippy::needless_range_loop)] // index math mirrors the textbook elimination
fn solve_spd(g: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut m: Vec<Vec<f64>> = g
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = row.clone();
            r[i] += 1e-9;
            r.push(b[i]);
            r
        })
        .collect();
    for col in 0..n {
        // Pivot.
        let piv = (col..n)
            .max_by(|&a, &b2| m[a][col].abs().total_cmp(&m[b2][col].abs()))
            .unwrap_or(col);
        m.swap(col, piv);
        let pivot = m[col][col];
        if pivot.abs() < 1e-300 {
            continue;
        }
        for row in (col + 1)..n {
            let f = m[row][col] / pivot;
            if f == 0.0 {
                continue;
            }
            for c2 in col..=n {
                m[row][c2] -= f * m[col][c2];
            }
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = m[row][n];
        for c2 in (row + 1)..n {
            s -= m[row][c2] * x[c2];
        }
        let d = m[row][row];
        x[row] = if d.abs() < 1e-300 { 0.0 } else { s / d };
    }
    x
}

/// `AᵀA` for a row-major matrix with R columns.
#[allow(clippy::needless_range_loop)] // symmetric fill-in over (p, q) pairs
fn gram(mat: &[Vec<f64>], r: usize) -> Vec<Vec<f64>> {
    let mut g = vec![vec![0.0; r]; r];
    for row in mat {
        for p in 0..r {
            if row[p] == 0.0 {
                continue;
            }
            for q in p..r {
                g[p][q] += row[p] * row[q];
            }
        }
    }
    for p in 0..r {
        for q in 0..p {
            g[p][q] = g[q][p];
        }
    }
    g
}

/// Elementwise (Hadamard) product of two R×R matrices.
fn hadamard(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    a.iter()
        .zip(b)
        .map(|(ra, rb)| ra.iter().zip(rb).map(|(x, y)| x * y).collect())
        .collect()
}

/// Folds `items` in fixed [`chunk_len`] chunks, each from `init()`, and
/// merges the chunk partials in chunk order. The chunk layout depends
/// only on the item count, so it fixes the floating-point association
/// of every sum. Returns `init()` for empty input.
fn chunked_fold<T, A>(
    items: &[T],
    init: impl Fn() -> A,
    fold: impl Fn(A, &T) -> A,
    merge: impl Fn(A, A) -> A,
) -> A {
    items
        .chunks(chunk_len(items.len()))
        .map(|chunk| chunk.iter().fold(init(), &fold))
        .reduce(merge)
        .unwrap_or_else(init)
}

/// CP-ALS on a 3-mode sparse tensor.
///
/// The sums fold over the entries in the tensor's coordinate order.
///
/// Panics if the tensor is not order-3 or `rank == 0`.
pub fn cp_als(t: &SparseTensor, rank: usize, iters: usize, seed: u64) -> CpModel {
    assert_eq!(t.order(), 3, "cp_als requires a 3-mode tensor");
    assert!(rank > 0, "rank must be positive");
    let dims = [t.shape()[0], t.shape()[1], t.shape()[2]];
    let entries: Vec<([usize; 3], f64)> = t
        .iter()
        .map(|(idx, v)| ([idx[0], idx[1], idx[2]], v))
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut factors: [Vec<Vec<f64>>; 3] = [
        (0..dims[0])
            .map(|_| (0..rank).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect(),
        (0..dims[1])
            .map(|_| (0..rank).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect(),
        (0..dims[2])
            .map(|_| (0..rank).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect(),
    ];
    let merge_mats = |mut a: Vec<Vec<f64>>, b: Vec<Vec<f64>>| {
        for (ra, rb) in a.iter_mut().zip(b) {
            for (x, y) in ra.iter_mut().zip(rb) {
                *x += y;
            }
        }
        a
    };
    for _ in 0..iters {
        for mode in 0..3 {
            let (m1, m2) = match mode {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            // MTTKRP: M[i_mode][r] += x * F1[i_m1][r] * F2[i_m2][r],
            // folded per fixed entry chunk, partial matrices merged in
            // chunk order.
            let f1s = &factors[m1];
            let f2s = &factors[m2];
            let mttkrp = chunked_fold(
                &entries,
                || vec![vec![0.0; rank]; dims[mode]],
                |mut acc, &([i, j, k], x)| {
                    let coords = [i, j, k];
                    let row = &mut acc[coords[mode]];
                    let f1 = &f1s[coords[m1]];
                    let f2 = &f2s[coords[m2]];
                    for r in 0..rank {
                        row[r] += x * f1[r] * f2[r];
                    }
                    acc
                },
                merge_mats,
            );
            let g = hadamard(&gram(&factors[m1], rank), &gram(&factors[m2], rank));
            factors[mode] = mttkrp.iter().map(|row| solve_spd(&g, row)).collect();
        }
    }
    let model = CpModel { factors, rank, residual: 0.0 };
    let sq_err = |acc: f64, &([i, j, k], x): &([usize; 3], f64)| {
        let d = x - model.reconstruct(i, j, k);
        acc + d * d
    };
    let residual = chunked_fold(&entries, || 0.0f64, sq_err, |a, b| a + b).sqrt();
    CpModel { residual, ..model }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an exactly rank-1 tensor a⊗b⊗c.
    fn rank1_tensor() -> SparseTensor {
        let a = [1.0, 2.0, 0.5];
        let b = [0.5, 1.5];
        let c = [2.0, 1.0];
        let mut t = SparseTensor::new(vec![3, 2, 2]);
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                for (k, &ck) in c.iter().enumerate() {
                    t.set(&[i, j, k], ai * bj * ck);
                }
            }
        }
        t
    }

    #[test]
    fn rank1_recovered_exactly() {
        let t = rank1_tensor();
        let model = cp_als(&t, 1, 30, 1);
        let rel = model.residual / t.frobenius_norm();
        assert!(rel < 1e-6, "rank-1 tensor should be fit exactly, rel={rel}");
        // Spot-check a reconstruction.
        assert!((model.reconstruct(1, 1, 0) - t.get(&[1, 1, 0])).abs() < 1e-6);
    }

    #[test]
    fn higher_rank_fits_better() {
        // Sum of two random rank-1 components.
        let mut t = rank1_tensor();
        let mut t2 = SparseTensor::new(vec![3, 2, 2]);
        for i in 0..3 {
            for j in 0..2 {
                for k in 0..2 {
                    t2.set(&[i, j, k], ((i + 1) * (2 - j) + k) as f64 * 0.3);
                }
            }
        }
        for (idx, v) in t2.iter() {
            t.add(idx, v);
        }
        let r1 = cp_als(&t, 1, 40, 1).residual;
        let r3 = cp_als(&t, 3, 40, 1).residual;
        assert!(r3 <= r1 + 1e-9, "rank 3 should fit at least as well: {r3} vs {r1}");
    }

    #[test]
    fn identical_tensors_have_zero_reconstruction_distance() {
        let t = rank1_tensor();
        let m1 = cp_als(&t, 2, 25, 7);
        let m2 = cp_als(&t, 2, 25, 7);
        let coords: Vec<[usize; 3]> = t.iter().map(|(i, _)| [i[0], i[1], i[2]]).collect();
        assert!(m1.reconstruction_distance(&m2, &coords) < 1e-9);
    }

    #[test]
    fn changed_tensor_scores_higher_than_unchanged() {
        let t = rank1_tensor();
        let mut changed = t.clone();
        changed.set(&[0, 0, 0], 10.0);
        changed.set(&[2, 1, 1], 9.0);
        let base = cp_als(&t, 2, 25, 3);
        let same = cp_als(&t, 2, 25, 4); // different init, same data
        let diff = cp_als(&changed, 2, 25, 3);
        let coords: Vec<[usize; 3]> = t.iter().map(|(i, _)| [i[0], i[1], i[2]]).collect();
        let d_same = base.reconstruction_distance(&same, &coords);
        let d_diff = base.reconstruction_distance(&diff, &coords);
        assert!(d_diff > d_same * 3.0, "change should dominate init noise: {d_diff} vs {d_same}");
    }

    #[test]
    fn solver_solves_small_system() {
        let g = vec![vec![4.0, 1.0], vec![1.0, 3.0]];
        let b = vec![1.0, 2.0];
        let x = solve_spd(&g, &b);
        // 4x + y = 1; x + 3y = 2 -> x = 1/11, y = 7/11.
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-6);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-6);
    }

    /// `draws` random cells of a `dim`×`dim`×3 tensor set to values in
    /// [0.1, 1) (a redrawn cell keeps its last value).
    fn random_tensor(dim: usize, draws: usize, seed: u64) -> SparseTensor {
        let mut t = SparseTensor::new(vec![dim, dim, 3]);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..draws {
            let idx = vec![rng.gen_range(0..dim), rng.gen_range(0..dim), rng.gen_range(0..3usize)];
            t.set(&idx, rng.gen_range(0.1..1.0));
        }
        t
    }

    /// FNV-1a over the bit pattern of every factor entry, mode by mode
    /// and row by row, then of the residual: moves if any of them moves
    /// by an ulp.
    fn model_bits_hash(model: &CpModel) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let values = model.factors.iter().flatten().flatten().chain([&model.residual]);
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// CP-ALS output bits, pinned. A tensor iterates its cells in
    /// coordinate order, so the fold order is the same in every process.
    /// The MTTKRP and residual sums fold over fixed `hive_par::chunk_len`
    /// chunks merged in chunk order, so the floating-point association is
    /// part of the output: the first tensor spans 39 chunks of 256
    /// entries, the second fits one chunk.
    #[test]
    fn cp_als_output_bits_are_pinned() {
        let pinned = |t: &SparseTensor| model_bits_hash(&cp_als(t, 3, 5, 1));
        let large = random_tensor(100, 12_000, 9);
        let small = random_tensor(20, 200, 9);
        assert_eq!(large.nnz(), 9_916);
        assert!(small.nnz() < hive_par::MIN_CHUNK, "{} entries", small.nnz());
        const GOLDEN: [u64; 2] = [0xc320_9db6_45cb_57ea, 0xf500_04c8_92bd_8272];
        assert_eq!([pinned(&large), pinned(&small)], GOLDEN, "CP-ALS output bits moved");
    }

    #[test]
    #[should_panic(expected = "3-mode")]
    fn order_checked() {
        let t = SparseTensor::new(vec![2, 2]);
        cp_als(&t, 1, 5, 0);
    }
}
