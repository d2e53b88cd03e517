//! Sparse COO tensors of arbitrary order.

use std::collections::BTreeMap;

/// A sparse tensor: a shape and a coordinate->value map. Zero values are
/// never stored. Cells iterate in coordinate order, so every fold over a
/// tensor runs in one order in every process.
#[derive(Clone, Debug, Default)]
pub struct SparseTensor {
    shape: Vec<usize>,
    data: BTreeMap<Vec<usize>, f64>,
}

impl SparseTensor {
    /// Creates an empty tensor with the given shape (order = shape.len()).
    pub fn new(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "tensor order must be >= 1");
        assert!(shape.iter().all(|&d| d > 0), "all dimensions must be positive");
        SparseTensor { shape, data: BTreeMap::new() }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's order (number of modes).
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    fn check_index(&self, idx: &[usize]) {
        assert_eq!(idx.len(), self.shape.len(), "index order mismatch");
        for (i, (&x, &d)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(x < d, "index {x} out of bounds for mode {i} (dim {d})");
        }
    }

    /// Value at `idx` (0 if unset).
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.check_index(idx);
        self.data.get(idx).copied().unwrap_or(0.0)
    }

    /// Sets the value at `idx` (removing the entry when 0).
    pub fn set(&mut self, idx: &[usize], v: f64) {
        self.check_index(idx);
        if v == 0.0 {
            self.data.remove(idx);
        } else {
            self.data.insert(idx.to_vec(), v);
        }
    }

    /// Adds `v` to the value at `idx`.
    pub fn add(&mut self, idx: &[usize], v: f64) {
        let cur = self.get(idx);
        self.set(idx, cur + v);
    }

    /// Iterates `(coordinates, value)` in coordinate order.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> {
        self.data.iter().map(|(k, &v)| (k.as_slice(), v))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.values().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Frobenius distance `||self - other||_F` (shapes must match). Sums
    /// over `self`'s cells, then over the cells only `other` has, each in
    /// coordinate order; both walks merge the two sorted maps instead of
    /// looking cells up.
    pub fn frobenius_distance(&self, other: &SparseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        let mut sum = 0.0;
        let mut theirs = other.data.iter().peekable();
        for (idx, v) in &self.data {
            while theirs.next_if(|(k, _)| *k < idx).is_some() {}
            let w = theirs.next_if(|(k, _)| *k == idx).map_or(0.0, |(_, &w)| w);
            let d = v - w;
            sum += d * d;
        }
        let mut mine = self.data.keys().peekable();
        for (idx, v) in &other.data {
            while mine.next_if(|k| *k < idx).is_some() {}
            if mine.peek() != Some(&idx) {
                sum += v * v;
            }
        }
        sum.sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.values().sum()
    }

    /// Scales all entries in place.
    pub fn scale(&mut self, s: f64) {
        if s == 0.0 {
            self.data.clear();
        } else {
            for v in self.data.values_mut() {
                *v *= s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_add() {
        let mut t = SparseTensor::new(vec![3, 3, 2]);
        t.set(&[0, 1, 0], 2.0);
        t.add(&[0, 1, 0], 0.5);
        assert_eq!(t.get(&[0, 1, 0]), 2.5);
        assert_eq!(t.get(&[2, 2, 1]), 0.0);
        assert_eq!(t.nnz(), 1);
        t.add(&[0, 1, 0], -2.5);
        assert_eq!(t.nnz(), 0, "zeroed entries vanish");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let mut t = SparseTensor::new(vec![2, 2]);
        t.set(&[2, 0], 1.0);
    }

    #[test]
    #[should_panic(expected = "order mismatch")]
    fn order_checked() {
        let t = SparseTensor::new(vec![2, 2]);
        t.get(&[0]);
    }

    #[test]
    fn frobenius_norm_and_distance() {
        let mut a = SparseTensor::new(vec![2, 2]);
        a.set(&[0, 0], 3.0);
        a.set(&[1, 1], 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        let mut b = SparseTensor::new(vec![2, 2]);
        b.set(&[0, 0], 3.0);
        assert!((a.frobenius_distance(&b) - 4.0).abs() < 1e-12);
        // Symmetric, including entries only in `other`.
        assert!((b.frobenius_distance(&a) - 4.0).abs() < 1e-12);
        assert_eq!(a.frobenius_distance(&a), 0.0);
    }

    /// The merge walk sums the same terms in the same order as looking
    /// each cell up, so the distance matches bit for bit.
    #[test]
    fn merged_distance_matches_cell_lookups_bit_for_bit() {
        let mut rng = hive_rng::Rng::seed_from_u64(3);
        let mut a = SparseTensor::new(vec![6, 6, 2]);
        let mut b = a.clone();
        for _ in 0..40 {
            let idx = [rng.gen_range(0..6usize), rng.gen_range(0..6), rng.gen_range(0..2)];
            let t = if rng.gen_bool(0.5) { &mut a } else { &mut b };
            t.set(&idx, rng.gen_range(-1.0..1.0));
        }
        let mut sum = 0.0;
        for (idx, v) in a.iter() {
            let d = v - b.get(idx);
            sum += d * d;
        }
        for (idx, v) in b.iter() {
            if a.get(idx) == 0.0 {
                sum += v * v;
            }
        }
        assert_eq!(a.frobenius_distance(&b).to_bits(), sum.sqrt().to_bits());
    }

    #[test]
    fn scale_and_sum() {
        let mut t = SparseTensor::new(vec![2]);
        t.set(&[0], 1.0);
        t.set(&[1], 2.0);
        assert_eq!(t.sum(), 3.0);
        t.scale(2.0);
        assert_eq!(t.sum(), 6.0);
        t.scale(0.0);
        assert_eq!(t.nnz(), 0);
    }
}
