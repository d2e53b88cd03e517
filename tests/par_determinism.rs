//! Parallel == serial, bit for bit, on a workload that reaches the
//! hive-par pool: CP-ALS above `par_reduce`'s size gate, run serial and
//! on four forced workers, must give the same factors and residual
//! bits, and its obs report must say the workers ran.

use hive_obs::Level;
use hive_par::{force_workers, with_threads, PAR_REDUCE_MIN_ITEMS};
use hive_rng::Rng;
use hive_scent::{cp_als, CpModel, SparseTensor};

/// CP-ALS of a 100x100x3 tensor with more entries than the gate on four
/// forced workers, with its `Level::Counts` obs report.
fn forced_run(t: &SparseTensor) -> (CpModel, u64, String) {
    hive_obs::with_level(Level::Counts, || {
        hive_obs::reset();
        let model = force_workers(4, || cp_als(t, 3, 5, 1));
        let workers = hive_obs::snapshot().counter("par.workers");
        let report = hive_obs::report_text();
        hive_obs::reset();
        (model, workers, report)
    })
}

#[test]
fn cp_als_factors_are_bit_identical_across_thread_counts() {
    let mut t = SparseTensor::new(vec![100, 100, 3]);
    let mut rng = Rng::seed_from_u64(9);
    for _ in 0..12_000 {
        let idx = vec![rng.gen_range(0..100usize), rng.gen_range(0..100usize), rng.gen_range(0..3usize)];
        t.set(&idx, rng.gen_range(0.1..1.0));
    }
    assert!(t.nnz() >= PAR_REDUCE_MIN_ITEMS, "{} entries must clear the gate", t.nnz());
    let serial = with_threads(1, || cp_als(&t, 3, 5, 1));
    let (par, workers, report) = forced_run(&t);
    assert!(workers > 0, "CP-ALS must reach the pool:\n{report}");
    assert!(serial.residual.to_bits() == par.residual.to_bits());
    for (m, (fs, fp)) in serial.factors.iter().zip(&par.factors).enumerate() {
        assert_eq!(fs.len(), fp.len());
        for (r, (rs, rp)) in fs.iter().zip(fp).enumerate() {
            for (c, (a, b)) in rs.iter().zip(rp).enumerate() {
                assert!(a.to_bits() == b.to_bits(), "factor {m}[{r}][{c}]: {a} != {b}");
            }
        }
    }
    // Worker counts merge on the caller thread, so a second forced run
    // renders the same report byte for byte.
    let (_, _, again) = forced_run(&t);
    assert_eq!(report, again);
}
