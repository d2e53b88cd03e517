//! E1 microbenchmarks: sketch computation, incremental delta updates,
//! sketch comparison vs exact Frobenius distance, and CP-ALS cost.
//!
//! Run: `cargo bench -p hive-bench --bench bench_scent`

use hive_bench::{header, iters, report, report_header, time_n, write_json_fragment};
use hive_rng::Rng;
use hive_scent::{cp_als, SketchConfig, SparseTensor, TensorSketch};

fn random_tensor(dim: usize, nnz: usize, seed: u64) -> SparseTensor {
    let mut t = SparseTensor::new(vec![dim, dim, 3]);
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..nnz {
        let idx = vec![rng.gen_range(0..dim), rng.gen_range(0..dim), rng.gen_range(0..3usize)];
        t.set(&idx, rng.gen_range(0.1..1.0));
    }
    t
}

fn bench_sketch_compute() {
    header("scent_sketch_compute");
    report_header();
    for (nnz, n) in [(500usize, 50), (5_000, 10)] {
        let t = random_tensor(100, nnz, 1);
        let cfg = SketchConfig { measurements: 256, seed: 7 };
        let samples = time_n(iters(n, 3), || {
            std::hint::black_box(TensorSketch::compute(&t, cfg));
        });
        report(&format!("{nnz}_nnz_r256"), &samples);
    }
}

fn bench_incremental_update() {
    header("scent_delta_update");
    report_header();
    let t = random_tensor(100, 2_000, 2);
    let cfg = SketchConfig { measurements: 256, seed: 7 };
    let sketch = TensorSketch::compute(&t, cfg);
    let samples = time_n(iters(50, 5), || {
        let mut s = sketch.clone();
        for i in 0..100usize {
            s.apply_delta(&[i % 100, (i * 7) % 100, i % 3], 0.01);
        }
        std::hint::black_box(s);
    });
    report("delta_update_x100", &samples);
}

fn bench_compare() {
    header("scent_distance");
    report_header();
    let a = random_tensor(100, 5_000, 3);
    let b = random_tensor(100, 5_000, 4);
    let cfg = SketchConfig { measurements: 256, seed: 7 };
    let sa = TensorSketch::compute(&a, cfg);
    let sb = TensorSketch::compute(&b, cfg);
    let samples = time_n(iters(500, 50), || {
        std::hint::black_box(sa.estimate_distance(&sb));
    });
    report("sketch_distance_r256", &samples);
    let samples = time_n(iters(50, 5), || {
        std::hint::black_box(a.frobenius_distance(&b));
    });
    report("exact_frobenius_5k_nnz", &samples);
}

fn bench_cp() {
    header("scent_cp_als");
    report_header();
    let t = random_tensor(40, 1_000, 5);
    let samples = time_n(iters(5, 2), || {
        std::hint::black_box(cp_als(&t, 3, 6, 1));
    });
    report("cp_als_rank3_iters6", &samples);
    let big = random_tensor(100, 12_000, 6);
    let samples = time_n(iters(5, 2), || {
        std::hint::black_box(cp_als(&big, 3, 6, 1));
    });
    report("cp_als_10k_nnz", &samples);
}

fn main() {
    println!("bench_scent — SCENT substrate microbenchmarks");
    bench_sketch_compute();
    bench_incremental_update();
    bench_compare();
    bench_cp();
    write_json_fragment("bench_scent");
}
