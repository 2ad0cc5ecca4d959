//! Experiment T3-SPAN: the exact rational linear-algebra kernels of the
//! counterexample construction — matrix inversion over ℚ as the dimension k
//! (the number of basis components) grows, and the rank kernel on
//! bignum-entry systems.

use cqdet_bench::{span_workload, span_workload_seed, LINALG_SPAN_SHAPES, SPAN_DIMENSIONS};
use cqdet_linalg::{QMat, Rat};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/inverse");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for &k in SPAN_DIMENSIONS {
        // A nonsingular matrix: Vandermonde on distinct points.
        let points: Vec<Rat> = (0..k).map(|i| Rat::from_i64(i as i64 + 2)).collect();
        let m = QMat::vandermonde(&points);
        group.bench_with_input(BenchmarkId::from_parameter(k), &m, |b, m| {
            b.iter(|| m.inverse().is_some())
        });
    }
    group.finish();
}

/// The rank kernel behind `QMat::rank` / `is_nonsingular` (mod-p lower
/// bound, exact elimination on any shortfall) on tall bignum systems (the
/// LINALG experiment; the JSON-tracked rows live in the `cqdet-bench`
/// harness).
fn bench_big_entry_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/rank-bignum");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for &(k, n, bits) in LINALG_SPAN_SHAPES {
        let (generators, _, _) = span_workload(k, n, bits, span_workload_seed(bits));
        let m = QMat::from_cols(&generators);
        group.bench_with_input(
            BenchmarkId::new("rank", format!("{k}x{n}-{bits}bit")),
            &m,
            |b, m| b.iter(|| m.rank()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_inverse, bench_big_entry_rank);
criterion_main!(benches);
