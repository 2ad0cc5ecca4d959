//! Experiment T3-WITNESS: cost of constructing and checking the certified
//! counterexample of Sections 5–7 for undetermined instances of growing
//! basis size k.

use cqdet_core::witness::{build_counterexample, WitnessConfig};
use cqdet_core::{decide_bag_determinacy, ConjunctiveQuery};
use cqdet_query::cq::Atom;
use cqdet_structure::SharedCaches;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// An undetermined instance with k+1 basis components: the query is an
/// (k+1)-edge R-path, the views are the R-paths of lengths 1..=k.
fn chain_instance(k: usize) -> (Vec<ConjunctiveQuery>, ConjunctiveQuery) {
    let path = |name: &str, len: usize| {
        let atoms: Vec<Atom> = (0..len)
            .map(|i| Atom {
                relation: "R".to_string(),
                vars: vec![format!("x{i}"), format!("x{}", i + 1)],
            })
            .collect();
        ConjunctiveQuery::boolean(name, atoms)
    };
    let views: Vec<ConjunctiveQuery> = (1..=k).map(|l| path(&format!("v{l}"), l)).collect();
    let q = path("q", k + 1);
    (views, q)
}

fn bench_witness_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("witness/construct");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for k in [1usize, 2, 3] {
        let (views, q) = chain_instance(k);
        let analysis = decide_bag_determinacy(&views, &q).unwrap();
        assert!(!analysis.determined);
        group.bench_with_input(
            BenchmarkId::from_parameter(k + 1),
            &(analysis, q),
            |b, (a, q)| b.iter(|| build_counterexample(a, q, &WitnessConfig::default()).unwrap()),
        );
    }
    group.finish();
}

fn bench_witness_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("witness/verify");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for k in [1usize, 2, 3] {
        let (views, q) = chain_instance(k);
        let analysis = decide_bag_determinacy(&views, &q).unwrap();
        let witness = build_counterexample(&analysis, &q, &WitnessConfig::default()).unwrap();
        let caches = SharedCaches::new();
        group.bench_with_input(
            BenchmarkId::from_parameter(k + 1),
            &(witness, views, q),
            |b, (w, v, q)| b.iter(|| w.verify(&caches, v, q)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_witness_construction,
    bench_witness_verification
);
criterion_main!(benches);
