//! Experiment BATCH: the batch decision engine vs one-shot calls.
//!
//! Batches of tasks sharing one pool of views, decided (a) by independent
//! `decide_bag_determinacy` calls, whose caches die with each call, and
//! (b) through one `DecisionSession` per batch, whose cross-request caches
//! (frozen bodies, canonical keys, components, containment gates) are
//! shared by every task.  Witnesses are off on both sides so the numbers
//! compare decision cost only; see `cqdet-bench` (the binary) for the same
//! workload with JSON output and EXPERIMENTS.md §BATCH for recorded runs.

use cqdet_bench::{batch_workload, decide_only_batch, BATCH_SHARED_VIEWS, BATCH_TASK_COUNTS};
use cqdet_core::decide_bag_determinacy;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for &num_tasks in BATCH_TASK_COUNTS {
        let tasks = batch_workload(num_tasks, BATCH_SHARED_VIEWS, 0xBA7C + num_tasks as u64);
        group.bench_with_input(BenchmarkId::new("fresh", num_tasks), &tasks, |b, tasks| {
            b.iter(|| {
                tasks
                    .iter()
                    .filter(|t| {
                        decide_bag_determinacy(&t.views, &t.query)
                            .unwrap()
                            .determined
                    })
                    .count()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("session", num_tasks),
            &tasks,
            |b, tasks| b.iter(|| decide_only_batch(tasks).records.len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
