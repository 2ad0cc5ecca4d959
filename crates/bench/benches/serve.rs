//! Experiment SERVE: protocol overhead of the JSON-lines server loop.
//!
//! The serving workload measured (a) through the direct in-process
//! certificate path — task-file parse + a fresh
//! `DecisionSession::decide_batch` + every record rendered to JSON, exactly
//! what `cqdet batch` does — and (b) through the full server path: request
//! JSON parse, task-file parse, dispatch via `Engine::submit`, response
//! envelope render.  Both sides emit full certificates, so the difference
//! is exactly the protocol framing a `cqdet serve` client pays over
//! linking the library; the acceptance gate is protocol/direct < 1.10.
//! Recorded runs live in EXPERIMENTS.md §SERVE.

use cqdet_bench::{
    decide_only_batch, serve_request_line, serve_workload, tasks_to_taskfile, SERVE_TASK_COUNTS,
};
use cqdet_service::{respond_to_line, Engine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for &num_tasks in SERVE_TASK_COUNTS {
        let tasks = serve_workload(num_tasks, 0x5E4E + num_tasks as u64);
        let line = serve_request_line(&tasks);
        let text = tasks_to_taskfile(&tasks);
        group.bench_with_input(BenchmarkId::new("direct", num_tasks), &text, |b, text| {
            b.iter(|| {
                let file = cqdet_engine::parse_task_file(text).expect("task file");
                let report = decide_only_batch(&file.tasks);
                let mut bytes = 0usize;
                for record in &report.records {
                    bytes += record.to_json().render().len();
                }
                bytes + cqdet_engine::stats_json(&report.stats).render().len()
            })
        });
        group.bench_with_input(BenchmarkId::new("protocol", num_tasks), &line, |b, line| {
            b.iter(|| {
                let engine = Engine::new();
                let response = respond_to_line(&engine, line).expect("request");
                response.to_json().render().len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
