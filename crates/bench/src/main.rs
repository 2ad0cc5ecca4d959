//! `cqdet-bench` — the micro-row perf harness: one family per experiment of
//! `EXPERIMENTS.md`, from the hot kernels (hom counting, the Theorem 3
//! decision procedure) through the serving layer to the paper's own results
//! (the certified counterexample, Theorem 1 on path queries, the Theorem 2
//! reduction, the brute-force baseline Theorem 3 replaces).  Every family
//! asserts its answers before it publishes a number.  The gated end-to-end
//! numbers come from `perfbench`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cqdet-bench -- [--json FILE] [--quick] [--only FAMILIES]
//! ```
//!
//! `--only` takes a comma-separated list of [`FAMILIES`] and skips the
//! rest — CI uses it to smoke single families in one release run.  Every
//! JSON row carries its provenance so saved `--json` outputs stay
//! attributable: a `label` (the `CQDET_BENCH_LABEL` env var if set, else the
//! current git commit), `nproc` (the machine's hardware threads) and
//! `rustc` (the compiler version `rustc --version` reports, `$RUSTC` if
//! set).

use cqdet_bench::{
    batch_workload, chain_instance, decide_only_batch, decide_workload, dedup_components_workload,
    hom_source, hom_target, path_workload, serve_request_line, serve_workload, soak_workload,
    span_workload, span_workload_seed, sum_of_products, BATCH_SHARED_VIEWS, BATCH_TASK_COUNTS,
    DECIDE_MANY_VIEW_COUNTS, LINALG_SPAN_SHAPES, PATH_QUERY_LENGTHS, SERVE_SHARED_VIEWS,
    SERVE_TASK_COUNTS, SOAK_CONNECTIONS, SOAK_PIPELINE_WINDOW, SOAK_REQUESTS,
};
use cqdet_core::decide_bag_determinacy;
use cqdet_linalg::QMat;
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{dedup_up_to_iso, hom, Structure};
use std::io::Write as _;
use std::time::Instant;

/// Every workload family, in run order — the one list `--only` validates
/// against and [`Harness::family_enabled`] checks its argument against.
const FAMILIES: [&str; 15] = [
    "hom", "decide", "freeze", "batch", "serve", "soak", "linalg", "dedup", "cache", "delta",
    "render", "witness", "paths", "baseline", "hilbert",
];

struct Harness {
    json_path: Option<String>,
    samples: usize,
    /// Provenance members written into every JSON row (see
    /// [`provenance`]), pre-rendered.
    provenance: String,
    /// `--only` family filter; `None` runs everything.
    families: Option<Vec<String>>,
}

impl Harness {
    /// Whether the `--only` filter admits workload family `family`.
    fn family_enabled(&self, family: &str) -> bool {
        assert!(
            FAMILIES.contains(&family),
            "family {family:?} is missing from FAMILIES"
        );
        self.families
            .as_ref()
            .is_none_or(|fs| fs.iter().any(|f| f == family))
    }

    /// Time `f`: warm up, size a batch so one sample lasts ≥ ~20 ms, then
    /// [`record`](Self::record) the per-iteration time of each sample.
    fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().as_secs_f64().max(1e-9);
        let iters = ((0.02 / once) as u64).clamp(1, 100_000);
        let per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        self.record(name, &per_iter, iters);
    }

    /// Print one timing row and append it to the `--json` target: the
    /// mean, min, max, p50 and p95 of `samples_ns` (each the mean of
    /// `iters_per_sample` runs).  Returns the mean.
    fn record(&self, name: &str, samples_ns: &[f64], iters_per_sample: u64) -> f64 {
        let n = samples_ns.len();
        let mean = samples_ns.iter().sum::<f64>() / n as f64;
        let mut sorted = samples_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |q: f64| sorted[(((n - 1) as f64) * q).round() as usize];
        let (min, max, p50, p95) = (sorted[0], sorted[n - 1], quantile(0.50), quantile(0.95));
        println!(
            "{name:<44} mean {:>12}  (min {:>12}, max {:>12}, p50 {:>12}, p95 {:>12})",
            ns(mean),
            ns(min),
            ns(max),
            ns(p50),
            ns(p95)
        );
        self.append_json(format!(
            "{{\"benchmark\":\"{name}\",{},\"mean_ns\":{mean:.1},\"min_ns\":{min:.1},\"max_ns\":{max:.1},\"p50_ns\":{p50:.1},\"p95_ns\":{p95:.1},\"samples\":{n},\"iters_per_sample\":{iters_per_sample},\"runs\":{}}}\n",
            self.provenance,
            n as u64 * iters_per_sample
        ));
        mean
    }

    /// Append one pre-rendered JSON line to the `--json` target (no-op
    /// without one) — the escape hatch for rows that are not timings, like
    /// the §SOAK throughput row and the §DELTA speedup row.
    fn append_json(&self, line: String) {
        if let Some(path) = &self.json_path {
            let mut fh = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .expect("open json output");
            fh.write_all(line.as_bytes()).expect("write json output");
        }
    }
}

/// The certificate record line of a `decide` or `redecide` answer.
fn record_line(response: &cqdet_service::Response) -> String {
    use cqdet_service::Response;
    match response {
        Response::Decide { record, .. } | Response::SessionDecide { record, .. } => record.render(),
        other => panic!("not a decision: {}", other.render()),
    }
}

fn ns(v: f64) -> String {
    if v < 1e3 {
        format!("{v:.1} ns")
    } else if v < 1e6 {
        format!("{:.2} µs", v / 1e3)
    } else if v < 1e9 {
        format!("{:.2} ms", v / 1e6)
    } else {
        format!("{:.2} s", v / 1e9)
    }
}

/// The provenance members of every JSON row, pre-rendered: the `label`
/// (`CQDET_BENCH_LABEL` if set, else the current git commit, else
/// `"unknown"`; quotes and backslashes stripped so it embeds in a JSON
/// string verbatim), `nproc` and `rustc` (the version token of
/// `rustc --version`, else `"unknown"`).
fn provenance() -> String {
    let stdout = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let clean = |raw: Option<String>| {
        raw.map(|s| s.trim().replace(['"', '\\'], ""))
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let label = clean(
        std::env::var("CQDET_BENCH_LABEL")
            .ok()
            .or_else(|| stdout("git", &["rev-parse", "--short", "HEAD"])),
    );
    let rustc_bin = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc = clean(
        stdout(&rustc_bin, &["--version"])
            .and_then(|v| v.split_whitespace().nth(1).map(str::to_string)),
    );
    format!(
        "\"label\":\"{label}\",\"nproc\":{},\"rustc\":\"{rustc}\"",
        cqdet_parallel::max_parallelism()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = None;
    let mut quick = false;
    let mut families: Option<Vec<String>> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--json" => json_path = iter.next().cloned(),
            "--quick" => quick = true,
            "--only" => {
                let Some(list) = iter.next() else {
                    eprintln!("--only requires a comma-separated family list");
                    std::process::exit(2);
                };
                let fs: Vec<String> = list
                    .split(',')
                    .map(|f| f.trim().to_string())
                    .filter(|f| !f.is_empty())
                    .collect();
                for f in &fs {
                    if !FAMILIES.contains(&f.as_str()) {
                        eprintln!("unknown family {f:?}; known: {}", FAMILIES.join(", "));
                        std::process::exit(2);
                    }
                }
                families = Some(fs);
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: cqdet-bench [--json FILE] [--quick] [--only FAMILIES]"
                );
                std::process::exit(2);
            }
        }
    }
    // Fail fast on an unwritable JSON target instead of panicking after the
    // first measurement.
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            eprintln!("error: cannot open --json file {path:?}: {e}");
            std::process::exit(2);
        }
    }
    let h = Harness {
        json_path,
        samples: if quick { 3 } else { 10 },
        provenance: provenance(),
        families,
    };
    println!("# cqdet-bench\n");

    // HOM: the acceptance workload — domain 16, 40 facts — plus a sweep.
    // `hom/flat/...` is the interned flat-index engine, `hom/factored/...`
    // the same engine factored through connected components.
    if h.family_enabled("hom") {
        let source = hom_source();
        for (dom, facts) in [(8usize, 24usize), (16, 40), (16, 48), (32, 96)] {
            let target = hom_target(dom, facts, 0xBEEF + dom as u64);
            // Sanity: the engine agrees with the naive reference oracle
            // before we publish numbers for it.
            assert_eq!(
                hom::reference::hom_count(&source, &target),
                cqdet_structure::hom_count(&source, &target),
                "engines disagree on dom={dom} facts={facts}"
            );
            h.bench(&format!("hom/flat/{dom}x{facts}"), || {
                cqdet_structure::hom_count(&source, &target)
            });
            h.bench(&format!("hom/factored/{dom}x{facts}"), || {
                cqdet_structure::hom_count_factored(&source, &target)
            });
        }
    }

    // DECIDE: the acceptance workload — 16 views × 4 atoms — plus a sweep.
    if h.family_enabled("decide") {
        for (views, atoms) in [(4usize, 3usize), (16, 4), (32, 3)] {
            for planted in [true, false] {
                let (v, q) = decide_workload(views, atoms, planted, 0xC0DE + views as u64);
                let label = if planted { "planted" } else { "independent" };
                h.bench(&format!("decide/{label}/{views}x{atoms}"), || {
                    decide_bag_determinacy(&v, &q).unwrap().determined
                });
            }
        }
    }

    // FREEZE: one instance frozen into a fresh context (§FLAT) — the front
    // of every cold decide: each body frozen, split into its components
    // and canonized (`DecisionContext::frozen`), then the context dropped.
    if h.family_enabled("freeze") {
        use cqdet_core::DecisionContext;
        use cqdet_structure::components::reference;
        for (label, (views, q)) in [
            ("planted/16x4", decide_workload(16, 4, true, 0xC0DE + 16)),
            ("chain/k7", chain_instance(7)),
        ] {
            let all: Vec<&ConjunctiveQuery> = views.iter().chain([&q]).collect();
            let schema = cqdet_query::cq::common_schema(&all).expect("one schema");
            // Sanity: the components and keys agree with the oracle
            // decomposition of a builder-built copy of every body.
            let cx = DecisionContext::new();
            for body in &all {
                let frozen = cx.frozen(&schema, body);
                let built = Structure::from_facts(schema.clone(), frozen.body().facts());
                assert_eq!(
                    frozen.components(),
                    reference::connected_components(&built).as_slice(),
                    "components of {}",
                    body.name()
                );
                assert_eq!(frozen.iso_key(), &built.iso_class_key());
            }
            h.bench(&format!("freeze/{label}"), || {
                let cx = DecisionContext::new();
                all.iter()
                    .map(|body| cx.frozen(&schema, body))
                    .collect::<Vec<_>>()
            });
        }
    }

    // DEDUP: many planted views — isomorphism-class bookkeeping (basis
    // construction + vector extraction) dominates the pipeline (§DEDUP).
    let many_view_counts: &[usize] = if quick {
        &DECIDE_MANY_VIEW_COUNTS[..1]
    } else {
        DECIDE_MANY_VIEW_COUNTS
    };
    if h.family_enabled("decide") {
        for &views in many_view_counts {
            let (v, q) = decide_workload(views, 3, true, 0xD15C + views as u64);
            h.bench(&format!("decide/many-views/{views}x3"), || {
                decide_bag_determinacy(&v, &q).unwrap().determined
            });
        }
    }
    // BATCH: many tasks sharing one view pool — the cross-request cache
    // regime of the batch engine (§BATCH).  `fresh` runs one-shot
    // `decide_bag_determinacy` per task (caches die with each call);
    // `session` runs the same tasks through one `DecisionSession` per batch
    // (cold caches at batch start, shared within the batch), witnesses off
    // on both sides so the comparison is decision cost only.
    let batch_task_counts: &[usize] = if quick {
        &BATCH_TASK_COUNTS[..1]
    } else {
        BATCH_TASK_COUNTS
    };
    for &num_tasks in batch_task_counts {
        if !h.family_enabled("batch") {
            break;
        }
        let tasks = batch_workload(num_tasks, BATCH_SHARED_VIEWS, 0xBA7C + num_tasks as u64);
        // Sanity: the two paths agree before we publish numbers for them.
        {
            let report = decide_only_batch(&tasks);
            assert!(
                report
                    .records
                    .iter()
                    .all(|r| r.status == cqdet_engine::TaskStatus::Determined),
                "batch workload must be determined by construction"
            );
            let stats = report.stats;
            assert!(
                stats.frozen_hits > 0 && stats.gate_hits > 0,
                "shared session must show cache hits: {stats:?}"
            );
        }
        h.bench(
            &format!("batch/fresh/{num_tasks}x{BATCH_SHARED_VIEWS}"),
            || {
                tasks
                    .iter()
                    .filter(|t| {
                        decide_bag_determinacy(&t.views, &t.query)
                            .unwrap()
                            .determined
                    })
                    .count()
            },
        );
        h.bench(
            &format!("batch/session/{num_tasks}x{BATCH_SHARED_VIEWS}"),
            || decide_only_batch(&tasks).records.len(),
        );
    }

    // SERVE: protocol overhead of the JSON-lines server loop (§SERVE).
    // Three series on the same workload:
    //   decide_only — fresh session, `decide_batch` over pre-parsed tasks,
    //                 records kept in memory (the lower bound);
    //   direct      — the full in-process certificate path, exactly what
    //                 `cqdet batch` does: task-file parse + decide_batch +
    //                 every record and the stats line rendered to JSON;
    //   protocol    — the server loop on one batch request: request JSON
    //                 parse + task-file parse + dispatch through
    //                 `Engine::submit` + the response envelope rendered.
    // `direct` and `protocol` both emit the full certificates, so their gap
    // is the protocol framing itself (request decode + response envelope);
    // the acceptance gate is protocol/direct < 1.10.
    let serve_task_counts: &[usize] = if quick {
        &SERVE_TASK_COUNTS[..1]
    } else {
        SERVE_TASK_COUNTS
    };
    for &num_tasks in serve_task_counts {
        if !h.family_enabled("serve") {
            break;
        }
        let tasks = serve_workload(num_tasks, 0x5E4E + num_tasks as u64);
        let line = serve_request_line(&tasks);
        // Sanity: both paths agree before we publish numbers for them.
        {
            let engine = cqdet_service::Engine::new();
            let response =
                cqdet_service::respond_to_line(&engine, &line).expect("non-blank request");
            let wire = response.to_json();
            assert_eq!(
                wire.get("type").and_then(cqdet_engine::Json::as_str),
                Some("batch"),
                "server loop must answer the batch request: {wire:?}"
            );
            let records = wire
                .get("records")
                .and_then(cqdet_engine::Json::as_arr)
                .expect("records");
            assert!(records.iter().all(
                |r| r.get("status").and_then(cqdet_engine::Json::as_str) == Some("determined")
            ));
        }
        let tasks_text = cqdet_bench::tasks_to_taskfile(&tasks);
        h.bench(
            &format!("serve/decide_only/{num_tasks}x{SERVE_SHARED_VIEWS}"),
            || decide_only_batch(&tasks).records.len(),
        );
        h.bench(
            &format!("serve/direct/{num_tasks}x{SERVE_SHARED_VIEWS}"),
            || {
                let file = cqdet_engine::parse_task_file(&tasks_text).expect("task file");
                let report = decide_only_batch(&file.tasks);
                let mut bytes = 0usize;
                for record in &report.records {
                    bytes += record.render().len();
                }
                bytes
            },
        );
        h.bench(
            &format!("serve/protocol/{num_tasks}x{SERVE_SHARED_VIEWS}"),
            || {
                let engine = cqdet_service::Engine::new();
                let response = cqdet_service::respond_to_line(&engine, &line).expect("request");
                response.render().len()
            },
        );
    }

    // SOAK: the serving layer under sustained concurrent load (§SOAK) —
    // 32 pipelined connections pushing 100k requests (4k under `--quick`)
    // through an in-process server running the event-driven reactor
    // (`soak/reactor/...`).  The harness asserts the invariants while it
    // measures: every request answered exactly once, typed, ids echoed in
    // pipeline order, no read stalled ≥ 30 s.  Rows carry throughput and
    // latency quantiles instead of mean/min/max timings.
    if h.family_enabled("soak") {
        let total = if quick { 4_000 } else { SOAK_REQUESTS };
        let r = soak_workload(SOAK_CONNECTIONS, total, SOAK_PIPELINE_WINDOW);
        println!(
            "soak/reactor/{SOAK_CONNECTIONS}x{total:<24} {:>10.0} req/s  p50 {:>9}  p95 {:>9}  p99 {:>9}  mean {:>9}",
            r.throughput_rps,
            ns(r.p50_us * 1e3),
            ns(r.p95_us * 1e3),
            ns(r.p99_us * 1e3),
            ns(r.mean_us * 1e3),
        );
        assert_eq!(r.requests, total, "soak must answer every request");
        assert_eq!(r.shed, 0, "soak budget is sized to never shed");
        assert!(
            r.served >= total as u64,
            "server must count every soak response: served {} < {total}",
            r.served
        );
        h.append_json(format!(
            "{{\"benchmark\":\"soak/reactor/{SOAK_CONNECTIONS}x{total}\",{},\"throughput_rps\":{:.1},\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1},\"mean_us\":{:.1},\"requests\":{},\"connections\":{SOAK_CONNECTIONS},\"window\":{SOAK_PIPELINE_WINDOW},\"shed\":{},\"elapsed_s\":{:.3}}}\n",
            h.provenance, r.throughput_rps, r.p50_us, r.p95_us, r.p99_us, r.mean_us, r.requests,
            r.shed, r.elapsed_s
        ));
    }

    // LINALG: the rank kernel behind `QMat::rank` / `is_nonsingular` on
    // tall bignum systems — the regime where hom-count entries make dense
    // rational elimination pay bignum gcd/mul per pivot step (§LINALG).
    // The mod-p rank bound proves full rank in machine words; anything
    // else runs the exact elimination.
    for &(k, n, bits) in LINALG_SPAN_SHAPES {
        if !h.family_enabled("linalg") {
            break;
        }
        let (gens, _, _) = span_workload(k, n, bits, span_workload_seed(bits));
        let m = QMat::from_cols(&gens);
        // Sanity before publishing numbers: the prescreened rank is the
        // exact rank.
        assert_eq!(m.rank(), m.rref().1, "rank oracle ({k}x{n}/{bits})");
        h.bench(&format!("linalg/rank/{k}x{n}/{bits}bit"), || m.rank());
    }

    // Micro-bench of the de-duplication kernel itself, on exactly the
    // component list step 2 of the pipeline feeds it.  Each iteration
    // rebuilds fresh structures (`map_constants` identity drops the cached
    // flat form): a plain clone would share the canonical key computed in
    // the first iteration and measure only hash lookups, not the
    // canonization the kernel pays on fresh components.
    for &views in many_view_counts {
        if !h.family_enabled("dedup") {
            break;
        }
        let comps = dedup_components_workload(views, 0xD15C + views as u64);
        h.bench(&format!("dedup/components/{views}"), || {
            let fresh: Vec<_> = comps.iter().map(|s| s.map_constants(|c| c)).collect();
            dedup_up_to_iso(fresh).len()
        });
    }

    // CACHE: cache governance (§CACHE) — what the byte cap costs, and what
    // warm-start persistence buys.
    //   uncapped/capped64k — the same 16-instance decide stream through one
    //     long-lived `Engine`: the uncapped engine reaches steady-state
    //     all-hits on frozen bodies and gates (each decide still solves its
    //     own span system), the 64 KiB engine (working set far above the
    //     cap) keeps evicting and recomputing — the gap is the price of the
    //     cap.
    //   cold_first/warm_first — one expensive decide on a fresh engine,
    //     cold versus booted from a snapshot of a session that has already
    //     solved it (snapshot load *included* in the warm timing); warm
    //     must win — the acceptance gate of the §CACHE experiment.
    if h.family_enabled("cache") {
        use cqdet_service::{Engine, Request, RequestKind};
        let decide_request = |id: String, program: &str, query: &str| Request {
            id,
            deadline_ms: None,
            budget: None,
            kind: RequestKind::Decide {
                program: program.to_string(),
                query: query.to_string(),
                witness: false,
            },
        };
        let instances: Vec<(String, String)> = (0..16)
            .map(|i| {
                let (views, query) = decide_workload(3, 2, i % 2 == 0, 0xCACE + i as u64);
                let name = query.name().to_string();
                let program = views
                    .iter()
                    .map(|v| v.to_string())
                    .chain(std::iter::once(query.to_string()))
                    .collect::<Vec<_>>()
                    .join("\n");
                (program, name)
            })
            .collect();
        let submit_stream = |engine: &Engine| -> Vec<String> {
            instances
                .iter()
                .enumerate()
                .map(|(i, (program, name))| {
                    let response = engine.submit(decide_request(format!("c{i}"), program, name));
                    assert!(!response.is_error(), "cache stream instance {i} failed");
                    response.render()
                })
                .collect()
        };
        const CAP: u64 = 64 * 1024;
        // Sanity before publishing numbers: under the cap the answers are
        // byte-identical to the uncapped engine's and to a fresh engine's
        // (one-shot) answers, the cap is actually binding (evictions
        // observed), and every governed session cache honors its byte
        // budget.  The two caches (frozen and gate, 10% each) hold every
        // governed byte: no session is open.
        {
            let uncapped = Engine::new();
            let capped = Engine::new();
            capped.set_cache_bytes(Some(CAP));
            let one_shot: Vec<String> = instances
                .iter()
                .enumerate()
                .map(|(i, (program, name))| {
                    Engine::new()
                        .submit(decide_request(format!("c{i}"), program, name))
                        .render()
                })
                .collect();
            for round in 0..2 {
                let free = submit_stream(&uncapped);
                let governed = submit_stream(&capped);
                assert_eq!(free, governed, "cap changed an answer (round {round})");
                assert_eq!(
                    free, one_shot,
                    "a warm engine changed an answer (round {round})"
                );
            }
            let stats_response = capped.submit(Request {
                id: "stats".into(),
                deadline_ms: None,
                budget: None,
                kind: RequestKind::Stats,
            });
            let cqdet_service::Response::Stats { stats, .. } = stats_response else {
                panic!("stats request failed");
            };
            let evictions = stats.frozen_usage.evictions + stats.gate_usage.evictions;
            assert!(evictions > 0, "64 KiB cap never evicted: {stats:?}");
            let caches = [("frozen", &stats.frozen_usage), ("gate", &stats.gate_usage)];
            let attributed: u64 = caches.iter().map(|(_, usage)| usage.bytes).sum();
            assert_eq!(
                stats.governed_bytes, attributed,
                "unattributed governed bytes"
            );
            for (tag, usage) in caches {
                assert!(
                    usage.bytes <= usage.cap,
                    "{tag} cache over budget: {} > {}",
                    usage.bytes,
                    usage.cap
                );
            }
        }
        {
            let uncapped = Engine::new();
            h.bench("cache/uncapped/16x3x2", || submit_stream(&uncapped).len());
        }
        {
            let capped = Engine::new();
            capped.set_cache_bytes(Some(CAP));
            h.bench("cache/capped64k/16x3x2", || submit_stream(&capped).len());
        }

        let snapshot_path =
            std::env::temp_dir().join(format!("cqdet-bench-snapshot-{}.cqds", std::process::id()));
        // The K8-view/K7-query clique instance: its containment gate check
        // is a backtracking hom search visiting >10k candidate extensions,
        // and the gate *verdict* is exactly what the snapshot persists — so
        // this is the workload where warm start pays, as opposed to
        // canonization-bound instances whose cost no snapshot can carry.
        let clique = |name: &str, n: usize| {
            let atoms: Vec<String> = (0..n)
                .flat_map(|i| {
                    (0..n)
                        .filter(move |&j| j != i)
                        .map(move |j| format!("R(x{i},x{j})"))
                })
                .collect();
            format!("{name}() :- {}", atoms.join(", "))
        };
        let first_name = "q".to_string();
        let first_program = format!("{}\n{}", clique("v", 8), clique("q", 7));
        {
            let warmer = Engine::new();
            let response =
                warmer.submit(decide_request("warm".into(), &first_program, &first_name));
            assert!(!response.is_error(), "warm-up decide failed");
            warmer
                .save_snapshot(&snapshot_path)
                .expect("save bench snapshot");
        }
        let runs = if quick { 5 } else { 15 };
        let mut cold_ns = Vec::with_capacity(runs);
        let mut warm_ns = Vec::with_capacity(runs);
        for _ in 0..runs {
            let engine = Engine::new();
            let t = Instant::now();
            let response =
                engine.submit(decide_request("first".into(), &first_program, &first_name));
            cold_ns.push(t.elapsed().as_secs_f64() * 1e9);
            assert!(!response.is_error(), "cold first request failed");

            let engine = Engine::new();
            let t = Instant::now();
            engine
                .load_snapshot(&snapshot_path)
                .expect("load bench snapshot");
            let response =
                engine.submit(decide_request("first".into(), &first_program, &first_name));
            warm_ns.push(t.elapsed().as_secs_f64() * 1e9);
            assert!(!response.is_error(), "warm first request failed");
        }
        let _ = std::fs::remove_file(&snapshot_path);
        let cold_mean = h.record("cache/cold_first/clique8x7", &cold_ns, 1);
        let warm_mean = h.record("cache/warm_first/clique8x7", &warm_ns, 1);
        assert!(
            warm_mean < cold_mean,
            "warm start must beat cold start: warm {} >= cold {}",
            ns(warm_mean),
            ns(cold_mean)
        );
    }

    // DELTA: mutable decision sessions (§DELTA) — a warm 64-view
    // `MutableSession` absorbing an add + redecide + remove churn cycle per
    // request, against rebuild-per-request: a client that holds no session
    // open and pays `MutableSession::open` + `redecide` on the full 65-view
    // set for every request, through the *same* shared caches.  Gate
    // verdicts, frozen bodies and Def 29 vectors are warm on both sides, so
    // the gap isolates what the warm session keeps that a rebuild cannot:
    // the prepared layout and the span echelon (the churn add folds one
    // generator into the reduced echelon and its removal compacts a
    // dependent slot; the rebuild re-prepares and re-eliminates all 65
    // rows).  A one-shot `decide_bag_determinacy_in` row rides along as a
    // cache-warm floor reference.  The acceptance gate asserts
    // redecide-after-add beats the rebuild.
    if h.family_enabled("delta") {
        use cqdet_bench::{delta_workload, DELTA_CHURN_VIEWS, DELTA_SESSION_VIEWS};
        use cqdet_core::{
            decide_bag_determinacy_in, Budget, CancelToken, DecisionContext, MutableSession,
        };
        let ctl = CancelToken::none();
        let nb = Budget::none();
        let (views, query, extras) = delta_workload(DELTA_SESSION_VIEWS, DELTA_CHURN_VIEWS);
        let cx = DecisionContext::new();
        let mut session = MutableSession::open(&cx, views.clone(), query.clone(), 8, &ctl, &nb)
            .expect("open delta session");
        // Warm both paths and sanity-check agreement on every churn step
        // before publishing numbers.
        let base = session.redecide(&cx, &ctl, &nb).expect("warm redecide");
        assert!(base.determined, "delta workload must be determined");
        for extra in &extras {
            session
                .view_add(&cx, extra.clone(), &ctl, &nb)
                .expect("churn add");
            let got = session.redecide(&cx, &ctl, &nb).expect("churn redecide");
            let mut wide = views.clone();
            wide.push(extra.clone());
            let oracle =
                decide_bag_determinacy_in(&cx, &wide, &query, &ctl, &nb).expect("churn oracle");
            assert_eq!(got.determined, oracle.determined, "session diverged");
            assert_eq!(got.coefficients, oracle.coefficients, "session diverged");
            session
                .view_remove(&cx, DELTA_SESSION_VIEWS, &ctl, &nb)
                .expect("churn remove");
        }
        assert!(
            session.counters().fast_removals + session.counters().replays > 0,
            "delta churn must exercise the removal-repair path"
        );
        let runs = if quick { 60 } else { 300 };
        let mut session_ns = Vec::with_capacity(runs);
        let mut rebuild_ns = Vec::with_capacity(runs);
        let mut oneshot_ns = Vec::with_capacity(runs);
        for i in 0..runs {
            let extra = extras[i % extras.len()].clone();
            session.view_add(&cx, extra, &ctl, &nb).expect("timed add");
            let t = Instant::now();
            let got = session.redecide(&cx, &ctl, &nb).expect("timed redecide");
            session_ns.push(t.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(got.determined);
            session
                .view_remove(&cx, DELTA_SESSION_VIEWS, &ctl, &nb)
                .expect("timed remove");
        }
        for i in 0..runs {
            let mut wide = views.clone();
            wide.push(extras[i % extras.len()].clone());
            let t = Instant::now();
            let mut fresh = MutableSession::open(&cx, wide.clone(), query.clone(), 8, &ctl, &nb)
                .expect("timed reopen");
            let got = fresh.redecide(&cx, &ctl, &nb).expect("timed rebuild");
            rebuild_ns.push(t.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(got.determined);
            let t = Instant::now();
            let got =
                decide_bag_determinacy_in(&cx, &wide, &query, &ctl, &nb).expect("timed one-shot");
            oneshot_ns.push(t.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(got.determined);
        }
        let counters = session.counters();
        let session_mean = h.record("delta/session/redecide-after-add/64", &session_ns, 1);
        let rebuild_mean = h.record("delta/rebuild/open+redecide/64", &rebuild_ns, 1);
        h.record("delta/reference/one-shot/64", &oneshot_ns, 1);
        let speedup = rebuild_mean / session_mean;
        println!(
            "delta/speedup/64                             {speedup:>9.2}x  (replays {}, fast removals {}, rebuilds {})",
            counters.replays, counters.fast_removals, counters.rebuilds
        );
        h.append_json(format!(
            "{{\"benchmark\":\"delta/speedup/64\",{},\"speedup\":{speedup:.3},\"session_mean_ns\":{session_mean:.1},\"rebuild_mean_ns\":{rebuild_mean:.1},\"replays\":{},\"fast_removals\":{},\"rebuilds\":{},\"runs\":{runs}}}\n",
            h.provenance, counters.replays, counters.fast_removals, counters.rebuilds
        ));
        assert!(
            session_mean < rebuild_mean,
            "redecide-after-add must beat the full rebuild: session {} >= rebuild {}",
            ns(session_mean),
            ns(rebuild_mean)
        );

        // serve-cycle: the churn as a client drives it, through
        // `Engine::submit` — add, redecide, remove, redecide per iteration,
        // each answer certified and rendered.  Every redecide record is
        // first checked against a one-shot decide of the same view set.
        use cqdet_service::{Engine, Request, RequestKind, Response};
        let engine = Engine::new();
        let submit = |kind: RequestKind| {
            let response = engine.submit(Request {
                id: "d".into(),
                deadline_ms: None,
                budget: None,
                kind,
            });
            assert!(!response.is_error(), "{}", response.render());
            response
        };
        let program = |views: &[ConjunctiveQuery]| {
            views
                .iter()
                .chain(std::iter::once(&query))
                .map(ConjunctiveQuery::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let Response::SessionOpen { session, .. } = submit(RequestKind::SessionOpen {
            program: program(&views),
            query: query.name().to_string(),
            checkpoint_interval: None,
        }) else {
            panic!("session_open answered something else");
        };
        let cycle = |extra: &ConjunctiveQuery| {
            let mut rendered = Vec::with_capacity(4);
            for kind in [
                RequestKind::ViewAdd {
                    session,
                    view: extra.to_string(),
                },
                RequestKind::Redecide {
                    session,
                    witness: true,
                },
                RequestKind::ViewRemove {
                    session,
                    view: extra.name().to_string(),
                },
                RequestKind::Redecide {
                    session,
                    witness: true,
                },
            ] {
                let response = submit(kind);
                rendered.push((response.render(), response));
            }
            rendered
        };
        for extra in &extras {
            let answers = cycle(extra);
            let mut wide = views.clone();
            wide.push(extra.clone());
            for (pos, set) in [(1, &wide), (3, &views)] {
                let one_shot = submit(RequestKind::Decide {
                    program: program(set),
                    query: query.name().to_string(),
                    witness: true,
                });
                assert_eq!(
                    record_line(&answers[pos].1),
                    record_line(&one_shot),
                    "session redecide diverged from one-shot decide"
                );
            }
        }
        let mut next = 0;
        h.bench("delta/serve-cycle/64", || {
            next += 1;
            cycle(&extras[next % extras.len()])
                .into_iter()
                .map(|(text, _)| text.len())
                .sum::<usize>()
        });

        // open: a cold `session_open` of the 64-view instance on a fresh
        // engine, the request perfbench session-churn's `setup_s` times.
        // Each gate is settled from the component keys, so no gate search
        // runs.
        let text = program(&views);
        let open_ns: Vec<f64> = (0..if quick { 20 } else { 100 })
            .map(|_| {
                let fresh = Engine::new();
                let kind = RequestKind::SessionOpen {
                    program: text.clone(),
                    query: query.name().to_string(),
                    checkpoint_interval: None,
                };
                let t = Instant::now();
                let response = fresh.submit(Request {
                    id: "o".into(),
                    deadline_ms: None,
                    budget: None,
                    kind,
                });
                let elapsed = t.elapsed().as_secs_f64() * 1e9;
                assert!(
                    matches!(response, Response::SessionOpen { .. }),
                    "{}",
                    response.render()
                );
                elapsed
            })
            .collect();
        h.record("delta/open/64", &open_ns, 1);
    }

    // RENDER: writing an answer's wire line (§RENDER) — the warm 65-view
    // `redecide` record session-churn renders most (65 view vectors over a
    // 64-element basis, no witness: the instance is determined), and the
    // witness-bearing `decide` of tests/data/many_views.cq.  Both answers'
    // bytes are checked first: the redecide record against the one-shot
    // decide of the same view set, the decide record against its golden
    // certificate, and each line against the `Json` tree's rendering of
    // its own parse.
    if h.family_enabled("render") {
        use cqdet_engine::Json;
        use cqdet_service::{Engine, Request, RequestKind};
        let (redecide, one_shot) = cqdet_bench::render_redecide_responses();
        let line = redecide.render();
        assert_eq!(
            record_line(&redecide),
            record_line(&one_shot),
            "session redecide diverged from one-shot decide"
        );
        assert_eq!(Json::parse(&line).expect("valid JSON").render(), line);
        h.bench("render/redecide/65x64", || redecide.render().len());

        let engine = Engine::new();
        let decide = engine.submit(Request {
            id: "d".into(),
            deadline_ms: None,
            budget: None,
            kind: RequestKind::Decide {
                program: include_str!("../../../tests/data/many_views.cq").into(),
                query: "q".into(),
                witness: true,
            },
        });
        assert_eq!(
            record_line(&decide) + "\n",
            include_str!("../../../tests/data/many_views.witness.json"),
            "many_views certificate differs from its golden"
        );
        let line = decide.render();
        assert_eq!(Json::parse(&line).expect("valid JSON").render(), line);
        h.bench("render/decide/many_views-witness", || decide.render().len());
    }

    // WITNESS: the certified counterexample of Sections 5–7 on undetermined
    // chain instances with k+1 = 2–8 basis components (§T3-WITNESS) — its
    // construction, the symbolic re-check of every view and the query on
    // the pair (Lemma 4 arithmetic on the certificate's count table, no
    // hom search), and the whole certification a serving engine runs per
    // witness request (build, arithmetic check, verify, answer vectors) —
    // and what Lemma 43's induced-substructure search costs when no
    // candidate separates.
    if h.family_enabled("witness") {
        use cqdet_core::witness::{
            build_counterexample, check_certificate_arithmetic, find_separating_structure,
        };
        use cqdet_core::CancelToken;
        use cqdet_structure::{Fact, Schema};
        let none = CancelToken::none();
        for k in [1usize, 2, 3, 5, 7] {
            let (views, q) = chain_instance(k);
            let analysis = decide_bag_determinacy(&views, &q).unwrap();
            assert!(!analysis.determined, "chain instance {k} is undetermined");
            let build = || build_counterexample(&analysis, &q, &none);
            let witness = build().expect("witness builds");
            assert!(witness.verify(&views, &q), "witness {k} verifies");
            h.bench(&format!("witness/construct/{}", k + 1), || build().unwrap());
            h.bench(&format!("witness/verify/{}", k + 1), || {
                witness.verify(&views, &q)
            });
            if k == 3 || k == 7 {
                // `DecisionSession::record_from_outcome`'s order:
                // build, arithmetic check, verify, answer vectors.
                let certify = || {
                    let witness = build().unwrap();
                    let ok = check_certificate_arithmetic(&witness, &analysis)
                        && witness.verify(&views, &q);
                    (ok, witness.answer_vectors())
                };
                let (ok, (d, d_prime)) = certify();
                assert!(ok, "certificate {k} checks");
                assert_eq!(
                    d,
                    witness.answer_vectors().0,
                    "answers of {k} are deterministic"
                );
                assert_ne!(d, d_prime, "D and D′ differ on the basis");
                h.bench(&format!("witness/certify/{}", k + 1), certify);
            }
        }
        // R(0,1,2,3) ∧ S(0,1,2,3) vs R(0,1,2,3) ∧ S(1,0,2,3): only a
        // four-element structure separates them, and the search with no
        // candidates walks all 16 induced substructures to the last one.
        let pair = |s: Vec<u64>| {
            let facts = [Fact::new("R", vec![0, 1, 2, 3]), Fact::new("S", s)];
            Structure::from_facts(Schema::with_relations([("R", 4), ("S", 4)]), facts)
        };
        let (a, b) = (pair(vec![0, 1, 2, 3]), pair(vec![1, 0, 2, 3]));
        let separate = || find_separating_structure(&a, &b, &[], &none);
        assert_eq!(separate(), Ok(a.clone()), "the induced search separates");
        h.bench("witness/separator-induced", || separate().unwrap());
    }

    // PATHS: Theorem 1 on path queries (§PATH) — the prefix-graph decision
    // on derivable and random view sets, the same decision against the
    // bounded brute force (over the boolean versions of the queries) on an
    // instance small enough for it, and path evaluation by incidence
    // matrices (Fact 18) against hom counting.
    if h.family_enabled("paths") {
        use cqdet_core::paths::eval_path_matrix;
        use cqdet_core::{brute_force_search, decide_path_determinacy};
        for &len in PATH_QUERY_LENGTHS {
            for derivable in [true, false] {
                let (views, q) = path_workload(len, 4, derivable, 0x9A7 + len as u64);
                let determined = decide_path_determinacy(&views, &q).determined;
                assert!(determined || !derivable, "derivable length-{len} instance");
                let label = if derivable { "determined" } else { "random" };
                h.bench(&format!("paths/decide/{label}/{len}"), || {
                    decide_path_determinacy(&views, &q).determined
                });
            }
        }
        let (views, q) = path_workload(3, 2, false, 0xF00D);
        let boolean = |cq: cqdet_query::ConjunctiveQuery| {
            cqdet_query::ConjunctiveQuery::boolean(cq.name(), cq.atoms().to_vec())
        };
        let view_cqs: Vec<_> = views.iter().map(|v| boolean(v.to_cq("v"))).collect();
        let q_cq = boolean(q.to_cq("q"));
        h.bench("paths/decide-vs-bruteforce/prefix-graph", || {
            decide_path_determinacy(&views, &q).determined
        });
        h.bench("paths/decide-vs-bruteforce/bruteforce/2", || {
            brute_force_search(&view_cqs, &q_cq, 2, 2_000).refuted()
        });
        let schema = cqdet_structure::Schema::binary(["R0", "R1"]);
        for len in [2usize, 4, 6] {
            let q = cqdet_query::PathQuery::new((0..len).map(|i| format!("R{}", i % 2)));
            let d = hom_target(12, 40, 0xE7A1 + len as u64);
            let q_cq = q.to_cq("q");
            assert_eq!(
                eval_path_matrix(&q, &d),
                cqdet_query::eval::eval_cq(&q_cq, &schema, &d),
                "Fact 18 disagrees with hom counting at length {len}"
            );
            h.bench(&format!("paths/eval/matrix/{len}"), || {
                eval_path_matrix(&q, &d)
            });
            h.bench(&format!("paths/eval/hom/{len}"), || {
                cqdet_query::eval::eval_cq(&q_cq, &schema, &d)
            });
        }
    }

    // BASELINE: Theorem 3 against the bounded brute-force search it
    // replaces (§BASELINE), on an undetermined instance (a 2-path query
    // over an edge view) and a determined one (two disjoint edges).  Brute
    // force can only ever refute; wherever it does, Theorem 3 must agree.
    if h.family_enabled("baseline") {
        use cqdet_core::{brute_force_search, ConjunctiveQuery};
        use cqdet_query::cq::Atom;
        let v = [ConjunctiveQuery::boolean(
            "v",
            vec![Atom::new("R", &["x", "y"])],
        )];
        let two_path = ConjunctiveQuery::boolean(
            "q",
            vec![Atom::new("R", &["x", "y"]), Atom::new("R", &["y", "z"])],
        );
        let two_edges = ConjunctiveQuery::boolean(
            "q",
            vec![Atom::new("R", &["x", "y"]), Atom::new("R", &["z", "w"])],
        );
        for (instance, q, domains) in [
            ("edge-vs-2path", &two_path, &[2usize, 3][..]),
            ("determined-instance", &two_edges, &[2][..]),
        ] {
            let determined = decide_bag_determinacy(&v, q).unwrap().determined;
            h.bench(&format!("baseline/{instance}/theorem3-decide"), || {
                decide_bag_determinacy(&v, q).unwrap().determined
            });
            for &domain in domains {
                let refuted = brute_force_search(&v, q, domain, 100_000).refuted();
                assert!(
                    !(refuted && determined),
                    "{instance}: brute force refuted a determined instance"
                );
                h.bench(&format!("baseline/{instance}/bruteforce/{domain}"), || {
                    brute_force_search(&v, q, domain, 100_000).refuted()
                });
            }
        }
    }

    // HILBERT: the Theorem 2 reduction behind UCQ undecidability
    // (§HILBERT), through the production request path — encode the
    // Diophantine instance, search the box for a solution, verify the
    // refutation it yields — on x₁·y₁ + … + x_n·y_n − 12 = 0.
    if h.family_enabled("hilbert") {
        use cqdet_service::{Engine, Request, RequestKind, Response};
        let engine = Engine::new();
        for n in [1usize, 2, 4] {
            for bound in [3u64, 6] {
                let request = Request {
                    id: "h".into(),
                    deadline_ms: None,
                    budget: None,
                    kind: RequestKind::Hilbert {
                        bound,
                        monomials: sum_of_products(n, 12),
                    },
                };
                let response = engine.submit(request.clone());
                let Response::Hilbert { refutation, .. } = &response else {
                    panic!("hilbert {n}x{bound} failed: {}", response.render());
                };
                assert!(
                    refutation.as_ref().is_none_or(|r| r.verified),
                    "hilbert {n}x{bound}: unverified refutation"
                );
                h.bench(&format!("hilbert/submit/{n}/bound{bound}"), || {
                    engine.submit(request.clone())
                });
            }
        }
    }
}
