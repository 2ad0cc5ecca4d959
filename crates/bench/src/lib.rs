//! Shared workload definitions for the benchmark harness.
//!
//! Each bench target in `benches/` corresponds to one experiment of
//! `EXPERIMENTS.md`; this library crate holds the workload constructors so
//! that the benches and the documentation agree on the parameters.

use cqdet_bigint::{Int, Nat};
use cqdet_core::{ConjunctiveQuery, PathQuery};
use cqdet_engine::Task;
use cqdet_linalg::{QVec, Rat};
use cqdet_query::cq::Atom;
use cqdet_query::QueryGenerator;
use cqdet_structure::{Schema, Structure, StructureGenerator};

/// The parameter sweep for the decision-procedure experiment (T3-DECIDE):
/// number of views.
pub const DECIDE_VIEW_COUNTS: &[usize] = &[2, 4, 8, 16, 32];

/// The parameter sweep for the decision-procedure experiment: atoms per view.
pub const DECIDE_ATOM_COUNTS: &[usize] = &[2, 4, 8];

/// The parameter sweep for the many-views experiment (DEDUP): planted view
/// counts large enough that isomorphism-class bookkeeping (basis construction
/// and vector extraction) dominates the decision procedure.
pub const DECIDE_MANY_VIEW_COUNTS: &[usize] = &[64, 128, 256];

/// The parameter sweep for the linear-algebra kernel (T3-SPAN).
pub const SPAN_DIMENSIONS: &[usize] = &[4, 8, 16, 32, 64];

/// Domain sizes for the homomorphism-counting experiment (HOM).
pub const HOM_DOMAIN_SIZES: &[usize] = &[4, 8, 16, 32];

/// Path-query lengths for the PATH experiment.
pub const PATH_QUERY_LENGTHS: &[usize] = &[4, 8, 16, 32];

/// A deterministic decision-procedure workload: `count` views of
/// `atoms` atoms each, plus a query; `planted` controls whether the query is a
/// sum of view components (determined) or independent (usually undetermined).
pub fn decide_workload(
    count: usize,
    atoms: usize,
    planted: bool,
    seed: u64,
) -> (Vec<ConjunctiveQuery>, ConjunctiveQuery) {
    let mut generator = QueryGenerator::new(2, seed);
    generator.random_instance(count, atoms, planted)
}

/// Number of views held by the §DELTA mutable session.
pub const DELTA_SESSION_VIEWS: usize = 64;

/// Fresh views cycled through the §DELTA add/redecide/remove churn.
pub const DELTA_CHURN_VIEWS: usize = 8;

/// The §DELTA workload: `count` single-directed-path views (lengths
/// `1..=count`, so every view is its own isomorphism class and the span
/// echelon holds one generator per view), the query = the disjoint sum of
/// one path of each length (its Definition 29 vector is the sum of every
/// view vector, so the instance is determined and the solve walks the full
/// 64-generator system), and `extras` churn views `w_k = P_k ⊕ P_{k+1}`:
/// each is a fresh isomorphism class (so adds genuinely extend the
/// echelon) whose components are already basis elements and whose vector
/// is dependent (`v_k + v_{k+1}`), keeping the instance determined and the
/// removal on the dependent-slot compaction path.
pub fn delta_workload(
    count: usize,
    extras: usize,
) -> (
    Vec<ConjunctiveQuery>,
    ConjunctiveQuery,
    Vec<ConjunctiveQuery>,
) {
    // One directed path of each length in `lens`, fresh variables per path.
    let path_sum = |name: &str, lens: &[usize]| {
        let mut atoms = Vec::new();
        for (p, &len) in lens.iter().enumerate() {
            for i in 0..len {
                atoms.push(Atom {
                    relation: "E".to_string(),
                    vars: vec![format!("p{p}x{i}"), format!("p{p}x{}", i + 1)],
                });
            }
        }
        ConjunctiveQuery::boolean(name, atoms)
    };
    let views: Vec<ConjunctiveQuery> = (1..=count)
        .map(|i| path_sum(&format!("v{i}"), &[i]))
        .collect();
    let query = path_sum("q", &(1..=count).collect::<Vec<_>>());
    let extra: Vec<ConjunctiveQuery> = (1..=extras)
        .map(|k| path_sum(&format!("w{k}"), &[k, k + 1]))
        .collect();
    (views, query, extra)
}

/// The component list fed to `dedup_up_to_iso` by step 2 of the decision
/// procedure on the [`decide_workload`] instance with `count` planted views:
/// every connected component of every frozen view body plus the query body,
/// in pipeline order.  This is the input on which basis construction is
/// quadratic when de-duplication falls back to pairwise isomorphism searches.
pub fn dedup_components_workload(count: usize, seed: u64) -> Vec<Structure> {
    let (views, query) = decide_workload(count, 3, true, seed);
    let all: Vec<&ConjunctiveQuery> = views.iter().chain(std::iter::once(&query)).collect();
    let schema = cqdet_query::cq::common_schema(&all);
    let mut comps = Vec::new();
    for q in &all {
        let (body, _) = q.frozen_body_over(&schema);
        comps.extend(cqdet_structure::connected_components(&body));
    }
    comps
}

/// The parameter sweep for the batch-engine experiment (BATCH): number of
/// tasks per batch (each batch shares [`BATCH_SHARED_VIEWS`] views).
pub const BATCH_TASK_COUNTS: &[usize] = &[16, 64];

/// Number of views shared by every task of a [`batch_workload`] batch.
pub const BATCH_SHARED_VIEWS: usize = 8;

/// A deterministic batch workload: `num_tasks` decision tasks all sharing
/// the same pool of `num_views` random connected views.  Task `t`'s query is
/// the disjoint sum of the views at indices `{t, t+1, t+3} mod num_views`
/// with task-unique variable names, so
///
/// * every task is **determined** by construction (its vector is the sum of
///   three view vectors — Lemma 31 (⇐)), exercising the full
///   gate/basis/vector/span pipeline, and
/// * queries are textually distinct across tasks while their bodies fall
///   into `num_views` isomorphism classes, exactly the regime the
///   cross-request caches of `cqdet-engine` target: a fresh call re-freezes
///   and re-canonizes the 8 shared views per task, a session does it once.
pub fn batch_workload(num_tasks: usize, num_views: usize, seed: u64) -> Vec<Task> {
    planted_shared_view_tasks(num_tasks, num_views, 3, 4, &[0, 1, 3], seed)
}

/// The shared construction behind [`batch_workload`] and [`serve_workload`]:
/// `num_views` random connected views of `atoms` atoms over `vars`
/// variables; task `t`'s query is the disjoint sum of the views at indices
/// `{t + o : o ∈ offsets} mod num_views` with task-unique variable names
/// (determined by construction, textually distinct, few isomorphism
/// classes).
fn planted_shared_view_tasks(
    num_tasks: usize,
    num_views: usize,
    atoms: usize,
    vars: usize,
    offsets: &[usize],
    seed: u64,
) -> Vec<Task> {
    let mut generator = QueryGenerator::new(2, seed);
    let views: Vec<ConjunctiveQuery> = (0..num_views)
        .map(|i| generator.random_boolean_cq(&format!("v{i}"), atoms, vars, true))
        .collect();
    (0..num_tasks)
        .map(|t| {
            let chosen: Vec<usize> = offsets.iter().map(|&o| (t + o) % num_views).collect();
            let mut atoms = Vec::new();
            for &vi in &chosen {
                for a in views[vi].atoms() {
                    atoms.push(Atom {
                        relation: a.relation.clone(),
                        vars: a.vars.iter().map(|x| format!("{x}_t{t}c{vi}")).collect(),
                    });
                }
            }
            Task {
                id: format!("t{t}"),
                views: views.clone(),
                query: ConjunctiveQuery::boolean(format!("q{t}"), atoms),
            }
        })
        .collect()
}

/// The parameter sweep for the SERVE experiment: tasks per batch request.
pub const SERVE_TASK_COUNTS: &[usize] = &[16, 64];

/// Views shared by every task of a [`serve_workload`] request.
pub const SERVE_SHARED_VIEWS: usize = 8;

/// A serving-shaped workload: the [`batch_workload`] regime with realistic
/// per-task decision weight (8 shared views of 6 atoms; each query the
/// disjoint sum of four views, ~24 atoms), so the fixed protocol cost of
/// the server loop — request JSON parse, task-file parse, response render —
/// is measured against tasks whose *decision* dominates, as in production.
pub fn serve_workload(num_tasks: usize, seed: u64) -> Vec<Task> {
    planted_shared_view_tasks(num_tasks, SERVE_SHARED_VIEWS, 6, 7, &[0, 1, 2, 5], seed)
}

/// Serialize tasks back to the line-oriented task-file format (the SERVE
/// experiment feeds the server loop the same workload `decide_batch` gets as
/// structs).  Definitions are emitted once (views shared by many tasks
/// appear a single time), then one `task` line per task.
pub fn tasks_to_taskfile(tasks: &[Task]) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut definitions: BTreeMap<&str, String> = BTreeMap::new();
    for task in tasks {
        for v in &task.views {
            definitions.entry(v.name()).or_insert_with(|| v.to_string());
        }
        definitions
            .entry(task.query.name())
            .or_insert_with(|| task.query.to_string());
    }
    let mut out = String::new();
    for def in definitions.values() {
        let _ = writeln!(out, "{def}");
    }
    for task in tasks {
        let views: Vec<&str> = task.views.iter().map(|v| v.name()).collect();
        let _ = writeln!(
            out,
            "task {}: {} <- {}",
            task.id,
            task.query.name(),
            views.join(" ")
        );
    }
    out
}

/// The JSON-lines request driving the SERVE experiment: one `batch` request
/// over [`tasks_to_taskfile`]'s text, witnesses and verification off so the
/// comparison against direct `decide_batch` isolates protocol overhead
/// (request JSON parse + task-file parse + dispatch + response render).
pub fn serve_request_line(tasks: &[Task]) -> String {
    let tasks_json = cqdet_engine::Json::str(tasks_to_taskfile(tasks)).render();
    format!(
        "{{\"id\":\"bench\",\"type\":\"batch\",\"tasks\":{tasks_json},\"witnesses\":false,\"verify\":false}}"
    )
}

/// The chaos-soak request mix (`tests/chaos.rs`): `count` JSON-lines
/// requests cycling deterministically (in `seed`) through every request
/// family — decide instances determined and undetermined, small batches,
/// path and hilbert requests, stats probes — plus deliberately malformed
/// JSON, schema violations, and requests carrying tiny deadlines or fuel
/// budgets.  Every line demands a *typed* response (success, `parse`,
/// `schema`, `timeout` or `resource_exhausted`) — never a dropped
/// connection; `shutdown` is deliberately absent so the harness controls
/// the server's lifetime itself.
pub fn chaos_workload(count: usize, seed: u64) -> Vec<String> {
    use cqdet_engine::Json;
    let program_for = |i: usize, planted: bool| {
        let (views, query) = decide_workload(3, 2, planted, seed ^ (i as u64).wrapping_mul(0x9E37));
        let name = query.name().to_string();
        let program = views
            .iter()
            .map(|v| v.to_string())
            .chain(std::iter::once(query.to_string()))
            .collect::<Vec<_>>()
            .join("\n");
        (program, name)
    };
    (0..count)
        .map(|i| {
            let id = Json::str(format!("c{i}")).render();
            match i % 10 {
                0 => {
                    let (program, name) = program_for(i, true);
                    format!(
                        "{{\"id\":{id},\"type\":\"decide\",\"program\":{},\"query\":{}}}",
                        Json::str(program).render(),
                        Json::str(name).render()
                    )
                }
                1 => {
                    let (program, name) = program_for(i, false);
                    format!(
                        "{{\"id\":{id},\"type\":\"decide\",\"program\":{},\"query\":{},\"witness\":true}}",
                        Json::str(program).render(),
                        Json::str(name).render()
                    )
                }
                2 => {
                    let tasks = batch_workload(2, 3, seed ^ i as u64);
                    format!(
                        "{{\"id\":{id},\"type\":\"batch\",\"tasks\":{},\"witnesses\":false,\"verify\":false}}",
                        Json::str(tasks_to_taskfile(&tasks)).render()
                    )
                }
                3 => format!(
                    "{{\"id\":{id},\"type\":\"path\",\"query\":\"ABAB\",\"views\":[\"AB\",\"ABA\"]}}"
                ),
                4 => format!(
                    "{{\"id\":{id},\"type\":\"hilbert\",\"bound\":3,\"monomials\":[\"+1:x\",\"-2:\"]}}"
                ),
                5 => format!("{{\"id\":{id},\"type\":\"stats\"}}"),
                // A request-level fuel budget small enough to trip on any
                // non-cached decide: a typed resource_exhausted, not a hang.
                6 => {
                    let (program, name) = program_for(i, true);
                    format!(
                        "{{\"id\":{id},\"type\":\"decide\",\"program\":{},\"query\":{},\"budget\":{}}}",
                        Json::str(program).render(),
                        Json::str(name).render(),
                        16 + (seed ^ i as u64) % 64
                    )
                }
                // An already-expired deadline: a typed timeout.
                7 => {
                    let (program, name) = program_for(i, true);
                    format!(
                        "{{\"id\":{id},\"type\":\"decide\",\"program\":{},\"query\":{},\"deadline_ms\":0}}",
                        Json::str(program).render(),
                        Json::str(name).render()
                    )
                }
                // Malformed JSON: a typed parse error (id not recoverable).
                8 => format!("{{\"id\":{id},\"type\":\"decide\" broken"),
                // A schema violation: unknown member, typed schema error.
                _ => format!("{{\"id\":{id},\"type\":\"stats\",\"bogus\":1}}"),
            }
        })
        .collect()
}

/// Concurrent connections driven by the §SOAK experiment.
pub const SOAK_CONNECTIONS: usize = 32;

/// Total requests a full (non-`--quick`) §SOAK run pushes through the
/// server, spread evenly across [`SOAK_CONNECTIONS`] connections.
pub const SOAK_REQUESTS: usize = 100_000;

/// Pipelining window per soak connection: how many requests a client keeps
/// outstanding before reading a response.
pub const SOAK_PIPELINE_WINDOW: usize = 64;

/// What one §SOAK run observed: every response was typed and arrived in
/// order (enforced inside, a violation panics the harness), so the report
/// is pure performance — client-observed latency quantiles and end-to-end
/// throughput — plus the shed count for visibility.
#[derive(Debug)]
pub struct SoakReport {
    /// Requests sent (= responses received; a drop or hang panics).
    pub requests: usize,
    /// Responses that were typed `resource_exhausted` sheds (the workload
    /// sizes the in-flight budget so this is normally zero).
    pub shed: usize,
    /// Requests the server reported having served at shutdown.
    pub served: u64,
    /// Wall-clock seconds from first byte written to last response read.
    pub elapsed_s: f64,
    /// `requests / elapsed_s`.
    pub throughput_rps: f64,
    /// Client-observed latency quantiles in microseconds (pipelined, so
    /// they include queueing behind the connection's own window).
    pub mean_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

/// The §SOAK experiment: `connections` concurrent pipelined clients push
/// `total_requests` requests (a stats-heavy mix with periodic cache-hot
/// decides) through one in-process `serve_tcp` server, each client keeping
/// up to `window` requests outstanding.
///
/// The harness *asserts* the serving invariants while measuring: every
/// request gets exactly one response, every response parses as JSON with a
/// `type` member and echoes its request id in pipeline order, and no read
/// stalls longer than 30 s (a hang fails the run rather than wedging it).
pub fn soak_workload(connections: usize, total_requests: usize, window: usize) -> SoakReport {
    use cqdet_engine::Json;
    use std::collections::VecDeque;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    let engine = Arc::new(cqdet_service::Engine::new());
    let options = cqdet_service::ServeOptions {
        max_connections: connections + 8,
        worker_threads: 0,
        // Sized so a fully loaded pipeline (every client at its window)
        // stays under budget: the soak measures throughput, not shedding
        // (`tests/serve.rs` covers the shed path).
        inflight_budget: (connections * window).saturating_mul(2).max(64),
        ..Default::default()
    };
    let (addr_tx, addr_rx) = mpsc::channel();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            cqdet_service::serve_tcp(&engine, "127.0.0.1:0", &options, |addr| {
                let _ = addr_tx.send(addr);
            })
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("soak server must come up");

    // One shared program keeps the periodic decides cache-hot engine-wide:
    // the soak measures the serving layer, not the decision procedure.
    let (views, query) = decide_workload(3, 2, true, 0x50AC);
    let program = views
        .iter()
        .map(|v| v.to_string())
        .chain(std::iter::once(query.to_string()))
        .collect::<Vec<_>>()
        .join("\n");
    let decide_body = format!(
        "\"type\":\"decide\",\"program\":{},\"query\":{}",
        Json::str(program).render(),
        Json::str(query.name().to_string()).render()
    );
    let decide_body = Arc::new(decide_body);

    let start = Instant::now();
    let clients: Vec<_> = (0..connections)
        .map(|conn| {
            // Spread the remainder so every request is accounted for.
            let n = total_requests / connections
                + usize::from(conn < total_requests % connections);
            let decide_body = Arc::clone(&decide_body);
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).expect("soak connect");
                stream.set_nodelay(true).expect("nodelay");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                let mut writer = stream.try_clone().expect("clone soak stream");
                let mut reader = BufReader::with_capacity(1 << 16, stream);
                let mut pending: VecDeque<Instant> = VecDeque::with_capacity(window);
                let mut latencies_us = Vec::with_capacity(n);
                let mut shed = 0usize;
                let mut sent = 0usize;
                let mut received = 0usize;
                let mut line = String::new();
                while received < n {
                    while sent < n && pending.len() < window {
                        let id = format!("s{conn}-{sent}");
                        let request = if sent.is_multiple_of(8) {
                            format!("{{\"id\":\"{id}\",{decide_body}}}\n")
                        } else {
                            format!("{{\"id\":\"{id}\",\"type\":\"stats\"}}\n")
                        };
                        writer.write_all(request.as_bytes()).expect("soak write");
                        pending.push_back(Instant::now());
                        sent += 1;
                    }
                    line.clear();
                    let bytes = reader.read_line(&mut line).unwrap_or_else(|e| {
                        panic!("soak conn {conn} read stalled or failed after {received}/{n} responses: {e}")
                    });
                    assert!(
                        bytes > 0,
                        "soak conn {conn} dropped: EOF after {received}/{n} responses"
                    );
                    let sent_at = pending.pop_front().expect("response without request");
                    latencies_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
                    let response = Json::parse(line.trim()).unwrap_or_else(|e| {
                        panic!("soak conn {conn} got untyped response {line:?}: {e:?}")
                    });
                    let kind = response
                        .get("type")
                        .and_then(Json::as_str)
                        .expect("every response carries a type");
                    assert_eq!(
                        response.get("id").and_then(Json::as_str),
                        Some(format!("s{conn}-{received}").as_str()),
                        "responses must echo ids in pipeline order"
                    );
                    if kind == "error" {
                        let code = response
                            .get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(Json::as_str)
                            .expect("typed errors carry a code")
                            .to_string();
                        assert_eq!(code, "resource_exhausted", "unexpected soak error");
                        shed += 1;
                    }
                    received += 1;
                }
                (latencies_us, shed)
            })
        })
        .collect();

    let mut latencies_us: Vec<f64> = Vec::with_capacity(total_requests);
    let mut shed = 0usize;
    for client in clients {
        let (lat, s) = client.join().expect("soak client panicked");
        latencies_us.extend(lat);
        shed += s;
    }
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    engine.request_shutdown();
    let served = server
        .join()
        .expect("soak server panicked")
        .expect("soak server I/O error");

    assert_eq!(latencies_us.len(), total_requests, "every request answered");
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let quantile = |q: f64| {
        let idx = ((q * latencies_us.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(latencies_us.len() - 1);
        latencies_us[idx]
    };
    SoakReport {
        requests: total_requests,
        shed,
        served,
        elapsed_s,
        throughput_rps: total_requests as f64 / elapsed_s,
        mean_us: latencies_us.iter().sum::<f64>() / latencies_us.len() as f64,
        p50_us: quantile(0.50),
        p95_us: quantile(0.95),
        p99_us: quantile(0.99),
    }
}

/// The parameter grid for the linear-algebra experiment (LINALG):
/// `(dimension k, generators n, entry bits)`.  Tall systems (`k ≫ n`) with
/// bignum entries are the hom-count regime of Definitions 27/29 at scale;
/// the 64-bit shape is the word-size control.
pub const LINALG_SPAN_SHAPES: &[(usize, usize, usize)] = &[(24, 8, 64), (48, 12, 256)];

/// The canonical seed for a [`span_workload`] shape — shared by the JSON
/// harness, the criterion bench and the oracle test so they always measure
/// and validate the same data.
pub const fn span_workload_seed(bits: usize) -> u64 {
    0x11A6 + bits as u64
}

/// A deterministic `bits`-bit natural number (splitmix64-filled limbs).
fn big_nat(state: &mut u64, bits: usize) -> Nat {
    let mut next = || {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut n = Nat::zero();
    for _ in 0..bits.div_ceil(64) {
        n = n.shl_bits(64).add_ref(&Nat::from_u64(next()));
    }
    // Trim to `bits - 1` bits, then force the top bit so the magnitude is
    // exactly what the label promises.
    let excess = n.bit_len().saturating_sub(bits - 1);
    n.shr_bits(excess) + Nat::one().shl_bits(bits - 1)
}

/// A deterministic span workload for the LINALG experiment: `n` generator
/// vectors in ℚ^k whose entries are (signed) `bits`-bit integers —
/// hom-count-scale numbers — plus an **in-span** target planted as a small
/// integer combination of the generators and an **out-of-span** probe (a
/// perturbed copy).
pub fn span_workload(k: usize, n: usize, bits: usize, seed: u64) -> (Vec<QVec>, QVec, QVec) {
    assert!(n < k, "the workload wants a tall system (n < k)");
    let mut state = seed;
    let signed_entry = |state: &mut u64| {
        let nat = big_nat(state, bits);
        let negative = *state & 1 == 1;
        let int = Int::from_nat(nat);
        Rat::from_int(if negative { int.neg_ref() } else { int })
    };
    let generators: Vec<QVec> = (0..n)
        .map(|_| QVec((0..k).map(|_| signed_entry(&mut state)).collect()))
        .collect();
    // Small planted coefficients in [-4, 4] \ {0}.
    let mut in_span = QVec::zeros(k);
    for (j, g) in generators.iter().enumerate() {
        let c = Rat::from_i64((seed as i64 % 4 + j as i64) % 4 + 1);
        in_span = &in_span + &g.scale(&c);
    }
    let mut outside = in_span.clone();
    outside[0] = outside[0].add_ref(&Rat::one());
    (generators, in_span, outside)
}

/// A deterministic path-determinacy workload.
pub fn path_workload(
    query_len: usize,
    views: usize,
    derivable: bool,
    seed: u64,
) -> (Vec<PathQuery>, PathQuery) {
    let mut generator = QueryGenerator::new(3, seed);
    generator.random_path_instance(query_len, views, 2, derivable)
}

/// A deterministic random structure over a two-relation binary schema.
pub fn hom_target(domain: usize, facts: usize, seed: u64) -> Structure {
    let schema = Schema::binary(["R0", "R1"]);
    let mut generator = StructureGenerator::new(schema, seed);
    generator.random_with_facts(domain, facts)
}

/// The source pattern counted against [`hom_target`]: three disjoint 2-paths
/// (disconnected on purpose, so component factoring has something to do).
pub fn hom_source() -> Structure {
    let schema = Schema::binary(["R0", "R1"]);
    let mut s = Structure::new(schema);
    for i in 0..3u64 {
        s.add("R0", &[10 * i, 10 * i + 1]);
        s.add("R1", &[10 * i + 1, 10 * i + 2]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(
            decide_workload(4, 3, true, 7).1,
            decide_workload(4, 3, true, 7).1
        );
        assert_eq!(
            path_workload(8, 3, true, 7).1,
            path_workload(8, 3, true, 7).1
        );
        assert_eq!(hom_target(8, 20, 7), hom_target(8, 20, 7));
    }

    #[test]
    fn planted_decide_workloads_are_determined() {
        let (views, q) = decide_workload(3, 3, true, 42);
        let res = cqdet_core::decide_bag_determinacy(&views, &q).unwrap();
        assert!(res.determined);
    }

    #[test]
    fn derivable_path_workloads_are_determined() {
        let (views, q) = path_workload(8, 4, true, 42);
        assert!(cqdet_core::decide_path_determinacy(&views, &q).determined);
    }

    #[test]
    fn dedup_workload_runs_without_injective_searches() {
        // Acceptance gate of the canonical-labeling PR: on the bench
        // workload, basis construction and vector extraction are decided
        // entirely by canonical keys — not one injective-homomorphism
        // backtracking search.
        let comps = dedup_components_workload(24, 0xD15C + 24);
        let before = cqdet_structure::injective_probe_count();
        let basis = cqdet_structure::dedup_up_to_iso(comps.clone());
        let vector = cqdet_structure::multiplicities(&basis, &comps);
        assert!(vector.is_some());
        assert!(basis.len() < comps.len(), "workload repeats classes");
        assert_eq!(cqdet_structure::injective_probe_count(), before);
    }

    #[test]
    fn batch_workload_is_determined_and_hits_session_caches() {
        // The acceptance gate of the batch-engine PR: a batch of 64 tasks
        // sharing 8 views must agree with one-shot calls, and the shared
        // session must show cache hits (frozen bodies, gates) > 0.
        let tasks = batch_workload(64, BATCH_SHARED_VIEWS, 0xBA7C);
        let session = cqdet_engine::DecisionSession::with_config(cqdet_engine::SessionConfig {
            witnesses: false,
            verify: false,
            ..Default::default()
        });
        let report = session.decide_batch(&tasks);
        assert_eq!(report.records.len(), 64);
        for (record, task) in report.records.iter().zip(&tasks) {
            assert_eq!(
                record.status,
                cqdet_engine::TaskStatus::Determined,
                "{}",
                task.id
            );
            assert_eq!(record.verified, Some(true));
            let fresh = cqdet_core::decide_bag_determinacy(&task.views, &task.query).unwrap();
            assert!(fresh.determined, "session and one-shot must agree");
        }
        let stats = report.stats;
        assert!(stats.frozen_hits > 0, "shared views must hit: {stats:?}");
        assert!(stats.gate_hits > 0, "repeated gates must hit: {stats:?}");
        assert!(
            stats.span_hits > 0,
            "tasks sharing the view pool must reuse the incremental span basis: {stats:?}"
        );
        assert!(
            stats.iso_classes as usize <= 2 * BATCH_SHARED_VIEWS,
            "bodies collapse into few classes: {stats:?}"
        );
    }

    #[test]
    fn serve_request_agrees_with_direct_batch() {
        // The SERVE experiment's sanity gate: the server loop (request JSON
        // → task-file parse → Engine::submit → response JSON) must produce
        // exactly the statuses the direct decide_batch produces on the same
        // workload.
        let tasks = serve_workload(16, 0x5E4E + 16);
        let line = serve_request_line(&tasks);
        let engine = cqdet_service::Engine::new();
        let response = cqdet_service::respond_to_line(&engine, &line).expect("non-blank line");
        let wire = response.to_json();
        assert_eq!(
            wire.get("type").unwrap().as_str(),
            Some("batch"),
            "{wire:?}"
        );
        let records = wire.get("records").unwrap().as_arr().unwrap();
        assert_eq!(records.len(), tasks.len());
        let session = cqdet_engine::DecisionSession::with_config(cqdet_engine::SessionConfig {
            witnesses: false,
            verify: false,
            ..Default::default()
        });
        let direct = session.decide_batch(&tasks);
        for (wire_record, direct_record) in records.iter().zip(&direct.records) {
            assert_eq!(
                wire_record.get("task").unwrap().as_str(),
                Some(direct_record.id.as_str())
            );
            assert_eq!(
                wire_record.get("status").unwrap().as_str(),
                Some(direct_record.status.as_str())
            );
        }
    }

    #[test]
    fn span_workload_is_deterministic_and_oracle_checked() {
        for &(k, n, bits) in LINALG_SPAN_SHAPES {
            let (gens, inside, outside) = span_workload(k, n, bits, span_workload_seed(bits));
            let (gens2, inside2, _) = span_workload(k, n, bits, span_workload_seed(bits));
            assert_eq!(gens, gens2);
            assert_eq!(inside, inside2);
            assert!(gens.iter().all(|g| g.dim() == k) && gens.len() == n);
            // Entries really are `bits`-bit numbers.
            assert!(gens
                .iter()
                .all(|g| g.iter().all(|e| e.numer().magnitude().bit_len() == bits)));
            // The exact solver answers both probes, and the in-span
            // certificate reconstructs the target.  The word-size shape
            // only: on the 256-bit shape a debug-build exact elimination
            // takes tens of seconds.
            if bits > 64 {
                continue;
            }
            let alpha = cqdet_linalg::span_coefficients(&gens, &inside)
                .expect("planted combination is in the span");
            let mut acc = QVec::zeros(k);
            for (a, g) in alpha.iter().zip(&gens) {
                acc = &acc + &g.scale(a);
            }
            assert_eq!(acc, inside);
            assert!(cqdet_linalg::span_coefficients(&gens, &outside).is_none());
        }
    }

    #[test]
    fn hom_source_is_disconnected() {
        assert!(!cqdet_structure::is_connected(&hom_source()));
        assert_eq!(
            cqdet_structure::connected_components(&hom_source()).len(),
            3
        );
    }
}
