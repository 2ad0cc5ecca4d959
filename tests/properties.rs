//! Property-based tests of the core invariants, across crates.
//!
//! These check the executable content of the paper's toolkit on randomly
//! generated structures and queries:
//!
//! * Lovász's Lemma 4 (the counting rules for `+`, `t·`, `×`, powers),
//! * consistency of symbolic (`StructureExpr`) evaluation with brute force,
//! * the Main Lemma's (⇐) direction: determined instances can never be
//!   refuted by any concrete structure pair we manage to generate,
//! * soundness of witnesses for undetermined instances,
//! * path queries: matrix evaluation ≡ homomorphism counting, and the
//!   prefix-graph decision is stable under renaming of the alphabet.

use cqdet::prelude::*;
use cqdet::query::eval::{eval_boolean_cq, eval_cq};
use cqdet::query::QueryGenerator;
use cqdet::structure::{
    disjoint_union, hom_count, hom_count_factored, power, product, scalar_multiple,
    StructureGenerator,
};
use proptest::prelude::*;

fn schema2() -> Schema {
    Schema::binary(["R0", "R1"])
}

fn small_structure(seed: u64, facts: usize, domain: usize) -> Structure {
    let mut generator = StructureGenerator::new(schema2(), seed);
    generator.random_with_facts(domain.max(1), facts)
}

fn connected_structure(seed: u64, facts: usize) -> Structure {
    let mut generator = StructureGenerator::new(schema2(), seed);
    generator.random_connected(facts.max(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 4 (1)–(2): sum rules for connected sources.
    #[test]
    fn lemma_4_sum_rules(seed in 0u64..5000, t in 0u64..4, facts in 1usize..4) {
        let a = connected_structure(seed, facts);
        let b = small_structure(seed.wrapping_add(1), 4, 3);
        let c = small_structure(seed.wrapping_add(2), 3, 3);
        prop_assert_eq!(
            hom_count(&a, &disjoint_union(&b, &c)),
            hom_count(&a, &b) + hom_count(&a, &c)
        );
        prop_assert_eq!(
            hom_count(&a, &scalar_multiple(t, &b)),
            Nat::from_u64(t) * hom_count(&a, &b)
        );
    }

    /// Lemma 4 (3)–(5): product and left-sum rules for arbitrary sources.
    #[test]
    fn lemma_4_product_rules(seed in 0u64..5000, facts in 1usize..4) {
        let a = small_structure(seed, facts, 3);
        let b = small_structure(seed.wrapping_add(10), 3, 3);
        let c = small_structure(seed.wrapping_add(20), 3, 3);
        prop_assert_eq!(
            hom_count(&a, &product(&b, &c)),
            hom_count(&a, &b) * hom_count(&a, &c)
        );
        prop_assert_eq!(hom_count(&a, &power(&b, 2)), hom_count(&a, &b).pow(2));
        prop_assert_eq!(
            hom_count(&disjoint_union(&a, &b), &c),
            hom_count(&a, &c) * hom_count(&b, &c)
        );
        prop_assert_eq!(hom_count_factored(&a, &b), hom_count(&a, &b));
    }

    /// Main Lemma (⇐): a determined instance can never be refuted — no pair of
    /// random structures that agrees on the views may disagree on the query.
    #[test]
    fn determined_instances_are_never_refuted(seed in 0u64..2000, pairs in 1usize..6) {
        let mut qgen = QueryGenerator::new(2, seed);
        let (views, q) = qgen.random_instance(2, 2, true);
        let analysis = decide_bag_determinacy(&views, &q).unwrap();
        prop_assert!(analysis.determined);
        let schema = analysis.schema.clone();
        let mut sgen = StructureGenerator::new(schema.clone(), seed ^ 0xABCD);
        for i in 0..pairs {
            let d = sgen.random_with_facts(3, 4 + i);
            let d2 = sgen.random_with_facts(3, 4 + i);
            let views_agree = views
                .iter()
                .all(|v| eval_boolean_cq(v, &schema, &d) == eval_boolean_cq(v, &schema, &d2));
            if views_agree {
                prop_assert_eq!(
                    eval_boolean_cq(&q, &schema, &d),
                    eval_boolean_cq(&q, &schema, &d2),
                    "determined instance refuted by {:?} vs {:?}", d, d2
                );
            }
        }
    }

    /// Witness soundness on random undetermined instances.
    #[test]
    fn witnesses_are_sound(seed in 0u64..500) {
        let mut qgen = QueryGenerator::new(2, seed);
        let (views, q) = qgen.random_instance(2, 2, false);
        let analysis = decide_bag_determinacy(&views, &q).unwrap();
        if !analysis.determined {
            let witness = build_counterexample(&analysis, &q, &WitnessConfig::default()).unwrap();
            prop_assert!(witness.verify(&views, &q));
        }
    }

    /// Path queries: matrix evaluation agrees with homomorphism counting, and
    /// the determinacy decision is invariant under renaming the alphabet.
    #[test]
    fn path_matrix_eval_and_renaming(seed in 0u64..2000, len in 1usize..5) {
        let mut qgen = QueryGenerator::new(2, seed);
        let (views, q) = qgen.random_path_instance(len + 1, 2, 2, seed % 2 == 0);
        // Matrix evaluation vs naive evaluation on a random structure.
        let schema = Schema::binary(["R0", "R1"]);
        let mut sgen = StructureGenerator::new(schema.clone(), seed);
        let d = sgen.random_with_facts(4, 8);
        let by_matrix = cqdet::core::paths::eval_path_matrix(&q, &d);
        let by_hom = eval_cq(&q.to_cq("q"), &schema, &d);
        prop_assert_eq!(by_matrix, by_hom);
        // Renaming the alphabet does not change the decision.
        let rename = |p: &PathQuery| PathQuery::new(p.letters().iter().map(|l| format!("Z{l}")));
        let renamed_views: Vec<PathQuery> = views.iter().map(&rename).collect();
        let renamed_q = rename(&q);
        prop_assert_eq!(
            decide_path_determinacy(&views, &q).determined,
            decide_path_determinacy(&renamed_views, &renamed_q).determined
        );
    }

    /// The decision procedure is insensitive to duplicating views and to
    /// reordering them.
    #[test]
    fn decision_invariances(seed in 0u64..2000) {
        let mut qgen = QueryGenerator::new(2, seed);
        let (mut views, q) = qgen.random_instance(3, 2, seed % 2 == 0);
        let base = decide_bag_determinacy(&views, &q).unwrap().determined;
        views.reverse();
        prop_assert_eq!(decide_bag_determinacy(&views, &q).unwrap().determined, base);
        let dup = views.clone().into_iter().chain(views.clone()).collect::<Vec<_>>();
        prop_assert_eq!(decide_bag_determinacy(&dup, &q).unwrap().determined, base);
    }
}

/// The clique program the fuel tests lean on: hom(K8, K7) is empty (no
/// proper 7-colouring of K8) but the backtracking search visits >10k
/// candidate extensions before it can say so, so any step limit below the
/// full search cost trips mid-search — at a step count that varies with
/// the limit.
fn clique_program() -> String {
    fn clique(name: &str, n: usize) -> String {
        let atoms: Vec<String> = (0..n)
            .flat_map(|i| {
                (0..n)
                    .filter(move |&j| j != i)
                    .map(move |j| format!("R(x{i},x{j})"))
            })
            .collect();
        format!("{name}() :- {}", atoms.join(", "))
    }
    format!("{}\n{}", clique("v", 8), clique("q", 7))
}

fn decide_request(id: &str, budget: Option<BudgetSpec>, deadline_ms: Option<u64>) -> Request {
    Request {
        id: id.into(),
        deadline_ms,
        budget,
        kind: RequestKind::Decide {
            program: clique_program(),
            query: "q".into(),
            witness: false,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fuel governance: a step budget expiring at an *arbitrary* point of
    /// the pipeline surfaces as a typed `resource_exhausted` error (never a
    /// panic, never a wrong answer), and the session caches stay usable —
    /// the same engine then completes the instance unmetered with the
    /// correct answer.
    #[test]
    fn fuel_expiry_at_arbitrary_step_is_typed_and_caches_survive(limit in 1u64..20_000) {
        let engine = Engine::new();
        let spec = BudgetSpec { steps: Some(limit), bytes: None };
        match engine.submit(decide_request("metered", Some(spec), None)) {
            // A generous limit lets the search finish: the answer must be
            // the true one.
            Response::Decide { record, .. } => {
                prop_assert_eq!(record.status, TaskStatus::NotDetermined);
            }
            // A tiny limit trips the meter: the error must be typed and
            // carry an honest ledger.
            Response::Error { error, .. } => {
                prop_assert_eq!(error.code(), "resource_exhausted");
                let CqdetError::ResourceExhausted { spent, limit: reported, .. } = error else {
                    prop_assert!(false, "resource_exhausted code with a different variant");
                    unreachable!()
                };
                prop_assert_eq!(reported, Some(limit));
                prop_assert!(
                    spent.unwrap_or(0) >= limit,
                    "exhaustion must charge at least the limit"
                );
                prop_assert!(engine.counters().fuel_exhausted >= 1);
            }
            other => prop_assert!(false, "unexpected response: {other:?}"),
        }
        // The interrupted search must not have poisoned the caches.
        let after = engine.submit(decide_request("after", None, None));
        let Response::Decide { record, .. } = after else {
            prop_assert!(false, "unmetered retry failed: {after:?}");
            unreachable!()
        };
        prop_assert_eq!(record.status, TaskStatus::NotDetermined);
        prop_assert!(record.verified != Some(false), "certificate re-verification failed");
    }

    /// Fuel inside the span solver the decision pipeline runs (the
    /// incremental echelon behind `DecisionContext::span_solve_gas`): a step
    /// budget expiring at an arbitrary row operation surfaces as a typed
    /// `Interrupt` — never a panic, never a wrong in-span/out-of-span
    /// verdict — and the interrupted basis stays consistent, so an unmetered
    /// retry on it (what a session cache does) gives the true answer.
    #[test]
    fn span_solver_fuel_expiry_is_typed_never_wrong(
        limit in 1u64..2_000,
        seed in 0u64..1000,
        big in any::<bool>(),
    ) {
        use cqdet::linalg::{IncrementalBasis, QVec};
        use cqdet::parallel::{Budget, Gas};
        // One solve costs ~240 steps on the small shape and ~720 on the big
        // one, and both solves below share one budget, so the limit lands
        // in the first solve, in the second, or past both.
        let (k, n, bits) = if big { (16, 6, 64) } else { (12, 4, 32) };
        let (generators, in_span, outside) = cqdet_bench::span_workload(k, n, bits, seed);
        let budget = Budget::with_limits(Some(limit), None);
        for (target, expected_in_span) in [(&in_span, true), (&outside, false)] {
            let mut basis = IncrementalBasis::new(k);
            let mut gas = Gas::new(&CancelToken::none(), &budget, "span");
            match basis.solve_extend_gas(target, &generators, &mut gas) {
                // Finished under budget: the verdict must be the true one.
                Ok(alpha) => prop_assert_eq!(alpha.is_some(), expected_in_span),
                // Interrupted mid-elimination: typed, with an honest ledger.
                Err(interrupt) => {
                    let msg = interrupt.to_string();
                    prop_assert!(msg.contains("steps"), "untyped interrupt: {msg}");
                }
            }
            // Resuming the same basis unmetered: only generators past its
            // fed prefix are inserted, and the answer is the true one.
            let fed = basis.len();
            let alpha = basis.solve_extend(target, &generators[fed..]);
            prop_assert_eq!(alpha.is_some(), expected_in_span);
            if let Some(alpha) = alpha {
                let mut acc = QVec::zeros(k);
                for (a, g) in alpha.iter().zip(&generators) {
                    acc = &acc + &g.scale(a);
                }
                prop_assert_eq!(&acc, target, "coefficients must reconstruct the target");
            }
        }
    }

    /// Deadline governance: an already-expired deadline surfaces as a typed
    /// `deadline` error naming the pipeline stage that observed it, and the
    /// engine keeps serving afterwards.
    #[test]
    fn expired_deadline_is_typed_and_engine_keeps_serving(deadline in 0u64..2) {
        let engine = Engine::new();
        let response = engine.submit(decide_request("metered", None, Some(deadline)));
        match response {
            // 1 ms can be enough on a fast machine; the answer must then be
            // the true one.
            Response::Decide { record, .. } => {
                prop_assert_eq!(record.status, TaskStatus::NotDetermined);
            }
            Response::Error { error, .. } => {
                prop_assert_eq!(error.code(), "deadline");
                let CqdetError::Deadline { ref stage } = error else {
                    prop_assert!(false, "deadline code with a different variant");
                    unreachable!()
                };
                prop_assert!(!stage.is_empty(), "deadline error must name its stage");
                prop_assert!(engine.counters().timeouts >= 1);
            }
            other => prop_assert!(false, "unexpected response: {other:?}"),
        }
        let after = engine.submit(decide_request("after", None, None));
        let Response::Decide { record, .. } = after else {
            prop_assert!(false, "retry after deadline failed: {after:?}");
            unreachable!()
        };
        prop_assert_eq!(record.status, TaskStatus::NotDetermined);
        prop_assert!(record.verified != Some(false), "certificate re-verification failed");
    }
}

/// The candidate-view pool for the mutable-session differential test:
/// disjoint-path-sum prefixes `v_i` (each its own iso class; adds append,
/// removals exercise compaction, checkpoint replay, and rebuilds), a
/// duplicate-class edge view `e1` (≅ `v1`, so dropping either keeps the
/// class set), and a loop view `w` (its removal makes the query's regime
/// uncovered).  Returns `(name, definition)` pairs.
fn session_view_pool() -> Vec<(String, String)> {
    let mut pool: Vec<(String, String)> = (1..=5)
        .map(|i| (format!("v{i}"), path_sum_def(&format!("v{i}"), i)))
        .collect();
    pool.push(("e1".to_string(), "e1() :- E(x,y)".to_string()));
    pool.push(("w".to_string(), "w() :- E(l,l)".to_string()));
    pool
}

/// `name() :- one path of each length 1..=upto` (fresh variables per path).
fn path_sum_def(name: &str, upto: usize) -> String {
    let mut atoms = Vec::new();
    for p in 1..=upto {
        for i in 0..p {
            atoms.push(format!("E(p{p}x{i},p{p}x{})", i + 1));
        }
    }
    format!("{name}() :- {}", atoms.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The mutable-session differential invariant: after **any** sequence
    /// of `view_add` / `view_remove` / `redecide` mutations, a session's
    /// `redecide` certificate is byte-identical (as wire JSON) to a fresh
    /// engine's one-shot `decide` on the final view set.  With a tiny fuel
    /// budget attached, any request may instead surface as a typed
    /// `resource_exhausted` — in which case the mutation rolled back
    /// cleanly and the session stays usable, which the same byte-identity
    /// check (against the unmutated view set) verifies.
    #[test]
    fn session_mutation_sequences_match_one_shot_decide(
        opens in 1usize..4,
        ops in prop::collection::vec((0u8..3, 0usize..7), 3..12),
        tiny_fuel in any::<bool>(),
        steps in 1u64..12,
    ) {
        let pool = session_view_pool();
        let query = path_sum_def("q", 3);
        let program = |idxs: &[usize]| {
            idxs.iter()
                .map(|&i| pool[i].1.clone())
                .chain(std::iter::once(query.clone()))
                .collect::<Vec<_>>()
                .join("\n")
        };
        // The one-shot oracle: a never-mutated engine deciding the same
        // view set, rendered exactly as the wire would carry it.
        let one_shot = |idxs: &[usize]| -> String {
            let fresh = Engine::new();
            let Response::Decide { record, .. } = fresh.submit(Request {
                id: "oracle".into(),
                deadline_ms: None,
                budget: None,
                kind: RequestKind::Decide {
                    program: program(idxs),
                    query: "q".into(),
                    witness: true,
                },
            }) else {
                panic!("oracle decide failed")
            };
            record.to_json().render()
        };

        let engine = Engine::new();
        let mut current: Vec<usize> = (0..opens).collect();
        let open = engine.submit(Request {
            id: "open".into(),
            deadline_ms: None,
            budget: None,
            kind: RequestKind::SessionOpen {
                program: program(&current),
                query: "q".into(),
                checkpoint_interval: Some(2),
            },
        });
        let Response::SessionOpen { session, .. } = open else {
            prop_assert!(false, "session_open failed: {:?}", open);
            unreachable!()
        };
        let budget = tiny_fuel.then_some(BudgetSpec { steps: Some(steps), bytes: None });
        let submit = |kind: RequestKind| {
            engine.submit(Request {
                id: "op".into(),
                deadline_ms: None,
                budget,
                kind,
            })
        };

        for &(op, pick) in &ops {
            let pick = pick % pool.len();
            match op {
                0 => match submit(RequestKind::ViewAdd {
                    session,
                    view: pool[pick].1.clone(),
                }) {
                    Response::SessionDelta { .. } => {
                        prop_assert!(!current.contains(&pick), "duplicate add admitted");
                        current.push(pick);
                    }
                    Response::Error { error, .. } => {
                        if current.contains(&pick) {
                            prop_assert_eq!(error.code(), "schema");
                        } else {
                            // Only the fuel meter may refuse a legal add —
                            // and then the session must have rolled back.
                            prop_assert!(tiny_fuel, "unmetered add failed: {}", error);
                            prop_assert_eq!(error.code(), "resource_exhausted");
                        }
                    }
                    other => {
                        prop_assert!(false, "unexpected add response: {:?}", other);
                    }
                },
                1 => match submit(RequestKind::ViewRemove {
                    session,
                    view: pool[pick].0.clone(),
                }) {
                    Response::SessionDelta { .. } => {
                        let at = current.iter().position(|&i| i == pick);
                        prop_assert!(at.is_some(), "removed a view that was not in the set");
                        current.remove(at.unwrap());
                    }
                    Response::Error { error, .. } => {
                        if current.contains(&pick) {
                            prop_assert!(tiny_fuel, "unmetered remove failed: {}", error);
                            prop_assert_eq!(error.code(), "resource_exhausted");
                        } else {
                            prop_assert_eq!(error.code(), "schema");
                        }
                    }
                    other => {
                        prop_assert!(false, "unexpected remove response: {:?}", other);
                    }
                },
                _ => match submit(RequestKind::Redecide { session, witness: true }) {
                    Response::SessionDecide { record, .. } => {
                        prop_assert_eq!(record.to_json().render(), one_shot(&current));
                    }
                    Response::Error { error, .. } => {
                        prop_assert!(tiny_fuel, "unmetered redecide failed: {}", error);
                        prop_assert_eq!(error.code(), "resource_exhausted");
                    }
                    other => {
                        prop_assert!(false, "unexpected redecide response: {:?}", other);
                    }
                },
            }
        }

        // However the metered churn went, the session is still usable: an
        // unmetered redecide agrees byte-for-byte with the one-shot oracle
        // on exactly the surviving view set.
        let last = engine.submit(Request {
            id: "final".into(),
            deadline_ms: None,
            budget: None,
            kind: RequestKind::Redecide { session, witness: true },
        });
        let Response::SessionDecide { record, .. } = last else {
            prop_assert!(false, "final redecide failed: {:?}", last);
            unreachable!()
        };
        prop_assert_eq!(record.to_json().render(), one_shot(&current));
    }
}

/// A deterministic three-view decide request from the seeded random
/// instance family ([`cqdet_bench::decide_workload`]), rendered the same
/// way the serve protocol receives programs.
fn random_decide_request(id: &str, seed: u64, planted: bool, witness: bool) -> Request {
    let (views, query) = cqdet_bench::decide_workload(3, 2, planted, seed);
    let name = query.name().to_string();
    let program = views
        .iter()
        .map(|v| v.to_string())
        .chain(std::iter::once(query.to_string()))
        .collect::<Vec<_>>()
        .join("\n");
    Request {
        id: id.into(),
        deadline_ms: None,
        budget: None,
        kind: RequestKind::Decide {
            program,
            query: name,
            witness,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache governance: a tiny byte cap changes *when* work is recomputed,
    /// never *what* is answered.  A random request stream against an engine
    /// capped at 32 KiB (forcing evictions on nearly every insert) yields
    /// wire JSON byte-identical to an uncapped engine's, and every governed
    /// cache honors its byte budget throughout.
    #[test]
    fn tiny_cache_cap_never_changes_answers(seed in 0u64..5000, len in 4usize..10) {
        let capped = Engine::new();
        capped.set_cache_bytes(Some(32 * 1024));
        let uncapped = Engine::new();
        for i in 0..len {
            let item_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            // Identical requests (same id) so the rendered lines can only
            // differ if the *answers* differ.
            let request = || random_decide_request(
                &format!("s-{i}"), item_seed, i % 2 == 0, i % 3 == 1,
            );
            let governed = capped.submit(request()).to_json().render();
            let free = uncapped.submit(request()).to_json().render();
            prop_assert_eq!(
                governed, free,
                "capped and uncapped engines diverged at stream slot {}", i
            );
        }
        let stats_response = capped.submit(Request {
            id: "stats".into(),
            deadline_ms: None,
            budget: None,
            kind: RequestKind::Stats,
        });
        let Response::Stats { stats, .. } = stats_response else {
            prop_assert!(false, "stats request failed");
            unreachable!()
        };
        // The candidate-memo family is excluded: its cap governs each
        // short-lived per-structure memo, while the family `bytes` counter
        // sums every live member, so the family total can legitimately sit
        // above one member's cap.
        for (tag, usage) in [
            ("frozen", &stats.frozen_usage),
            ("gate", &stats.gate_usage),
            ("span", &stats.span_usage),
            ("hom", &stats.hom_usage),
        ] {
            prop_assert!(
                usage.bytes <= usage.cap,
                "{} cache over budget: {} bytes > {} cap", tag, usage.bytes, usage.cap
            );
        }
        // Cap and watermark of the candidate-memo family are process-global:
        // restore the defaults for the other tests in this binary.
        capped.set_cache_bytes(None);
    }

    /// Warm-start persistence: a snapshot survives the disk round trip
    /// exactly (the reloaded engine counts one `snapshot_loaded` and answers
    /// the original stream byte-identically), and *any* single-bit
    /// corruption of the file is rejected with a typed error and a counted
    /// cold start — never a panic, never a changed answer.
    #[test]
    fn snapshot_roundtrip_is_exact_and_corruption_is_typed(
        seed in 0u64..5000,
        flip_pos in any::<usize>(),
        flip_bit in 0u32..8,
    ) {
        let path = std::env::temp_dir().join(format!(
            "cqdet-prop-snapshot-{}-{seed}.cqds",
            std::process::id(),
        ));
        let requests = |tag: &str| -> Vec<Request> {
            (0..4)
                .map(|i| {
                    let item_seed = seed ^ (i as u64).wrapping_mul(0x517C_C1B7);
                    random_decide_request(&format!("{tag}-{i}"), item_seed, i % 2 == 0, i == 1)
                })
                .collect()
        };
        let warm = Engine::new();
        let expected: Vec<String> = requests("q")
            .into_iter()
            .map(|r| warm.submit(r).to_json().render())
            .collect();
        let entries = warm.save_snapshot(&path).expect("snapshot save");
        prop_assert!(entries > 0, "warm session exported an empty snapshot");

        let reloaded = Engine::new();
        let loaded = reloaded.load_snapshot(&path).expect("snapshot load");
        prop_assert_eq!(loaded, entries, "round trip dropped entries");
        prop_assert_eq!(reloaded.counters().snapshot_loaded, 1);
        for (request, want) in requests("q").into_iter().zip(&expected) {
            prop_assert_eq!(&reloaded.submit(request).to_json().render(), want);
        }

        let mut bytes = std::fs::read(&path).expect("read snapshot back");
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1u8 << flip_bit;
        std::fs::write(&path, &bytes).expect("plant corruption");
        let cold = Engine::new();
        let verdict = cold.load_snapshot(&path);
        prop_assert!(
            verdict.is_err(),
            "corrupted snapshot (byte {}, bit {}) accepted", pos, flip_bit
        );
        prop_assert_eq!(cold.counters().snapshot_rejected, 1);
        prop_assert_eq!(cold.counters().snapshot_loaded, 0);
        for (request, want) in requests("q").into_iter().zip(&expected) {
            prop_assert_eq!(&cold.submit(request).to_json().render(), want);
        }
        let _ = std::fs::remove_file(&path);
    }
}
