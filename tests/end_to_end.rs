//! Cross-crate end-to-end tests: decision procedure ↔ witness construction ↔
//! materialised brute-force recounting ↔ bounded exhaustive baseline.

use cqdet::core::witness::{check_certificate_arithmetic, find_separating_structure};
use cqdet::prelude::*;
use cqdet::query::QueryGenerator;
use cqdet::structure::hom_count;

fn cq(text: &str) -> ConjunctiveQuery {
    parse_query(text).expect("valid query").disjuncts()[0].clone()
}

/// Submit one request, with no deadline or budget, to `engine`.
fn submit(engine: &Engine, kind: RequestKind) -> Response {
    engine.submit(Request {
        id: "r".into(),
        deadline_ms: None,
        budget: None,
        kind,
    })
}

/// For an undetermined instance, the witness must survive every check we have:
/// certificate arithmetic, symbolic evaluation of all views, and — because the
/// instance is small — full materialisation with brute-force recounting.
#[test]
fn witness_full_stack_edge_vs_two_path() {
    let q = cq("q() :- R(x,y), R(y,z)");
    let v = cq("v() :- R(x,y)");
    let views = vec![v];
    let analysis = decide_bag_determinacy(&views, &q).unwrap();
    assert!(!analysis.determined);
    let witness =
        build_counterexample(&SharedCaches::new(), &analysis, &q, &CancelToken::none()).unwrap();
    assert!(check_certificate_arithmetic(&witness, &analysis));
    assert!(witness.verify(&SharedCaches::new(), &views, &q));
    let materialised = witness
        .verify_by_materialization(&views, &q, 2_000)
        .expect("this instance is small enough to materialise");
    assert!(
        materialised,
        "brute-force recount must agree with the symbolic certificate"
    );
}

/// The decision procedure and the bounded brute-force baseline must never
/// contradict each other: if the procedure says "determined", the baseline
/// must not find a counterexample; if the baseline finds one, the procedure
/// must say "not determined".
#[test]
fn decision_agrees_with_bruteforce_on_random_instances() {
    let mut generator = QueryGenerator::new(2, 2024);
    let mut determined_count = 0usize;
    for i in 0..30 {
        let planted = i % 3 == 0;
        let (views, q) = generator.random_instance(2, 2, planted);
        let analysis = decide_bag_determinacy(&views, &q).unwrap();
        if planted {
            assert!(
                analysis.determined,
                "planted instances are determined by construction"
            );
        }
        if analysis.determined {
            determined_count += 1;
        }
        let brute = brute_force_search(&views, &q, 2, 20_000);
        if analysis.determined {
            assert!(
                !brute.refuted(),
                "brute force found a counterexample for an instance the procedure calls determined: V={views:?}, q={q}"
            );
        }
        if brute.refuted() {
            assert!(!analysis.determined);
        }
    }
    assert!(
        determined_count >= 10,
        "the planted third must all be determined"
    );
}

/// Undetermined random instances must yield verifiable witnesses.
#[test]
fn witnesses_for_random_undetermined_instances() {
    let mut generator = QueryGenerator::new(2, 777);
    let mut built = 0usize;
    for _ in 0..20 {
        let (views, q) = generator.random_instance(2, 2, false);
        let analysis = decide_bag_determinacy(&views, &q).unwrap();
        if analysis.determined {
            continue;
        }
        let witness =
            build_counterexample(&SharedCaches::new(), &analysis, &q, &CancelToken::none())
                .unwrap();
        assert!(
            witness.verify(&SharedCaches::new(), &views, &q),
            "witness failed for V={views:?}, q={q}"
        );
        built += 1;
    }
    assert!(
        built >= 5,
        "expected a healthy share of undetermined instances, got {built}"
    );
}

/// Determinacy is monotone in a useful way: adding the query itself to any
/// view set makes the instance determined, and adding extra views never turns
/// a determined instance into an undetermined one.
#[test]
fn adding_views_preserves_determinacy() {
    let mut generator = QueryGenerator::new(2, 31337);
    for i in 0..10 {
        let (mut views, q) = generator.random_instance(3, 2, i % 2 == 0);
        let before = decide_bag_determinacy(&views, &q).unwrap().determined;
        // Adding q itself always determines.
        let mut with_q = views.clone();
        with_q.push(q.clone().with_name("q_as_view"));
        assert!(decide_bag_determinacy(&with_q, &q).unwrap().determined);
        // Adding an unrelated extra view never destroys determinacy.
        views.push(generator.random_boolean_cq("extra", 2, 3, true));
        let after = decide_bag_determinacy(&views, &q).unwrap().determined;
        if before {
            assert!(after, "adding a view must not destroy determinacy");
        }
    }
}

/// The facade's parser, decision procedure and rewriting work together on the
/// warehouse scenario from the README.
#[test]
fn readme_scenario() {
    let program = "
        # materialised counting views
        v1() :- Orders(c,o), Ships(o,w)
        v2() :- Ships(o,w)
        # dashboards
        q1() :- Orders(c,o), Ships(o,w), Ships(o2,w2)
        q2() :- Orders(c,o), Ships(o,w), Ships(o,w2)
    ";
    let queries = parse_queries(program).unwrap();
    let views: Vec<ConjunctiveQuery> = queries[..2]
        .iter()
        .map(|u| u.disjuncts()[0].clone())
        .collect();
    let q1 = queries[2].disjuncts()[0].clone();
    let q2 = queries[3].disjuncts()[0].clone();
    let a1 = decide_bag_determinacy(&views, &q1).unwrap();
    assert!(a1.determined);
    assert!(a1.rewriting(&views).unwrap().contains("v1(D)"));
    let a2 = decide_bag_determinacy(&views, &q2).unwrap();
    assert!(!a2.determined);
    let w = build_counterexample(&SharedCaches::new(), &a2, &q2, &CancelToken::none()).unwrap();
    assert!(w.verify(&SharedCaches::new(), &views, &q2));
}

/// A relation used with two arities is a typed schema error naming the
/// relation and both arities, on every request path that builds a
/// common schema, and a rejected `view_add` leaves its session as it
/// was.
#[test]
fn conflicting_arities_are_typed_schema_errors() {
    const CONFLICT: &str = "relation R used with conflicting arities 2 and 1";
    const PROGRAM: &str = "v1() :- R(x,y)\nv2() :- R(x,y), R(y,z)\nq() :- R(x,y), R(u,w)\n";
    let engine = Engine::new();
    let Response::Error { error, .. } = submit(
        &engine,
        RequestKind::Decide {
            program: "v() :- R(x,y)\nq() :- R(x)".into(),
            query: "q".into(),
            witness: true,
        },
    ) else {
        panic!("a conflicting decide must fail");
    };
    assert_eq!(error.code(), "schema");
    assert_eq!(error.to_string(), format!("schema error: {CONFLICT}"));

    // In a batch the conflicting task's record carries the error and
    // its sibling is still decided.
    let Response::Batch { records, .. } = submit(
        &engine,
        RequestKind::Batch {
            tasks: "v() :- R(x,y)\nw() :- R(x)\nq() :- R(x,y), R(y,z)\n\
                    task ok: q <- v\ntask bad: q <- v w\n"
                .into(),
            witnesses: true,
            verify: true,
        },
    ) else {
        panic!("expected a batch response");
    };
    assert_eq!(records[0].status, TaskStatus::NotDetermined);
    assert_eq!(records[0].verified, Some(true));
    assert_eq!(records[1].status, TaskStatus::Error);
    assert_eq!(records[1].error.as_deref(), Some(CONFLICT));

    let Response::SessionOpen { session, .. } = submit(
        &engine,
        RequestKind::SessionOpen {
            program: PROGRAM.into(),
            query: "q".into(),
            checkpoint_interval: None,
        },
    ) else {
        panic!("expected a session_open response");
    };
    let redecide = || {
        let Response::SessionDecide { record, .. } = submit(
            &engine,
            RequestKind::Redecide {
                session,
                witness: true,
            },
        ) else {
            panic!("expected a redecide response");
        };
        record.render()
    };
    let before = redecide();
    let Response::Error { error, .. } = submit(
        &engine,
        RequestKind::ViewAdd {
            session,
            view: "w() :- R(x)".into(),
        },
    ) else {
        panic!("a conflicting view_add must fail");
    };
    assert_eq!(error.code(), "schema");
    assert_eq!(error.to_string(), format!("schema error: {CONFLICT}"));
    assert_eq!(redecide(), before, "the rejected add changed the session");
    // The name was not taken either: a consistent `w` still goes in.
    let Response::SessionDelta { views, .. } = submit(
        &engine,
        RequestKind::ViewAdd {
            session,
            view: "w() :- R(x,x)".into(),
        },
    ) else {
        panic!("expected a view_add response");
    };
    assert_eq!(views, ["v1", "v2", "w"]);
}

/// A decide whose single separator candidates fail, found by an exhaustive
/// search over the connected digraphs with at most 4 elements: for its
/// basis elements A (3 elements) and B (4 elements), hom(A, C) = hom(B, C)
/// for C = A, B and the query body.  The Lemma 43
/// separator comes from the induced search over B, and the certificate
/// still verifies, through the library and through the serving engine.
#[test]
fn induced_separator_certifies_end_to_end() {
    let program = "v() :- E(a,b), E(b,a), E(b,b), E(c,a)\n\
                   q() :- E(a,b), E(b,a), E(b,b), E(c,a), \
                   E(x0,x2), E(x1,x0), E(x2,x0), E(x2,x2), E(x3,x0), E(x3,x1)";
    let (views, q) = cqdet::service::parse_program(program, "q").unwrap();
    let analysis = decide_bag_determinacy(&views, &q).unwrap();
    assert!(!analysis.determined);
    let basis = &analysis.basis;
    assert_eq!(basis.len(), 2);
    let mut singles = basis.clone();
    singles.push(q.frozen_body_over(&analysis.schema));
    for c in &singles {
        assert_eq!(hom_count(&basis[0], c), hom_count(&basis[1], c), "{c:?}");
    }
    let caches = SharedCaches::new();
    let none = CancelToken::none();
    let h = find_separating_structure(&basis[0], &basis[1], &singles, &none).unwrap();
    assert!(!singles.contains(&h));
    assert_ne!(hom_count(&basis[0], &h), hom_count(&basis[1], &h));
    let witness = build_counterexample(&caches, &analysis, &q, &none).unwrap();
    assert!(check_certificate_arithmetic(&witness, &analysis));
    assert!(witness.verify(&caches, &views, &q));

    let response = submit(
        &Engine::new(),
        RequestKind::Decide {
            program: program.into(),
            query: "q".into(),
            witness: true,
        },
    );
    let Response::Decide { record, .. } = response else {
        panic!("expected a decide response, got {response:?}");
    };
    assert_eq!(record.status, TaskStatus::NotDetermined);
    assert_eq!(record.verified, Some(true));
}

/// Theorem 2 end-to-end: encode a solvable Diophantine instance, search for a
/// solution, and confirm the counterexample refutes determinacy of the encoded
/// UCQ instance.
#[test]
fn hilbert_reduction_end_to_end() {
    use cqdet::hilbert::structures::{bounded_refutation, verify_counterexample};
    // 2·x·y − 12 = 0 (solvable), and x² + 3 = 0 (unsolvable over ℕ).
    let solvable = DiophantineInstance::from_terms(&[(2, &[("x", 1), ("y", 1)]), (-12, &[])]);
    let (enc, d, d_prime) = bounded_refutation(&solvable, 6, || false).unwrap().unwrap();
    assert!(verify_counterexample(&enc, &d, &d_prime));

    let unsolvable = DiophantineInstance::from_terms(&[(1, &[("x", 2)]), (3, &[])]);
    assert!(bounded_refutation(&unsolvable, 30, || false)
        .unwrap()
        .is_none());
}
