//! Wire-format stabilization tests: every emitted certificate record
//! carries the top-level `"version"` member, parses back through
//! `cqdet::engine::json`, and its arithmetic re-verifies **from the parsed
//! JSON alone** — no peeking at in-process state.

use cqdet::engine::{stats_json, Json, WIRE_FORMAT_VERSION};
use cqdet::prelude::*;

fn golden(name: &str) -> String {
    let text = std::fs::read_to_string(format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR")))
        .expect("golden file");
    text
}

fn rat_of(v: &Json) -> Rat {
    let num: Int = v
        .get("num")
        .and_then(Json::as_str)
        .unwrap()
        .parse()
        .unwrap();
    let den: Int = v
        .get("den")
        .and_then(Json::as_str)
        .unwrap()
        .parse()
        .unwrap();
    Rat::new(num, den)
}

fn int_vec_of(v: &Json) -> Vec<Rat> {
    v.as_arr()
        .unwrap()
        .iter()
        .map(|s| Rat::from_int(s.as_str().unwrap().parse().unwrap()))
        .collect()
}

fn dot(a: &[Rat], b: &[Rat]) -> Rat {
    a.iter()
        .zip(b)
        .fold(Rat::zero(), |acc, (x, y)| acc.add_ref(&x.mul_ref(y)))
}

/// Re-verify one parsed record's arithmetic: the span identity for
/// determined records, the orthogonality + perturbation identities for
/// undetermined ones.
fn reverify(record: &Json) {
    assert_eq!(
        record.get("version").unwrap().as_u64(),
        Some(WIRE_FORMAT_VERSION as u64),
        "every record carries the wire version"
    );
    let status = record.get("status").unwrap().as_str().unwrap();
    if status == "error" {
        assert!(record.get("error").unwrap().as_str().is_some());
        return;
    }
    let q_vec = int_vec_of(record.get("query_vector").unwrap());
    let view_vecs: Vec<Vec<Rat>> = record
        .get("view_vectors")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(int_vec_of)
        .collect();
    match status {
        "determined" => {
            let coefficients: Vec<Rat> = record
                .get("coefficients")
                .expect("determined records carry coefficients")
                .as_arr()
                .unwrap()
                .iter()
                .map(rat_of)
                .collect();
            for (j, q_j) in q_vec.iter().enumerate() {
                let mut acc = Rat::zero();
                for (alpha, v) in coefficients.iter().zip(&view_vecs) {
                    acc = acc.add_ref(&alpha.mul_ref(&v[j]));
                }
                assert_eq!(&acc, q_j, "span identity at coordinate {j}");
            }
        }
        "not_determined" => {
            let ce = record
                .get("counterexample")
                .expect("undetermined records carry the counterexample");
            let z: Vec<Rat> = ce
                .get("z")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(rat_of)
                .collect();
            let t = rat_of(ce.get("t").unwrap());
            for v in &view_vecs {
                assert!(dot(&z, v).is_zero(), "z ⊥ every view vector");
            }
            assert!(!dot(&z, &q_vec).is_zero(), "⟨z,q⃗⟩ ≠ 0");
            let y = int_vec_of(ce.get("answers_d").unwrap());
            let y_prime = int_vec_of(ce.get("answers_d_prime").unwrap());
            assert_ne!(y, y_prime);
            for i in 0..y.len() {
                let z_i = z[i].to_int().unwrap().to_i64().unwrap();
                assert_eq!(
                    y_prime[i],
                    y[i].mul_ref(&t.pow_i64(z_i)),
                    "y′ = t^z ∘ y at {i}"
                );
            }
        }
        other => panic!("unknown status {other:?}"),
    }
    assert_ne!(record.get("verified"), None);
}

#[test]
fn every_emitted_record_round_trips_and_reverifies() {
    // Drive the whole mixed golden batch through the serving engine and
    // re-check every record from its rendered JSON line alone.
    let engine = Engine::new();
    let response = engine.submit(Request {
        id: "wire".into(),
        deadline_ms: None,
        budget: None,
        kind: RequestKind::Batch {
            tasks: golden("mixed.cqb"),
            witnesses: true,
            verify: true,
        },
    });
    let Response::Batch { records, stats, .. } = response else {
        panic!("expected a batch response");
    };
    assert_eq!(records.len(), 6);
    for record in &records {
        let line = record.render();
        let parsed = Json::parse(&line).expect("emitted record is valid JSON");
        assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed, "round trip");
        reverify(&parsed);
    }
    // The stats record is versioned too.
    let stats_line = stats_json(&stats).render();
    let parsed = Json::parse(&stats_line).unwrap();
    assert_eq!(
        parsed.get("version").unwrap().as_u64(),
        Some(WIRE_FORMAT_VERSION as u64)
    );
}

#[test]
fn decide_response_envelope_round_trips() {
    let engine = Engine::new();
    let response = engine.submit(Request {
        id: "env".into(),
        deadline_ms: None,
        budget: None,
        kind: RequestKind::Decide {
            program: golden("warehouse.cq"),
            query: "q".into(),
            witness: true,
        },
    });
    let wire = response.to_json();
    assert_eq!(wire.get("version").unwrap().as_u64(), Some(1));
    assert_eq!(wire.get("id").unwrap().as_str(), Some("env"));
    let parsed = Json::parse(&wire.render()).unwrap();
    assert_eq!(parsed, wire);
    reverify(parsed.get("record").unwrap());
}
