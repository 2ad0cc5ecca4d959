//! Integration tests for the `cqdet` binary: drive `decide` and `batch` on
//! the golden files under `tests/data/` and assert that the emitted JSON
//! certificates round-trip (parse with `cqdet::engine::json`, re-verify the
//! arithmetic from the parsed record alone — no peeking at internal state).

use cqdet::engine::Json;
use cqdet::prelude::*;
use std::process::{Command, Output};

fn golden(name: &str) -> String {
    format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run_cqdet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cqdet"))
        .args(args)
        .output()
        .expect("spawn cqdet")
}

fn stdout_lines(output: &Output) -> Vec<String> {
    String::from_utf8(output.stdout.clone())
        .expect("utf-8 stdout")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Parse a decimal-string JSON member into a rational.
fn rat_of(v: &Json) -> Rat {
    let num: Int = v
        .get("num")
        .and_then(Json::as_str)
        .expect("num member")
        .parse()
        .expect("decimal num");
    let den: Int = v
        .get("den")
        .and_then(Json::as_str)
        .expect("den member")
        .parse()
        .expect("decimal den");
    Rat::new(num, den)
}

/// Parse an array of bare decimal strings into rationals.
fn int_vec_of(v: &Json) -> Vec<Rat> {
    v.as_arr()
        .expect("array")
        .iter()
        .map(|s| Rat::from_int(s.as_str().expect("decimal string").parse().unwrap()))
        .collect()
}

/// The determined-side certificate check, from the JSON record alone:
/// `q⃗ = Σ αᵢ·v⃗ᵢ` over the emitted vectors and coefficients.
fn check_determined_record(record: &Json) {
    let q_vec = int_vec_of(record.get("query_vector").unwrap());
    let view_vecs: Vec<Vec<Rat>> = record
        .get("view_vectors")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(int_vec_of)
        .collect();
    let coefficients: Vec<Rat> = record
        .get("coefficients")
        .expect("determined records carry coefficients")
        .as_arr()
        .unwrap()
        .iter()
        .map(rat_of)
        .collect();
    assert_eq!(coefficients.len(), view_vecs.len());
    for (j, q_j) in q_vec.iter().enumerate() {
        let mut acc = Rat::zero();
        for (alpha, v) in coefficients.iter().zip(&view_vecs) {
            acc = acc.add_ref(&alpha.mul_ref(&v[j]));
        }
        assert_eq!(&acc, q_j, "span identity fails at basis coordinate {j}");
    }
    assert_eq!(record.get("verified").unwrap().as_bool(), Some(true));
    assert!(record.get("rewriting").unwrap().as_str().is_some());
}

/// The undetermined-side certificate check, from the JSON record alone:
/// `⟨z⃗, v⃗⟩ = 0` for every retained view, `⟨z⃗, q⃗⟩ ≠ 0`, the answer vectors
/// differ, and `y′ = t^{z⃗} ∘ y` componentwise (Lemma 57's perturbation,
/// which survives the Lemma 55 scaling).
fn check_undetermined_record(record: &Json) {
    let q_vec = int_vec_of(record.get("query_vector").unwrap());
    let view_vecs: Vec<Vec<Rat>> = record
        .get("view_vectors")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(int_vec_of)
        .collect();
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
    let dot = |a: &[Rat], b: &[Rat]| -> Rat {
        a.iter()
            .zip(b)
            .fold(Rat::zero(), |acc, (x, y)| acc.add_ref(&x.mul_ref(y)))
    };
    for v in &view_vecs {
        assert!(
            dot(&z, v).is_zero(),
            "z must be orthogonal to every view vector"
        );
    }
    assert!(!dot(&z, &q_vec).is_zero(), "z must not be orthogonal to q⃗");
    assert!(t != Rat::one(), "the perturbation factor must be ≠ 1");

    let y = int_vec_of(ce.get("answers_d").unwrap());
    let y_prime = int_vec_of(ce.get("answers_d_prime").unwrap());
    assert_eq!(y.len(), z.len());
    assert_ne!(y, y_prime, "the answer vectors must differ");
    for i in 0..y.len() {
        let z_i = z[i].to_int().expect("z is integral").to_i64().unwrap();
        assert_eq!(
            y_prime[i],
            y[i].mul_ref(&t.pow_i64(z_i)),
            "y′ = t^z ∘ y must hold at coordinate {i}"
        );
    }
    assert_eq!(ce.get("arithmetic_verified").unwrap().as_bool(), Some(true));
    assert_eq!(record.get("verified").unwrap().as_bool(), Some(true));
}

#[test]
fn decide_json_certificate_round_trips() {
    let output = run_cqdet(&["decide", &golden("warehouse.cq"), "--json"]);
    assert!(output.status.success(), "{output:?}");
    let lines = stdout_lines(&output);
    assert_eq!(lines.len(), 1, "decide --json emits exactly one record");
    let record = Json::parse(&lines[0]).expect("valid JSON");
    // Round trip: render and re-parse is the identity.
    assert_eq!(Json::parse(&record.render()).unwrap(), record);
    assert_eq!(record.get("status").unwrap().as_str(), Some("determined"));
    assert_eq!(record.get("query").unwrap().as_str(), Some("q"));
    assert_eq!(
        record.get("views").unwrap().as_arr().unwrap().len(),
        2,
        "v1 and v2"
    );
    check_determined_record(&record);
}

#[test]
fn batch_emits_reverifiable_records_and_stats() {
    let output = run_cqdet(&["batch", &golden("mixed.cqb"), "--quiet"]);
    assert!(output.status.success(), "{output:?}");
    let lines = stdout_lines(&output);
    // 6 tasks + 1 session_stats line.
    assert_eq!(lines.len(), 7);
    let records: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).expect("every line is valid JSON"))
        .collect();
    for record in &records {
        assert_eq!(
            Json::parse(&record.render()).unwrap(),
            *record,
            "round trip"
        );
    }

    let by_task = |id: &str| {
        records
            .iter()
            .find(|r| r.get("task").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no record for task {id}"))
    };
    for id in ["det-pair", "det-star", "det-again"] {
        let record = by_task(id);
        assert_eq!(
            record.get("status").unwrap().as_str(),
            Some("determined"),
            "{id}"
        );
        check_determined_record(record);
    }
    for id in ["undet", "undet2"] {
        let record = by_task(id);
        assert_eq!(
            record.get("status").unwrap().as_str(),
            Some("not_determined"),
            "{id}"
        );
        check_undetermined_record(record);
    }
    let reject = by_task("reject");
    assert_eq!(reject.get("status").unwrap().as_str(), Some("error"));
    assert!(reject
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("boolean"));

    // The stats line reports the cross-task cache hits; tasks share views,
    // so the frozen and gate caches must both have hit.
    let stats = records
        .iter()
        .find(|r| r.get("type").and_then(Json::as_str) == Some("session_stats"))
        .expect("session_stats record");
    assert!(stats.get("frozen_hits").unwrap().as_u64().unwrap() > 0);
    assert!(stats.get("gate_hits").unwrap().as_u64().unwrap() > 0);
    assert!(stats.get("hom_hits").unwrap().as_u64().unwrap() > 0);
    // `det-pair` and `det-again` retain the same view class (the edge), so
    // the second task solves against the first one's cached span basis.
    assert!(stats.get("span_hits").unwrap().as_u64().unwrap() > 0);
}

#[test]
fn batch_json_agrees_with_in_process_engine() {
    // The CLI's records must match what the library computes on the same
    // task file (same ids, same statuses, same determinacy).
    let text = std::fs::read_to_string(golden("mixed.cqb")).unwrap();
    let file = parse_task_file(&text).unwrap();
    let session = DecisionSession::new();
    let report = session.decide_batch(&file.tasks);

    let output = run_cqdet(&["batch", &golden("mixed.cqb"), "--quiet"]);
    assert!(output.status.success());
    let lines = stdout_lines(&output);
    for (record, line) in report.records.iter().zip(&lines) {
        let json = Json::parse(line).unwrap();
        assert_eq!(json.get("task").unwrap().as_str(), Some(record.id.as_str()));
        assert_eq!(
            json.get("status").unwrap().as_str(),
            Some(record.status.as_str())
        );
    }
}

#[test]
fn decide_human_output_still_works() {
    let output = run_cqdet(&["decide", &golden("warehouse.cq")]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("determined under bag semantics: true"));
    assert!(text.contains("rewriting: q(D) = v1(D)^(1) · v2(D)^(1)"));
}

#[test]
fn explain_narrates_the_pipeline() {
    let output = run_cqdet(&["explain", &golden("warehouse.cq")]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    for needle in [
        "# Step 1",
        "retention gate",
        "# Step 2",
        "# Step 3",
        "Main Lemma span test",
        "YES — determined",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn wire_version_is_emitted_on_every_record() {
    let output = run_cqdet(&["decide", &golden("warehouse.cq"), "--json"]);
    assert!(output.status.success());
    let record = Json::parse(&stdout_lines(&output)[0]).unwrap();
    assert_eq!(record.get("version").unwrap().as_u64(), Some(1));

    let output = run_cqdet(&["batch", &golden("mixed.cqb"), "--quiet"]);
    assert!(output.status.success());
    for line in stdout_lines(&output) {
        let json = Json::parse(&line).unwrap();
        assert_eq!(
            json.get("version").unwrap().as_u64(),
            Some(1),
            "task records and the session_stats line are all versioned: {line}"
        );
    }
}

#[test]
fn parse_errors_render_with_a_caret() {
    let path = std::env::temp_dir().join("cqdet_cli_caret.cq");
    std::fs::write(&path, "v() :- R(x,y)\nq() :- R(x,y) junk\n").unwrap();
    let output = run_cqdet(&["decide", path.to_str().unwrap()]);
    assert!(!output.status.success());
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(
        err.contains("line 2, column 15"),
        "positioned diagnostic: {err}"
    );
    assert!(err.contains("\"junk\""), "offending token named: {err}");
    assert!(
        err.contains("q() :- R(x,y) junk"),
        "source line echoed: {err}"
    );
    let caret_line = err
        .lines()
        .find(|l| l.trim_end().ends_with('^'))
        .unwrap_or_else(|| panic!("no caret line in: {err}"));
    // The caret sits under column 15 of the echoed line (prefix "  |  ").
    assert_eq!(caret_line, "  |                ^");
}

#[test]
fn unknown_command_fails_cleanly() {
    let output = run_cqdet(&["frobnicate"]);
    assert!(!output.status.success());
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("unknown command"));
}

#[test]
fn decide_json_error_record_still_exits_nonzero() {
    // The machine-readable record is emitted, but scripts gating on the
    // exit code must still see a failure.
    let path = std::env::temp_dir().join("cqdet_cli_nonboolean.cq");
    std::fs::write(&path, "v() :- R(x,y)\nq(x) :- R(x,y)\n").unwrap();
    let output = run_cqdet(&["decide", path.to_str().unwrap(), "--json"]);
    assert!(!output.status.success(), "error records exit nonzero");
    let lines = stdout_lines(&output);
    assert_eq!(lines.len(), 1);
    let record = Json::parse(&lines[0]).unwrap();
    assert_eq!(record.get("status").unwrap().as_str(), Some("error"));
}

#[test]
fn foreign_flags_are_rejected_per_subcommand() {
    // --repeat belongs to `bench`; `decide` must reject it, not ignore it.
    let output = run_cqdet(&["decide", &golden("warehouse.cq"), "--repeat", "3"]);
    assert!(!output.status.success());
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("not a flag of this subcommand"), "{err}");
}
