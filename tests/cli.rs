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
    let output = run_cqdet(&["batch", &golden("mixed.cqb")]);
    assert!(output.status.success(), "{output:?}");
    let lines = stdout_lines(&output);
    // One record per task.
    assert_eq!(lines.len(), 6);
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

    // The stderr summary reports the cross-task cache hits; tasks share
    // views, so the frozen and gate caches must both have hit.
    let summary = String::from_utf8(output.stderr).expect("utf-8 stderr");
    let hits = |cache: &str| -> u64 {
        let at = summary
            .find(&format!("{cache} "))
            .expect("cache in summary")
            + cache.len()
            + 1;
        let digits: String = summary[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("hit count")
    };
    assert!(summary.contains("cache hits:"), "{summary}");
    assert!(hits("frozen") > 0 && hits("gate") > 0, "{summary}");

    // Each task solves its own span system: `det-again` (the same view
    // class as `det-pair`) answers exactly as a one-shot decide does.
    let program = "v1() :- R(x,y)\nq() :- R(x,y), R(u,w)\n";
    let path = std::env::temp_dir().join(format!("cqdet_cli_one_shot_{}.cq", std::process::id()));
    std::fs::write(&path, program).unwrap();
    let one_shot = run_cqdet(&["decide", path.to_str().unwrap(), "--json"]);
    let _ = std::fs::remove_file(&path);
    assert!(one_shot.status.success(), "{one_shot:?}");
    let one_shot = Json::parse(&stdout_lines(&one_shot)[0]).unwrap();
    for member in ["status", "coefficients", "rewriting"] {
        assert_eq!(
            by_task("det-again").get(member),
            one_shot.get(member),
            "{member}"
        );
    }
}

#[test]
fn batch_json_agrees_with_in_process_engine() {
    // The CLI's records must match what the library computes on the same
    // task file (same ids, same statuses, same determinacy).
    let text = std::fs::read_to_string(golden("mixed.cqb")).unwrap();
    let file = parse_task_file(&text).unwrap();
    let session = DecisionSession::new();
    let report = session.decide_batch(
        &file.tasks,
        &CancelToken::none(),
        &Budget::none(),
        &SessionConfig::default(),
    );

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
fn decide_many_views_certificate_and_serial_agreement() {
    // More views than the fan-out's serial cutoff: the per-view stages run
    // across threads here, and inline under `CQDET_SERIAL=1`; the
    // certificate must not depend on which.
    let args = ["decide", &golden("many_views.cq"), "--witness", "--json"];
    let output = run_cqdet(&args);
    assert!(output.status.success(), "{output:?}");
    let lines = stdout_lines(&output);
    assert_eq!(lines.len(), 1, "decide --json emits exactly one record");
    let record = Json::parse(&lines[0]).expect("valid JSON");
    assert_eq!(
        record.get("status").unwrap().as_str(),
        Some("not_determined")
    );
    assert_eq!(record.get("views").unwrap().as_arr().unwrap().len(), 12);
    let retained: Vec<u64> = record
        .get("retained")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|i| i.as_u64().unwrap())
        .collect();
    assert_eq!(
        retained,
        [0, 1, 2, 3, 8, 9, 11],
        "v5–v8 and v11 fail the gate"
    );
    assert_eq!(record.get("basis_size").unwrap().as_u64(), Some(6));
    check_undetermined_record(&record);

    let serial = Command::new(env!("CARGO_BIN_EXE_cqdet"))
        .args(args)
        .env("CQDET_SERIAL", "1")
        .output()
        .expect("spawn cqdet");
    assert!(serial.status.success(), "{serial:?}");
    assert_eq!(stdout_lines(&serial), lines, "serial and parallel differ");

    // The certificate bytes are pinned: `*.witness.json` holds the record
    // an earlier build emitted.  perturb.cq's first Lemma 57 probe t = 3/2
    // leaves the cone, so its t = 5/4 comes from the second probe.
    for name in ["many_views", "perturb"] {
        let output = run_cqdet(&[
            "decide",
            &golden(&format!("{name}.cq")),
            "--witness",
            "--json",
        ]);
        assert!(output.status.success(), "{output:?}");
        let expected = std::fs::read(golden(&format!("{name}.witness.json"))).unwrap();
        assert!(
            output.stdout == expected,
            "{name}: certificate differs from the golden:\n{}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}

/// The wire bytes of a whole serve session and of a batch run are pinned:
/// `session_churn.serve.jsonl` holds what an earlier build answered to
/// `tests/data/session_churn.jsonl` (every response type a session uses,
/// `stats` lines dropped: their cache counters are not part of an answer),
/// `mixed.batch.jsonl` the certificate records of
/// `cqdet batch tests/data/mixed.cqb --quiet`.
#[test]
fn serve_and_batch_wire_bytes_match_the_goldens() {
    use std::io::Write as _;
    use std::process::Stdio;

    fn without(stdout: &[u8], marker: &str) -> String {
        let text = String::from_utf8(stdout.to_vec()).expect("utf-8 stdout");
        text.lines()
            .filter(|l| !l.contains(marker))
            .map(|l| format!("{l}\n"))
            .collect()
    }
    fn check(name: &str, got: &str) {
        let expected = std::fs::read_to_string(golden(name)).unwrap();
        assert!(
            got == expected,
            "{name}: wire bytes differ from the golden:\n{got}"
        );
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_cqdet"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cqdet serve");
    let script = std::fs::read(golden("session_churn.jsonl")).unwrap();
    child.stdin.take().unwrap().write_all(&script).unwrap();
    let served = child.wait_with_output().expect("cqdet serve output");
    assert!(served.status.success(), "{served:?}");
    check(
        "session_churn.serve.jsonl",
        &without(&served.stdout, "\"type\":\"stats\""),
    );

    let batch = run_cqdet(&["batch", &golden("mixed.cqb"), "--quiet"]);
    assert!(batch.status.success(), "{batch:?}");
    check(
        "mixed.batch.jsonl",
        &String::from_utf8(batch.stdout).expect("utf-8 stdout"),
    );
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

/// The narrated counterexample is pinned: `perturb.explain.txt` holds what
/// an earlier build printed for `cqdet explain tests/data/perturb.cq` — the
/// answer vectors, `D`, `D′` and `q(D)`, all recomputed from the
/// certificate's counts.
#[test]
fn explain_of_an_undetermined_instance_matches_the_golden() {
    let output = run_cqdet(&["explain", &golden("perturb.cq")]);
    assert!(output.status.success(), "{output:?}");
    let expected = std::fs::read(golden("perturb.explain.txt")).unwrap();
    assert!(
        output.stdout == expected,
        "explain differs from the golden:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
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
            "task records are all versioned: {line}"
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
    // `bench` was a subcommand once; timing now lives in `cqdet-bench`.
    for command in ["frobnicate", "bench"] {
        let output = run_cqdet(&[command, &golden("mixed.cqb")]);
        assert!(!output.status.success(), "{command}");
        let err = String::from_utf8(output.stderr).unwrap();
        assert!(err.contains("unknown command"), "{command}: {err}");
    }
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
    // --quiet belongs to `batch`; `decide` must reject it, not ignore it.
    let output = run_cqdet(&["decide", &golden("warehouse.cq"), "--quiet"]);
    assert!(!output.status.success());
    let err = String::from_utf8(output.stderr).unwrap();
    assert!(err.contains("not a flag of this subcommand"), "{err}");
}
