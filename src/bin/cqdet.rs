//! `cqdet` — the command-line front end to the determinacy engine.
//!
//! Every subcommand is a **thin transport**: it constructs a typed
//! [`Request`](cqdet::service::Request), routes it through
//! [`Engine::submit`](cqdet::service::Engine::submit) — the same code path
//! the JSON-lines server uses — and renders the typed
//! [`Response`](cqdet::service::Response).
//!
//! ```text
//! cqdet decide <program.cq> [--query NAME] [--witness] [--json]
//!     Decide one instance.  The program file defines one boolean CQ per
//!     line; the query is the definition named NAME (default "q"), every
//!     other definition is a view.  Human-readable by default; --json emits
//!     the full certificate as a single JSON record.
//!
//! cqdet batch <tasks.cqb> [--no-witness] [--no-verify] [--quiet]
//!     Run a batch task file (shared definitions + `task id: q <- v1 v2`
//!     lines) through one shared DecisionSession.  Emits one JSON
//!     certificate record per task on stdout, then a session_stats record
//!     with the cache-hit counters; a human summary goes to stderr.
//!
//! cqdet explain <program.cq> [--query NAME]
//!     The full analysis, narrated: schema, retention gate per view, basis,
//!     vector representations, span coefficients or counterexample.
//!
//! cqdet path <word> <view-word>...
//!     Path-query determinacy (Theorem 1): e.g. `cqdet path ABCD ABC BC BCD`.
//!
//! cqdet hilbert <bound> <monomial>...
//!     Theorem 2 reduction: monomials like `+2:x^1,y^1` or `-12:`; searches
//!     for a solution with unknowns ≤ bound and reports the refutation.
//!
//! cqdet serve [--tcp ADDR] [--workers N] [--inflight N]
//!             [--max-line-bytes N] [--fuel-steps N] [--fuel-bytes N]
//!             [--cache-bytes N] [--snapshot PATH]
//!             [--session-ttl-ms N] [--max-sessions N]
//!     The long-lived JSON-lines server.  Default transport is
//!     stdin/stdout; `--tcp 127.0.0.1:4199` serves concurrent connections
//!     over TCP with shared cross-connection caches (`--tcp 127.0.0.1:0`
//!     picks an ephemeral port, reported on stdout).  `--workers` sizes
//!     the reactor's worker pool (0 = one per core), `--inflight` caps
//!     admitted-but-unanswered requests across all connections (over
//!     budget ⇒ typed `resource_exhausted`, never a stall), and
//!     `--max-line-bytes` bounds one request line (an oversized line gets
//!     one typed error, then the connection closes).  `--fuel-steps` /
//!     `--fuel-bytes` install a default fuel budget applied to every
//!     request without a `budget` member of its own.  `--cache-bytes`
//!     caps the total bytes of the governed session caches (over-budget
//!     entries are evicted and recomputed — throughput degrades, answers
//!     never change; `CQDET_CACHE_BYTES` is the env equivalent) and
//!     `--snapshot PATH` warm-starts from a checksummed snapshot at boot
//!     (missing/corrupted file ⇒ counted cold start) and rewrites it
//!     atomically at shutdown.  `--session-ttl-ms` sets the idle
//!     time-to-live for mutable decision sessions (`session_open` et al.)
//!     and `--max-sessions` caps how many may be open at once (over cap ⇒
//!     typed `resource_exhausted` on open).  See README.md for the
//!     protocol (request/response schema, error taxonomy, deadlines).
//!
//! cqdet stats --tcp ADDR
//!     Query a running `cqdet serve --tcp` instance for its session cache
//!     counters, request count and robustness counters (timeouts, contained
//!     panics, shed connections, …); prints the stats response JSON.
//! ```
//!
//! Parse failures are rendered with the offending line and a caret:
//!
//! ```text
//! error: parse error at line 2, column 15: unexpected input after atom (found "junk")
//!   |  q() :- R(x,y) junk
//!   |                ^
//! ```

use cqdet::prelude::*;
use cqdet::service::{parse_program, serve_lines, serve_tcp, ServeOptions};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("decide") => cmd_decide(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("path") => cmd_path(&args[1..]),
        Some("hilbert") => cmd_hilbert(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try --help")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!("cqdet — bag-semantics query determinacy (PODS 2022 reproduction)");
    println!();
    println!("  cqdet decide  <program.cq> [--query NAME] [--witness] [--json]");
    println!("  cqdet batch   <tasks.cqb> [--no-witness] [--no-verify] [--quiet]");
    println!("  cqdet explain <program.cq> [--query NAME]");
    println!("  cqdet path    <query-word> <view-word>...");
    println!("  cqdet hilbert <bound> <coeff:var^deg,...>...");
    println!("  cqdet serve   [--tcp ADDR] [--workers N] [--inflight N]");
    println!("                [--max-line-bytes N] [--fuel-steps N] [--fuel-bytes N]");
    println!("                [--cache-bytes N] [--snapshot PATH]");
    println!("                [--session-ttl-ms N] [--max-sessions N]");
    println!("  cqdet stats   --tcp ADDR");
    println!();
    println!("Batch task files define boolean CQs (one per line, shared by all");
    println!("tasks) plus task lines `task <id>: <query> <- <view> <view> ...`");
    println!("(`*` = every definition except the query).  `cqdet serve` speaks");
    println!("JSON-lines (one request object per line, ids echoed, optional");
    println!("deadline_ms) over stdin/stdout or TCP; see README.md and");
    println!("ARCHITECTURE.md for the protocol and the task-file format.");
}

/// Read a file for a request payload, mapping I/O failure to a CLI error.
fn read_input(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Render a typed service error against the source text it refers to
/// (caret diagnostics for parse errors).
fn render_error(error: &CqdetError, source: &str) -> String {
    error.render(Some(source))
}

/// Flag-style argument scan: one positional path plus boolean/valued flags.
#[derive(Debug)]
struct Flags {
    path: Option<String>,
    query_name: String,
    witness: bool,
    json: bool,
    no_witness: bool,
    no_verify: bool,
    quiet: bool,
    tcp: Option<String>,
    fuel_steps: Option<u64>,
    fuel_bytes: Option<u64>,
    workers: Option<usize>,
    inflight: Option<usize>,
    max_line_bytes: Option<usize>,
    cache_bytes: Option<u64>,
    snapshot: Option<String>,
    session_ttl_ms: Option<u64>,
    max_sessions: Option<usize>,
}

/// Parse one positional path plus the flags in `allowed`; any other
/// argument — including a flag another subcommand accepts — is an error,
/// so a mistyped or misplaced flag can never be silently ignored.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags {
        path: None,
        query_name: "q".to_string(),
        witness: false,
        json: false,
        no_witness: false,
        no_verify: false,
        quiet: false,
        tcp: None,
        fuel_steps: None,
        fuel_bytes: None,
        workers: None,
        inflight: None,
        max_line_bytes: None,
        cache_bytes: None,
        snapshot: None,
        session_ttl_ms: None,
        max_sessions: None,
    };
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a.starts_with('-') && !allowed.contains(&a.as_str()) {
            return Err(format!(
                "{a:?} is not a flag of this subcommand (accepted: {})",
                allowed.join(", ")
            ));
        }
        match a.as_str() {
            "--query" => {
                flags.query_name = iter.next().ok_or("--query needs a value")?.clone();
            }
            "--witness" => flags.witness = true,
            "--json" => flags.json = true,
            "--no-witness" => flags.no_witness = true,
            "--no-verify" => flags.no_verify = true,
            "--quiet" => flags.quiet = true,
            "--tcp" => {
                flags.tcp = Some(iter.next().ok_or("--tcp needs an address")?.clone());
            }
            "--fuel-steps" => {
                flags.fuel_steps = Some(
                    iter.next()
                        .ok_or("--fuel-steps needs a value")?
                        .parse()
                        .map_err(|_| "--fuel-steps must be a non-negative integer")?,
                );
            }
            "--fuel-bytes" => {
                flags.fuel_bytes = Some(
                    iter.next()
                        .ok_or("--fuel-bytes needs a value")?
                        .parse()
                        .map_err(|_| "--fuel-bytes must be a non-negative integer")?,
                );
            }
            "--workers" => {
                flags.workers = Some(
                    iter.next()
                        .ok_or("--workers needs a value")?
                        .parse()
                        .map_err(|_| "--workers must be a non-negative integer (0 = auto)")?,
                );
            }
            "--inflight" => {
                flags.inflight = Some(
                    iter.next()
                        .ok_or("--inflight needs a value")?
                        .parse()
                        .map_err(|_| "--inflight must be a non-negative integer")?,
                );
            }
            "--max-line-bytes" => {
                let value: usize = iter
                    .next()
                    .ok_or("--max-line-bytes needs a value")?
                    .parse()
                    .map_err(|_| "--max-line-bytes must be a positive integer")?;
                if value == 0 {
                    return Err("--max-line-bytes must be a positive integer".to_string());
                }
                flags.max_line_bytes = Some(value);
            }
            "--cache-bytes" => {
                let value: u64 = iter
                    .next()
                    .ok_or("--cache-bytes needs a value")?
                    .parse()
                    .map_err(|_| "--cache-bytes must be a positive integer")?;
                if value == 0 {
                    return Err("--cache-bytes must be a positive integer".to_string());
                }
                flags.cache_bytes = Some(value);
            }
            "--snapshot" => {
                flags.snapshot = Some(iter.next().ok_or("--snapshot needs a path")?.clone());
            }
            "--session-ttl-ms" => {
                flags.session_ttl_ms = Some(
                    iter.next()
                        .ok_or("--session-ttl-ms needs a value")?
                        .parse()
                        .map_err(|_| "--session-ttl-ms must be a non-negative integer")?,
                );
            }
            "--max-sessions" => {
                let value: usize = iter
                    .next()
                    .ok_or("--max-sessions needs a value")?
                    .parse()
                    .map_err(|_| "--max-sessions must be a positive integer")?;
                if value == 0 {
                    return Err("--max-sessions must be a positive integer".to_string());
                }
                flags.max_sessions = Some(value);
            }
            other if flags.path.is_none() && !other.starts_with('-') => {
                flags.path = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(flags)
}

fn cmd_decide(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--query", "--witness", "--json"])?;
    let path = flags.path.as_deref().ok_or("decide needs a program file")?;
    let program = read_input(path)?;

    let engine = Engine::new();
    let response = engine.submit(Request {
        id: "cli".to_string(),
        deadline_ms: None,
        budget: None,
        kind: RequestKind::Decide {
            program: program.clone(),
            query: flags.query_name.clone(),
            witness: flags.witness || flags.json,
        },
    });
    let (record, views, query) = match response {
        // `--json` prints one record per decide: a well-formed program the
        // decision rejects is a `status:"error"` record.  (A program that
        // fails to parse fails here the same way it failed in the engine.)
        Response::Error {
            error: CqdetError::Schema { message },
            ..
        } if flags.json => {
            let (views, query) = parse_program(&program, &flags.query_name)
                .map_err(|error| render_error(&error, &program))?;
            let task = Task {
                id: query.name().to_string(),
                views,
                query,
            };
            let mut record = TaskRecord::new_error(&task);
            record.error = Some(message.clone());
            println!("{}", record.render());
            return Err(message);
        }
        Response::Error { error, .. } => return Err(render_error(&error, &program)),
        Response::Decide {
            record,
            views,
            query,
            ..
        } => (record, views, query),
        other => return Err(format!("unexpected response {:?}", other.type_str())),
    };

    if flags.json {
        // The record (including an error record) is the machine-readable
        // output; the exit code still reflects the outcome so scripts can
        // gate on it.
        println!("{}", record.render());
        if record.status == TaskStatus::Error {
            return Err(record.error.unwrap_or_else(|| "instance rejected".into()));
        }
        if record.verified == Some(false) {
            return Err("certificate failed re-verification".to_string());
        }
        if let Some(error) = record.error {
            return Err(error);
        }
        return Ok(());
    }

    if let Some(error) = &record.error {
        if record.analysis.is_none() {
            return Err(error.clone());
        }
    }
    let analysis = record.analysis.as_ref().ok_or("non-error record")?;
    println!("query:    {query}");
    println!("views:    {}", views.len());
    println!(
        "retained: {:?} (views with q ⊆_set v)",
        analysis.retained_views
    );
    println!("basis:    {} connected component(s)", analysis.basis_size());
    println!("determined under bag semantics: {}", analysis.determined);
    if let Some(rewriting) = &record.rewriting {
        println!("rewriting: {rewriting}");
    } else if flags.witness {
        match &record.counterexample {
            Some(cert) => {
                let (witness, caches) = (&cert.witness, engine.session().context().caches());
                println!("counterexample (symbolic structures over the good basis):");
                println!("  D  = {}", witness.d);
                println!("  D' = {}", witness.d_prime);
                println!(
                    "  q(D) = {}   q(D') = {}",
                    witness.eval_on_d(caches, &query),
                    witness.eval_on_d_prime(caches, &query)
                );
                println!("  verified: {}", record.verified == Some(true));
            }
            // A failed witness search was a hard error before the engine
            // rework; keep it one.
            None => {
                return Err(record
                    .error
                    .unwrap_or_else(|| "counterexample not constructed".into()))
            }
        }
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--no-witness", "--no-verify", "--quiet"])?;
    let path = flags.path.as_deref().ok_or("batch needs a task file")?;
    let tasks_text = read_input(path)?;

    let engine = Engine::new();
    let start = Instant::now();
    let response = engine.submit(Request {
        id: "cli".to_string(),
        deadline_ms: None,
        budget: None,
        kind: RequestKind::Batch {
            tasks: tasks_text.clone(),
            witnesses: !flags.no_witness,
            verify: !flags.no_verify,
        },
    });
    let elapsed = start.elapsed();
    let report = match response {
        Response::Error { error, .. } => return Err(render_error(&error, &tasks_text)),
        Response::Batch { records, stats, .. } => cqdet::engine::BatchReport { records, stats },
        other => return Err(format!("unexpected response {:?}", other.type_str())),
    };

    for record in &report.records {
        println!("{}", record.render());
    }
    println!("{}", cqdet::engine::stats_json(&report.stats).render());

    if !flags.quiet {
        let stats = &report.stats;
        eprintln!(
            "{} tasks in {:.1} ms: {} determined, {} not determined, {} errors; all certificates verified: {}",
            report.records.len(),
            elapsed.as_secs_f64() * 1e3,
            report.count(TaskStatus::Determined),
            report.count(TaskStatus::NotDetermined),
            report.count(TaskStatus::Error),
            report.all_verified(),
        );
        eprintln!(
            "cache hits: frozen {}/{}, gate {}/{}, span {}/{}, hom {}/{} ({} classes interned)",
            stats.frozen_hits,
            stats.frozen_hits + stats.frozen_misses,
            stats.gate_hits,
            stats.gate_hits + stats.gate_misses,
            stats.span_hits,
            stats.span_hits + stats.span_misses,
            stats.hom.hits,
            stats.hom.hits + stats.hom.misses,
            stats.iso_classes,
        );
    }
    if report.all_verified() {
        Ok(())
    } else {
        Err("a certificate failed re-verification".to_string())
    }
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--query"])?;
    let path = flags
        .path
        .as_deref()
        .ok_or("explain needs a program file")?;
    let program = read_input(path)?;

    let engine = Engine::new();
    let response = engine.submit(Request {
        id: "cli".to_string(),
        deadline_ms: None,
        budget: None,
        kind: RequestKind::Explain {
            program: program.clone(),
            query: flags.query_name.clone(),
        },
    });
    match response {
        Response::Error { error, .. } => Err(render_error(&error, &program)),
        Response::Explain { text, .. } => {
            print!("{text}");
            Ok(())
        }
        other => Err(format!("unexpected response {:?}", other.type_str())),
    }
}

fn cmd_path(args: &[String]) -> Result<(), String> {
    let [query, views @ ..] = args else {
        return Err("path needs a query word and at least one view word".to_string());
    };
    let engine = Engine::new();
    let response = engine.submit(Request {
        id: "cli".to_string(),
        deadline_ms: None,
        budget: None,
        kind: RequestKind::Path {
            query: query.clone(),
            views: views.to_vec(),
        },
    });
    let (q, vs, analysis, witness) = match response {
        Response::Error { error, .. } => return Err(error.to_string()),
        Response::Path {
            query,
            views,
            analysis,
            witness,
            ..
        } => (query, views, analysis, witness),
        other => return Err(format!("unexpected response {:?}", other.type_str())),
    };
    println!("q = {q}");
    println!(
        "V = {{{}}}",
        vs.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("determined (set ⇔ bag, Theorem 1): {}", analysis.determined);
    match analysis.derivation {
        Some(steps) => {
            print!("derivation: ε");
            for s in &steps {
                let dir = if s.sign > 0 { '+' } else { '−' };
                print!(" →({dir}{}) {}", vs[s.view], q.prefix(s.to_len));
            }
            println!();
        }
        None => {
            let (d, d_prime) = witness.ok_or("undetermined instances have Appendix B witnesses")?;
            println!("Appendix B witness:");
            println!("  D  = {d}");
            println!("  D' = {d_prime}");
        }
    }
    Ok(())
}

fn cmd_hilbert(args: &[String]) -> Result<(), String> {
    let [bound, monomials @ ..] = args else {
        return Err("hilbert needs a bound and at least one monomial".to_string());
    };
    let bound: u64 = bound
        .parse()
        .map_err(|_| "bound must be a natural number")?;
    let engine = Engine::new();
    let response = engine.submit(Request {
        id: "cli".to_string(),
        deadline_ms: None,
        budget: None,
        kind: RequestKind::Hilbert {
            bound,
            monomials: monomials.to_vec(),
        },
    });
    let (instance, views, disjuncts, schema, refutation) = match response {
        Response::Error { error, .. } => return Err(error.to_string()),
        Response::Hilbert {
            instance,
            views,
            disjuncts,
            schema,
            refutation,
            ..
        } => (instance, views, disjuncts, schema, refutation),
        other => return Err(format!("unexpected response {:?}", other.type_str())),
    };
    println!("instance: {instance}");
    println!("encoded as {views} views with {disjuncts} CQ disjuncts over schema {schema}");
    match refutation {
        Some(r) => {
            println!("solution found within the box → determinacy REFUTED");
            println!("  D  = {}", r.d);
            println!("  D' = {}", r.d_prime);
            println!("  verified: {}", r.verified);
        }
        None => println!(
            "no solution with unknowns ≤ {bound}; nothing can be concluded (Theorem 2: undecidable)"
        ),
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "--tcp",
            "--workers",
            "--inflight",
            "--max-line-bytes",
            "--fuel-steps",
            "--fuel-bytes",
            "--cache-bytes",
            "--snapshot",
            "--session-ttl-ms",
            "--max-sessions",
        ],
    )?;
    if let Some(extra) = &flags.path {
        return Err(format!(
            "serve takes no positional argument (got {extra:?})"
        ));
    }
    if flags.tcp.is_none()
        && (flags.workers.is_some() || flags.inflight.is_some() || flags.max_line_bytes.is_some())
    {
        return Err(
            "--workers/--inflight/--max-line-bytes apply to the TCP reactor; add --tcp ADDR"
                .to_string(),
        );
    }
    let default_budget =
        (flags.fuel_steps.is_some() || flags.fuel_bytes.is_some()).then_some(BudgetSpec {
            steps: flags.fuel_steps,
            bytes: flags.fuel_bytes,
        });
    let engine = Engine::new();
    engine.set_default_budget(default_budget);
    if let Some(ttl) = flags.session_ttl_ms {
        engine.set_session_ttl(std::time::Duration::from_millis(ttl));
    }
    if let Some(max) = flags.max_sessions {
        engine.set_max_sessions(max);
    }
    match &flags.tcp {
        None => {
            // The stdio transport has no ServeOptions boot hook: apply the
            // cache budget and warm start here, persist on exit.
            if let Some(bytes) = flags.cache_bytes {
                engine.set_cache_bytes(Some(bytes));
            }
            if let Some(path) = &flags.snapshot {
                let _ = engine.warm_start(std::path::Path::new(path));
            }
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let served = serve_lines(&engine, stdin.lock(), stdout.lock())
                .map_err(|e| format!("serve I/O error: {e}"))?;
            if let Some(path) = &flags.snapshot {
                let _ = engine.save_snapshot_quiet(std::path::Path::new(path));
            }
            eprintln!("cqdet serve: answered {served} request(s), shutting down");
            Ok(())
        }
        Some(addr) => {
            let defaults = ServeOptions::default();
            let options = ServeOptions {
                default_budget,
                worker_threads: flags.workers.unwrap_or(defaults.worker_threads),
                inflight_budget: flags.inflight.unwrap_or(defaults.inflight_budget),
                max_request_bytes: flags.max_line_bytes.unwrap_or(defaults.max_request_bytes),
                cache_bytes: flags.cache_bytes,
                snapshot_path: flags.snapshot.as_ref().map(std::path::PathBuf::from),
                session_ttl: flags
                    .session_ttl_ms
                    .map_or(defaults.session_ttl, std::time::Duration::from_millis),
                max_sessions: flags.max_sessions.unwrap_or(defaults.max_sessions),
                ..defaults
            };
            let served = serve_tcp(&engine, addr, &options, |bound| {
                // The ready line is machine-readable so tests and tooling can
                // discover an ephemeral port.
                println!("{{\"type\":\"serving\",\"addr\":\"{bound}\"}}");
                let _ = std::io::stdout().flush();
            })
            .map_err(|e| format!("serve I/O error on {addr}: {e}"))?;
            eprintln!("cqdet serve: answered {served} request(s), shutting down");
            Ok(())
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["--tcp"])?;
    if let Some(extra) = &flags.path {
        return Err(format!(
            "stats takes no positional argument (got {extra:?})"
        ));
    }
    let addr = flags
        .tcp
        .as_deref()
        .ok_or("stats needs --tcp ADDR (the address of a running `cqdet serve --tcp`)")?;
    use std::io::BufRead as _;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(b"{\"id\":\"cli\",\"type\":\"stats\"}\n")
        .and_then(|()| stream.flush())
        .map_err(|e| format!("cannot send stats request to {addr}: {e}"))?;
    let mut line = String::new();
    std::io::BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("no stats response from {addr}: {e}"))?;
    if line.trim().is_empty() {
        return Err(format!("{addr} closed the connection without a response"));
    }
    print!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use cqdet::service::parse_monomial;

    #[test]
    fn monomial_parsing() {
        let m = parse_monomial("+2:x^2,y").unwrap();
        assert_eq!(m.coefficient, 2);
        assert_eq!(m.degree("x"), 2);
        assert_eq!(m.degree("y"), 1);
        let c = parse_monomial("-12:").unwrap();
        assert_eq!(c.coefficient, -12);
        assert!(c.degrees.is_empty());
        assert!(parse_monomial("nope").is_err());
        assert!(parse_monomial("3:x^z").is_err());
    }

    #[test]
    fn flag_parsing() {
        let all = ["--query", "--json"];
        let args: Vec<String> = ["file.cq", "--query", "q2", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = super::parse_flags(&args, &all).unwrap();
        assert_eq!(flags.path.as_deref(), Some("file.cq"));
        assert_eq!(flags.query_name, "q2");
        assert!(flags.json && !flags.witness);
        assert!(super::parse_flags(&["--bogus".to_string()], &all).is_err());
        // A flag belonging to a different subcommand is rejected, not
        // silently ignored.
        let err = super::parse_flags(&["--json".to_string()], &["--query"]).unwrap_err();
        assert!(err.contains("not a flag of this subcommand"));
    }

    #[test]
    fn serve_tuning_flags() {
        let all = ["--workers", "--inflight", "--max-line-bytes"];
        let args: Vec<String> = [
            "--workers",
            "2",
            "--inflight",
            "128",
            "--max-line-bytes",
            "4096",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let flags = super::parse_flags(&args, &all).unwrap();
        assert_eq!(flags.workers, Some(2));
        assert_eq!(flags.inflight, Some(128));
        assert_eq!(flags.max_line_bytes, Some(4096));
        // 0 means "auto" for workers and "shed everything" for inflight,
        // but a zero-byte line cap could never admit a request.
        assert!(super::parse_flags(&["--workers".into(), "0".into()], &all).is_ok());
        assert!(super::parse_flags(&["--inflight".into(), "0".into()], &all).is_ok());
        assert!(super::parse_flags(&["--max-line-bytes".into(), "0".into()], &all).is_err());
        assert!(super::parse_flags(&["--workers".into(), "x".into()], &all).is_err());
    }

    #[test]
    fn cache_governance_flags() {
        let all = ["--cache-bytes", "--snapshot"];
        let args: Vec<String> = ["--cache-bytes", "65536", "--snapshot", "/tmp/warm.cqds"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = super::parse_flags(&args, &all).unwrap();
        assert_eq!(flags.cache_bytes, Some(65536));
        assert_eq!(flags.snapshot.as_deref(), Some("/tmp/warm.cqds"));
        // A zero-byte cache budget could never admit an entry.
        assert!(super::parse_flags(&["--cache-bytes".into(), "0".into()], &all).is_err());
        assert!(super::parse_flags(&["--cache-bytes".into(), "x".into()], &all).is_err());
        assert!(super::parse_flags(&["--snapshot".into()], &all).is_err());
    }
}
