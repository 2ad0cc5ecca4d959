//! Integration tests for `cqdet serve`: drive the real binary over a real
//! TCP socket (concurrent pipelined requests, malformed requests, deadline
//! expiry, graceful shutdown) and over stdin/stdout, asserting that every
//! outcome is a typed response — never a panic, never a dropped connection.

use cqdet::engine::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PROGRAM: &str = "v1() :- R(x,y)\\nv2() :- R(x,y), R(y,z)\\nq() :- R(x,y), R(u,w)";
const TASKS: &str =
    "v1() :- R(x,y)\\nq1() :- R(x,y), R(u,w)\\ntask t1: q1 <- v1\\ntask t2: q1 <- *";

/// A running `cqdet serve --tcp 127.0.0.1:0` child plus its bound address.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cqdet"))
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cqdet serve");
        // The first stdout line announces the bound (ephemeral) port.
        let stdout = child.stdout.take().expect("child stdout");
        let mut reader = BufReader::new(stdout);
        let mut ready = String::new();
        reader.read_line(&mut ready).expect("ready line");
        let ready = Json::parse(ready.trim()).expect("ready line is JSON");
        assert_eq!(ready.get("type").unwrap().as_str(), Some("serving"));
        let addr = ready
            .get("addr")
            .and_then(Json::as_str)
            .expect("ready line carries the address")
            .to_string();
        Server { child, addr }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to cqdet serve");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    }

    /// Wait (bounded) for the child to exit after a graceful shutdown.
    fn wait_for_exit(mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "server exited with {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("server did not exit within 30s of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Idempotent safety net for panicking tests.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Send one JSON line and read one response line.
fn roundtrip(stream: &mut TcpStream, line: &str) -> Json {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> Json {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => panic!("connection closed before a response arrived"),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) => panic!("read error: {e}"),
        }
    }
    Json::parse(std::str::from_utf8(&line).expect("utf-8 response")).expect("JSON response")
}

#[test]
fn tcp_server_answers_interleaved_requests_with_shared_caches() {
    let server = Server::start();

    // Warm the session caches with one decide on the first connection.
    let mut warm = server.connect();
    let first = roundtrip(
        &mut warm,
        &format!(r#"{{"id":"warm","type":"decide","program":"{PROGRAM}"}}"#),
    );
    assert_eq!(first.get("type").unwrap().as_str(), Some("decide"));
    assert_eq!(
        first.get("record").unwrap().get("status").unwrap().as_str(),
        Some("determined")
    );

    // Concurrent connections, each pipelining a different workload family.
    std::thread::scope(|scope| {
        let addr = &server.addr;
        let mut handles = Vec::new();
        for c in 0..4 {
            handles.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                // Pipelining: write every request before reading any reply.
                let requests = [
                    format!(
                        r#"{{"id":"{c}-d","type":"decide","program":"{PROGRAM}","witness":true}}"#
                    ),
                    format!(r#"{{"id":"{c}-b","type":"batch","tasks":"{TASKS}"}}"#),
                    format!(r#"{{"id":"{c}-p","type":"path","query":"AB","views":["A","AB"]}}"#),
                    format!(
                        r#"{{"id":"{c}-h","type":"hilbert","bound":3,"monomials":["+1:x","-2:"]}}"#
                    ),
                ];
                for r in &requests {
                    stream.write_all(r.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                }
                stream.flush().unwrap();
                // Responses come back in request order with echoed ids.
                let decide = read_response(&mut stream);
                assert_eq!(decide.get("id").unwrap().as_str(), Some(&*format!("{c}-d")));
                let record = decide.get("record").unwrap();
                assert_eq!(record.get("status").unwrap().as_str(), Some("determined"));
                assert_eq!(record.get("verified").unwrap().as_bool(), Some(true));
                assert_eq!(record.get("version").unwrap().as_u64(), Some(1));

                let batch = read_response(&mut stream);
                assert_eq!(batch.get("id").unwrap().as_str(), Some(&*format!("{c}-b")));
                let records = batch.get("records").unwrap().as_arr().unwrap();
                assert_eq!(records.len(), 2);
                for r in records {
                    assert_eq!(r.get("status").unwrap().as_str(), Some("determined"));
                }

                let path = read_response(&mut stream);
                assert_eq!(path.get("determined").unwrap().as_bool(), Some(true));

                let hilbert = read_response(&mut stream);
                assert_eq!(
                    hilbert.get("id").unwrap().as_str(),
                    Some(&*format!("{c}-h"))
                );
                let refutation = hilbert.get("refutation").unwrap();
                assert_eq!(refutation.get("verified").unwrap().as_bool(), Some(true));
            }));
        }
        for h in handles {
            h.join().expect("client thread");
        }
    });

    // The decide requests shared one view pool: the session stats must show
    // cross-connection cache hits.
    let stats_response = roundtrip(&mut warm, r#"{"id":"s","type":"stats"}"#);
    let stats = stats_response.get("stats").unwrap();
    assert!(
        stats.get("frozen_hits").unwrap().as_u64().unwrap() > 0,
        "concurrent connections must share the frozen-body cache: {stats:?}"
    );
    assert!(
        stats.get("gate_hits").unwrap().as_u64().unwrap() > 0,
        "concurrent connections must share the containment-gate cache: {stats:?}"
    );

    // Graceful shutdown: acknowledged, then the process exits cleanly.
    let ack = roundtrip(&mut warm, r#"{"id":"bye","type":"shutdown"}"#);
    assert_eq!(ack.get("type").unwrap().as_str(), Some("shutdown"));
    server.wait_for_exit();
}

/// Session lifecycle over real TCP: open, add, redecide, remove, redecide,
/// close — with every intermediate certificate byte-identical to a one-shot
/// `decide` of the same view set, and the session counters surfaced through
/// the `stats` response (the same line `cqdet stats --tcp` prints).
#[test]
fn tcp_session_lifecycle_matches_one_shot_decide() {
    let server = Server::start();
    let mut stream = server.connect();

    let one_shot = |stream: &mut TcpStream, id: &str, program: &str| -> String {
        let response = roundtrip(
            stream,
            &format!(r#"{{"id":"{id}","type":"decide","program":"{program}","witness":true}}"#),
        );
        assert_eq!(response.get("type").unwrap().as_str(), Some("decide"));
        response.get("record").unwrap().render()
    };

    const V1: &str = "v1() :- E(a,b)";
    const V2: &str = "v2() :- E(a,b), E(b,c)";
    const V3: &str = "v3() :- E(a,b), E(b,c), E(c,d)";
    const QUERY: &str = "q() :- E(a,b), E(u,w)";

    let open = roundtrip(
        &mut stream,
        &format!(r#"{{"id":"o","type":"session_open","program":"{V1}\n{V2}\n{QUERY}"}}"#),
    );
    assert_eq!(open.get("type").unwrap().as_str(), Some("session_open"));
    let session = open.get("session").unwrap().as_u64().expect("session id");
    assert_eq!(open.get("views").unwrap().as_arr().unwrap().len(), 2);

    let redecide_line =
        format!(r#"{{"id":"r","type":"redecide","session":{session},"witness":true}}"#);
    let got = roundtrip(&mut stream, &redecide_line);
    assert_eq!(got.get("type").unwrap().as_str(), Some("redecide"));
    assert_eq!(
        got.get("record").unwrap().render(),
        one_shot(&mut stream, "d0", &format!(r#"{V1}\n{V2}\n{QUERY}"#)),
        "warm redecide must agree with a one-shot decide"
    );

    let add = roundtrip(
        &mut stream,
        &format!(r#"{{"id":"a","type":"view_add","session":{session},"view":"{V3}"}}"#),
    );
    assert_eq!(add.get("type").unwrap().as_str(), Some("view_add"));
    assert_eq!(add.get("views").unwrap().as_arr().unwrap().len(), 3);
    let got = roundtrip(&mut stream, &redecide_line);
    assert_eq!(
        got.get("record").unwrap().render(),
        one_shot(&mut stream, "d1", &format!(r#"{V1}\n{V2}\n{V3}\n{QUERY}"#)),
        "redecide after view_add must agree with a one-shot decide"
    );

    let remove = roundtrip(
        &mut stream,
        &format!(r#"{{"id":"x","type":"view_remove","session":{session},"view":"v1"}}"#),
    );
    assert_eq!(remove.get("type").unwrap().as_str(), Some("view_remove"));
    assert_eq!(remove.get("views").unwrap().as_arr().unwrap().len(), 2);
    let got = roundtrip(&mut stream, &redecide_line);
    assert_eq!(
        got.get("record").unwrap().render(),
        one_shot(&mut stream, "d2", &format!(r#"{V2}\n{V3}\n{QUERY}"#)),
        "redecide after view_remove must agree with a one-shot decide"
    );

    // The session is visible on the public stats surface (what
    // `cqdet stats --tcp` prints) until it is closed.
    let stats = roundtrip(&mut stream, r#"{"id":"s1","type":"stats"}"#);
    let counters = stats.get("counters").unwrap();
    assert_eq!(counters.get("sessions_open").unwrap().as_u64(), Some(1));
    assert!(counters.get("sessions_reaped").unwrap().as_u64().is_some());

    let closed = roundtrip(
        &mut stream,
        &format!(r#"{{"id":"c","type":"session_close","session":{session}}}"#),
    );
    assert_eq!(closed.get("type").unwrap().as_str(), Some("session_close"));
    let stats = roundtrip(&mut stream, r#"{"id":"s2","type":"stats"}"#);
    assert_eq!(
        stats
            .get("counters")
            .unwrap()
            .get("sessions_open")
            .unwrap()
            .as_u64(),
        Some(0)
    );

    // A closed session is gone: mutations against it are typed errors.
    let err = roundtrip(&mut stream, &redecide_line);
    assert_eq!(err.get("type").unwrap().as_str(), Some("error"));
    assert_eq!(
        err.get("error").unwrap().get("code").unwrap().as_str(),
        Some("schema")
    );

    let _ = roundtrip(&mut stream, r#"{"id":"bye","type":"shutdown"}"#);
    server.wait_for_exit();
}

#[test]
fn malformed_and_expired_requests_yield_typed_responses() {
    let server = Server::start();
    let mut stream = server.connect();

    // Not JSON: a typed parse error, id null, connection stays up.
    let err = roundtrip(&mut stream, "this is not json");
    assert_eq!(err.get("type").unwrap().as_str(), Some("error"));
    assert_eq!(err.get("id"), Some(&Json::Null));
    assert_eq!(
        err.get("error").unwrap().get("code").unwrap().as_str(),
        Some("parse")
    );

    // Unknown request type: schema error, id echoed.
    let err = roundtrip(&mut stream, r#"{"id":"u","type":"frobnicate"}"#);
    assert_eq!(err.get("id").unwrap().as_str(), Some("u"));
    assert_eq!(
        err.get("error").unwrap().get("code").unwrap().as_str(),
        Some("schema")
    );

    // A program outside the decidable fragment: the decision engine's typed
    // rejection arrives as an error *record*, not a dropped connection.
    let response = roundtrip(
        &mut stream,
        r#"{"id":"f","type":"decide","program":"v() :- R(x,y)\nq(x) :- R(x,y)"}"#,
    );
    let record = response.get("record").unwrap();
    assert_eq!(record.get("status").unwrap().as_str(), Some("error"));
    assert!(record
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("boolean"));

    // An already-expired deadline: a typed timeout response.
    let timeout = roundtrip(
        &mut stream,
        &format!(r#"{{"id":"t","type":"decide","program":"{PROGRAM}","deadline_ms":0}}"#),
    );
    assert_eq!(timeout.get("type").unwrap().as_str(), Some("timeout"));
    let error = timeout.get("error").unwrap();
    assert_eq!(error.get("code").unwrap().as_str(), Some("deadline"));
    assert!(error.get("stage").unwrap().as_str().is_some());

    // The same connection still answers real work afterwards.
    let ok = roundtrip(
        &mut stream,
        &format!(r#"{{"id":"ok","type":"decide","program":"{PROGRAM}"}}"#),
    );
    assert_eq!(
        ok.get("record").unwrap().get("status").unwrap().as_str(),
        Some("determined")
    );

    let _ = roundtrip(&mut stream, r#"{"id":"bye","type":"shutdown"}"#);
    server.wait_for_exit();
}

#[test]
fn stdio_transport_smoke() {
    // The zero-setup mode: pipe JSON-lines through stdin/stdout.
    let mut child = Command::new(env!("CARGO_BIN_EXE_cqdet"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cqdet serve (stdio)");
    let mut stdin = child.stdin.take().unwrap();
    let requests = format!(
        "{}\n{}\n",
        format_args!(r#"{{"id":"1","type":"decide","program":"{PROGRAM}","witness":true}}"#),
        r#"{"id":"2","type":"shutdown"}"#,
    );
    stdin.write_all(requests.as_bytes()).unwrap();
    drop(stdin);
    let output = child.wait_with_output().expect("wait for stdio server");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    let decide = Json::parse(lines[0]).unwrap();
    assert_eq!(
        decide
            .get("record")
            .unwrap()
            .get("status")
            .unwrap()
            .as_str(),
        Some("determined")
    );
    assert_eq!(
        Json::parse(lines[1]).unwrap().get("type").unwrap().as_str(),
        Some("shutdown")
    );
}

// ── In-process tests of the event-driven core ──────────────────────────
//
// The tests above drive the real binary; the ones below construct
// `serve_tcp` in-process so they can pin down options the CLI defaults
// away from (tiny admission budgets, a single worker) and read the
// engine's counters directly.

use cqdet::service::{serve_tcp, Engine, ServeOptions};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// An in-process `serve_tcp` on an ephemeral port.
struct InProc {
    engine: Arc<Engine>,
    addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<u64>>,
}

impl InProc {
    fn start(options: ServeOptions) -> InProc {
        let engine = Arc::new(Engine::new());
        let server_engine = Arc::clone(&engine);
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            serve_tcp(&server_engine, "127.0.0.1:0", &options, move |addr| {
                let _ = tx.send(addr);
            })
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server ready within 10s");
        InProc {
            engine,
            addr,
            handle,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    }

    /// End the server without speaking the protocol (for scenarios whose
    /// options would shed even the shutdown request) and join it.
    fn stop(self) -> u64 {
        self.engine.request_shutdown();
        self.handle
            .join()
            .expect("server thread")
            .expect("serve_tcp result")
    }
}

fn decide_line(id: &str) -> String {
    format!(r#"{{"id":"{id}","type":"decide","program":"{PROGRAM}"}}"#)
}

/// Fairness regression: one connection pipelines 1000 requests; a second
/// connection sends single requests.  Round-robin dispatch must answer the
/// single-request client after a *bounded* number of pipeliner responses —
/// not after the whole pipeline (starvation), which is what a FIFO over
/// all connections would do.
#[test]
fn pipelining_client_cannot_starve_single_requests() {
    let server = InProc::start(ServeOptions {
        worker_threads: 1,
        ..ServeOptions::default()
    });
    let addr = server.addr;
    let a_written = AtomicBool::new(false);
    let a_read = AtomicUsize::new(0);
    let a_done = AtomicBool::new(false);

    // The probe loop may stop early, so count the probes it actually sent.
    let probes = std::thread::scope(|scope| {
        let (a_written, a_read, a_done) = (&a_written, &a_read, &a_done);
        scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("pipeliner connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(120)))
                .unwrap();
            let mut burst = String::new();
            for i in 0..1000 {
                burst.push_str(&decide_line(&format!("a{i}")));
                burst.push('\n');
            }
            stream.write_all(burst.as_bytes()).expect("pipeline burst");
            stream.flush().unwrap();
            a_written.store(true, Ordering::SeqCst);
            // A buffered reader keeps the kernel receive queue drained, so
            // `a_read` tracks what actually passed the wire instead of
            // lagging a socket buffer behind it (which would inflate the
            // probe's interleaving measurement below).
            let mut reader = BufReader::with_capacity(1 << 16, stream);
            let mut line = String::new();
            for _ in 0..1000 {
                line.clear();
                reader.read_line(&mut line).expect("pipeliner response");
                let response = Json::parse(line.trim()).expect("JSON response");
                assert_eq!(response.get("type").unwrap().as_str(), Some("decide"));
                a_read.fetch_add(1, Ordering::SeqCst);
            }
            a_done.store(true, Ordering::SeqCst);
        });

        // The single-request client: wait until the pipeline is fully
        // submitted, then measure how many pipeliner responses pass the
        // wire between each probe's send and its answer.
        while !a_written.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let mut probe = server.connect();
        let mut sent = 0u64;
        for round in 0..3 {
            if a_read.load(Ordering::SeqCst) >= 500 {
                // Pipeline mostly drained: a probe now could not be
                // starved hard enough to distinguish FIFO from RR.
                break;
            }
            let response = roundtrip(
                &mut probe,
                &format!(r#"{{"id":"p{round}","type":"stats"}}"#),
            );
            sent += 1;
            assert_eq!(response.get("type").unwrap().as_str(), Some("stats"));
            // `requests` is the engine's processed count when this probe
            // ran — its exact dispatch position, immune to client-side
            // read lag.  FIFO dispatch would park the probe behind the
            // whole pipeline (position ≥ 1001); round-robin admits it
            // within a shallow job queue of its arrival.  900 leaves vast
            // room for scheduling noise while still refuting FIFO.
            let position = response
                .get("requests")
                .unwrap()
                .as_f64()
                .expect("stats carries the request count");
            assert!(
                position <= 900.0,
                "probe {round} starved: dispatched at engine position {position} \
                 (round-robin bound is the job queue, not the pipeline)"
            );
        }
        assert!(
            !a_done.load(Ordering::SeqCst) || a_read.load(Ordering::SeqCst) == 1000,
            "pipeliner must also finish intact"
        );
        sent
    });
    assert_eq!(a_read.load(Ordering::SeqCst), 1000);

    let mut bye = server.connect();
    let ack = roundtrip(&mut bye, r#"{"id":"bye","type":"shutdown"}"#);
    assert_eq!(ack.get("type").unwrap().as_str(), Some("shutdown"));
    let served = server.handle.join().expect("server thread").expect("serve");
    assert_eq!(
        served,
        1000 + probes + 1,
        "every pipelined request, each probe sent and the shutdown answered"
    );
}

/// Admission control, strict form: a zero budget sheds every request with
/// a typed `resource_exhausted` — the connection is never stalled and
/// never dropped, and the shed counter records each refusal.
#[test]
fn zero_budget_sheds_every_request_with_typed_error() {
    let server = InProc::start(ServeOptions {
        inflight_budget: 0,
        ..ServeOptions::default()
    });
    let mut stream = server.connect();
    for i in 0..3 {
        let response = roundtrip(&mut stream, &decide_line(&format!("z{i}")));
        assert_eq!(response.get("type").unwrap().as_str(), Some("error"));
        assert_eq!(
            response.get("error").unwrap().get("code").unwrap().as_str(),
            Some("resource_exhausted"),
            "shed must be typed, got {response:?}"
        );
        assert_eq!(
            response.get("id").unwrap().as_str(),
            Some(format!("z{i}").as_str()),
            "shed responses still echo the request id"
        );
    }
    assert_eq!(server.engine.counters().shed_requests, 3);
    drop(stream);
    server.stop();
}

/// Admission control, budget 1: a pipelined burst admits its first request
/// and sheds the rest within the same reactor tick (the budget is checked
/// at frame extraction, before any completion can be collected), in
/// request order; the shed counter then surfaces in `stats` responses.
#[test]
fn over_budget_burst_sheds_tail_in_order() {
    let server = InProc::start(ServeOptions {
        inflight_budget: 1,
        worker_threads: 1,
        ..ServeOptions::default()
    });
    let mut stream = server.connect();
    let burst = format!(
        "{}\n{}\n{}\n",
        decide_line("keep"),
        r#"{"id":"shed1","type":"stats"}"#,
        r#"{"id":"shed2","type":"stats"}"#
    );
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();
    let first = read_response(&mut stream);
    assert_eq!(first.get("id").unwrap().as_str(), Some("keep"));
    assert_eq!(first.get("type").unwrap().as_str(), Some("decide"));
    for id in ["shed1", "shed2"] {
        let response = read_response(&mut stream);
        assert_eq!(response.get("id").unwrap().as_str(), Some(id));
        assert_eq!(
            response.get("error").unwrap().get("code").unwrap().as_str(),
            Some("resource_exhausted")
        );
    }
    // The connection survived shedding; a lone follow-up is admitted and
    // reports the sheds through the public counter surface.
    let stats = roundtrip(&mut stream, r#"{"id":"after","type":"stats"}"#);
    assert_eq!(stats.get("type").unwrap().as_str(), Some("stats"));
    let shed = stats
        .get("counters")
        .unwrap()
        .get("shed_requests")
        .unwrap()
        .as_f64()
        .expect("shed_requests in stats counters");
    assert!(shed >= 2.0, "stats must surface shed_requests, got {shed}");
    drop(stream);
    server.stop();
}

/// Session expiry end to end: with a tiny TTL configured through
/// `ServeOptions`, an idle session is reaped, the reap shows up in the
/// `stats` counters, and later requests against the dead session are typed
/// schema errors — the connection itself stays healthy.
#[test]
fn idle_sessions_are_reaped_by_ttl_and_counted() {
    let server = InProc::start(ServeOptions {
        session_ttl: Duration::from_millis(50),
        ..ServeOptions::default()
    });
    let mut stream = server.connect();
    let open = roundtrip(
        &mut stream,
        r#"{"id":"o","type":"session_open","program":"v1() :- R(x,y)\nq() :- R(x,y), R(u,w)"}"#,
    );
    assert_eq!(open.get("type").unwrap().as_str(), Some("session_open"));
    let session = open.get("session").unwrap().as_u64().expect("session id");
    assert_eq!(server.engine.counters().sessions_open, 1);

    // Idle past the TTL; the next request sweeps expired sessions.
    std::thread::sleep(Duration::from_millis(120));
    let stats = roundtrip(&mut stream, r#"{"id":"s","type":"stats"}"#);
    let counters = stats.get("counters").unwrap();
    assert_eq!(
        counters.get("sessions_open").unwrap().as_u64(),
        Some(0),
        "idle session must be reaped: {stats:?}"
    );
    assert!(
        counters.get("sessions_reaped").unwrap().as_u64().unwrap() >= 1,
        "the reap must be counted: {stats:?}"
    );

    // The reaped session is indistinguishable from a closed one: typed
    // schema error, connection stays up.
    let err = roundtrip(
        &mut stream,
        &format!(r#"{{"id":"r","type":"redecide","session":{session}}}"#),
    );
    assert_eq!(err.get("type").unwrap().as_str(), Some("error"));
    assert_eq!(
        err.get("error").unwrap().get("code").unwrap().as_str(),
        Some("schema")
    );
    drop(stream);
    server.stop();
}
