//! Chaos soak for `cqdet serve`: the real TCP server under concurrent
//! pipelined load, hostile clients (slow-loris, oversized lines, mid-request
//! disconnects, over-capacity floods) and — with `--features failpoints` —
//! panics/delays/errors injected at every request-reachable seam.
//!
//! Invariants asserted throughout:
//!
//! * the server never hangs (every test body runs under a watchdog);
//! * every request line is answered with a typed, versioned response —
//!   a connection is only ever dropped when the injected fault *is* the
//!   transport (`serve/conn/*` armed with `panic`);
//! * the shared session caches stay coherent: after the chaos, the server's
//!   answer to a reference instance is byte-identical to a fresh engine's;
//! * overload sheds with `resource_exhausted`, never with a silent close.

use cqdet::engine::Json;
use cqdet::service::{serve_tcp, Engine, Response, ServeOptions};
use cqdet_bench::chaos_workload;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A determined reference instance (q = v1·v2) and a not-determined one,
/// used for the post-chaos cache-coherence oracle.
const DETERMINED: &str = "v1() :- R(x,y)\\nv2() :- R(x,y), R(y,z)\\nq() :- R(x,y), R(u,w)";
const NOT_DETERMINED: &str =
    "v1() :- R(x,y)\\nv2() :- R(x,y), R(y,z)\\nq() :- R(x,y), R(y,z), R(z,w)";

/// The failpoint registry (and its env parse) is process-global, so the
/// chaos tests must not interleave: each locks this for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `body` on its own thread and panic if it neither finishes nor
/// panics within `secs` — the "never hangs" invariant, mechanized.
fn with_watchdog<F>(secs: u64, label: &str, body: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        // On Disconnected the body panicked before sending: join and
        // re-raise the body's own panic payload either way.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{label}: hung for {secs}s"),
    }
}

/// An in-process `serve_tcp` on an ephemeral port.
struct ChaosServer {
    engine: Arc<Engine>,
    addr: SocketAddr,
    handle: thread::JoinHandle<std::io::Result<u64>>,
}

impl ChaosServer {
    fn start(options: ServeOptions) -> ChaosServer {
        let engine = Arc::new(Engine::new());
        let server_engine = Arc::clone(&engine);
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            serve_tcp(&server_engine, "127.0.0.1:0", &options, move |addr| {
                let _ = tx.send(addr);
            })
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server ready within 10s");
        ChaosServer {
            engine,
            addr,
            handle,
        }
    }

    fn connect(&self) -> TcpStream {
        connect(self.addr)
    }

    /// Graceful end: a `shutdown` request must be acknowledged and the
    /// server thread must return.  Yields the total requests served.
    fn shutdown(self) -> u64 {
        let mut stream = self.connect();
        let ack = roundtrip(&mut stream, r#"{"id":"bye","type":"shutdown"}"#);
        assert_eq!(ack.get("type").unwrap().as_str(), Some("shutdown"));
        self.handle
            .join()
            .expect("server thread")
            .expect("serve_tcp result")
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to chaos server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// Read one newline-terminated response; panics on EOF (the strict reader,
/// for phases where a drop would be a bug).
fn read_response(stream: &mut TcpStream) -> Json {
    try_read_response(stream).expect("connection closed before a response arrived")
}

/// Read one newline-terminated response; `None` on EOF/reset (the tolerant
/// reader, for phases where the injected fault is the transport itself).
fn try_read_response(stream: &mut TcpStream) -> Option<Json> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("read timed out mid-response")
            }
            Err(_) => return None,
        }
    }
    Some(
        Json::parse(std::str::from_utf8(&line).expect("utf-8 response"))
            .expect("every response line is valid JSON"),
    )
}

fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

fn roundtrip(stream: &mut TcpStream, line: &str) -> Json {
    send_line(stream, line).expect("send request");
    read_response(stream)
}

/// A per-test snapshot path under the system temp dir (process-id-scoped
/// so parallel CI jobs cannot collide).
fn temp_snapshot_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cqdet-chaos-{tag}-{}.cqds", std::process::id()))
}

/// Pipeline `lines` in windows (write a window, then drain its responses):
/// windows keep both sides' socket buffers from deadlocking while still
/// exercising multi-request pipelining on every flush.
fn run_pipelined(addr: SocketAddr, lines: &[String], window: usize) -> Vec<Json> {
    let mut stream = connect(addr);
    let mut responses = Vec::with_capacity(lines.len());
    for chunk in lines.chunks(window) {
        for line in chunk {
            send_line(&mut stream, line).expect("pipeline request");
        }
        for _ in chunk {
            responses.push(read_response(&mut stream));
        }
    }
    responses
}

/// What the chaos workload's `i % 10` cycle must come back as.
fn assert_expected_shape(i: usize, response: &Json) {
    let ty = response.get("type").unwrap().as_str().unwrap();
    match i % 10 {
        0 | 1 => {
            assert_eq!(ty, "decide", "slot {i}: {response:?}");
            let status = response
                .get("record")
                .unwrap()
                .get("status")
                .unwrap()
                .as_str()
                .unwrap();
            assert!(
                status == "determined" || status == "not_determined",
                "slot {i}: {status}"
            );
        }
        2 => assert_eq!(ty, "batch", "slot {i}: {response:?}"),
        3 => assert_eq!(ty, "path", "slot {i}: {response:?}"),
        4 => assert_eq!(ty, "hilbert", "slot {i}: {response:?}"),
        5 => assert_eq!(ty, "stats", "slot {i}: {response:?}"),
        // A tiny fuel budget: either the work fit under it (cache hits make
        // small instances nearly free) or it's a typed resource_exhausted.
        6 => {
            if ty == "error" {
                let code = response
                    .get("error")
                    .unwrap()
                    .get("code")
                    .unwrap()
                    .as_str()
                    .unwrap();
                assert_eq!(code, "resource_exhausted", "slot {i}: {response:?}");
            } else {
                assert_eq!(ty, "decide", "slot {i}: {response:?}");
            }
        }
        7 => assert_eq!(ty, "timeout", "slot {i}: {response:?}"),
        8 => {
            assert_eq!(ty, "error", "slot {i}: {response:?}");
            let code = response
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str()
                .unwrap();
            assert_eq!(code, "parse", "slot {i}: {response:?}");
        }
        _ => {
            assert_eq!(ty, "error", "slot {i}: {response:?}");
            let code = response
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str()
                .unwrap();
            assert_eq!(code, "schema", "slot {i}: {response:?}");
        }
    }
}

/// The post-chaos cache-coherence oracle: the (possibly chaos-scarred)
/// server must answer the reference instances byte-identically to a fresh,
/// never-faulted engine.
fn assert_oracle_matches_clean_engine(addr: SocketAddr) {
    let clean = Engine::new();
    for (tag, program) in [("det", DETERMINED), ("ndet", NOT_DETERMINED)] {
        let line = format!(
            r#"{{"id":"oracle-{tag}","type":"decide","program":"{program}","witness":true}}"#
        );
        let mut stream = connect(addr);
        let chaotic = roundtrip(&mut stream, &line);
        let Some(Response::Decide { record, .. }) = cqdet::service::respond_to_line(&clean, &line)
        else {
            panic!("clean engine rejected the oracle instance")
        };
        assert_eq!(
            chaotic.get("record").unwrap().render(),
            record.to_json().render(),
            "post-chaos record for {tag} diverged from a clean engine"
        );
    }
}

/// A fresh-every-time decide whose gate stage must *refute* hom(K8, K7) —
/// a backtracking search over >10k candidate extensions (a hom that is
/// found early survives fuel exhaustion by design, so only a failing
/// search reliably burns steps).  Fresh relation names per `n` keep the
/// session caches cold, so the decide seams and `session/cache-insert`
/// are on-path for every probe.
fn uncached_decide_line(id: &str, n: u64, budget: Option<u64>) -> String {
    let clique = |name: String, k: usize| {
        let mut atoms = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    atoms.push(format!("E{n}(x{i},x{j})"));
                }
            }
        }
        format!("{name}() :- {}", atoms.join(", "))
    };
    let program = format!(
        "{}\n{}",
        clique(format!("v{n}"), 8),
        clique(format!("q{n}"), 7)
    );
    let budget = budget
        .map(|b| format!(r#","budget":{b}"#))
        .unwrap_or_default();
    format!(
        r#"{{"id":"{id}","type":"decide","program":{},"query":"q{n}"{budget}}}"#,
        Json::str(program).render()
    )
}

/// The baseline soak: ≥1k pipelined requests over concurrent connections,
/// with hostile clients interleaved, on the real TCP server.  No failpoint
/// feature required — this always runs in tier-1.
#[test]
fn chaos_soak_survives_hostile_load() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    with_watchdog(300, "chaos soak", || {
        let options = ServeOptions {
            // Small enough for the oversized client to trip cheaply, big
            // enough for every legitimate chaos-workload line.
            max_request_bytes: 1 << 20,
            // Room for every soak client at once even on a 1-core box (the
            // default cap scales with the core count); deliberate shedding
            // is covered by `over_capacity_connections_shed…` below.
            max_connections: 64,
            ..ServeOptions::default()
        };
        let server = ChaosServer::start(options);
        let addr = server.addr;
        let answered = AtomicU64::new(0);

        thread::scope(|scope| {
            // Four well-behaved (but demanding) clients: 250 pipelined
            // requests each from the ten-family chaos workload.
            let answered = &answered;
            for c in 0..4u64 {
                scope.spawn(move || {
                    let lines = chaos_workload(250, 0xC0FFEE ^ c);
                    let responses = run_pipelined(addr, &lines, 16);
                    assert_eq!(responses.len(), lines.len());
                    for (i, response) in responses.iter().enumerate() {
                        assert_expected_shape(i, response);
                    }
                    answered.fetch_add(responses.len() as u64, Ordering::Relaxed);
                });
            }
            // Slow-loris: one stats request dribbled a byte at a time.  The
            // server must neither hang on it nor drop it.
            scope.spawn(move || {
                let mut stream = connect(addr);
                for b in br#"{"id":"loris","type":"stats"}"#.iter() {
                    stream.write_all(&[*b]).unwrap();
                    stream.flush().unwrap();
                    thread::sleep(Duration::from_millis(2));
                }
                stream.write_all(b"\n").unwrap();
                stream.flush().unwrap();
                let response = read_response(&mut stream);
                assert_eq!(response.get("id").unwrap().as_str(), Some("loris"));
                assert_eq!(response.get("type").unwrap().as_str(), Some("stats"));
            });
            // Oversized line: 2 MiB with no newline must come back as one
            // typed resource_exhausted response, then a close — bounded
            // memory, no hang, no silent drop.
            scope.spawn(move || {
                let mut stream = connect(addr);
                let blob = vec![b'x'; 2 << 20];
                // The server closes after answering; a late write may race
                // that close, which is fine.
                let _ = stream.write_all(&blob);
                let _ = stream.flush();
                let response = read_response(&mut stream);
                assert_eq!(response.get("type").unwrap().as_str(), Some("error"));
                assert_eq!(
                    response.get("error").unwrap().get("code").unwrap().as_str(),
                    Some("resource_exhausted")
                );
                assert!(
                    try_read_response(&mut stream).is_none(),
                    "closed after shed"
                );
            });
            // Mid-request disconnects: half a request, then vanish.  The
            // server must shrug (and keep serving everyone else).
            for _ in 0..8 {
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    let _ = stream.write_all(br#"{"id":"ghost","type":"dec"#);
                    let _ = stream.flush();
                });
            }
        });
        assert_eq!(answered.load(Ordering::Relaxed), 1_000);

        // The tiny-fuel probe: a budget of 8 steps against an uncached
        // 6-atom query must shed inside the kernel, fast, with a typed
        // resource_exhausted carrying the ledger evidence.
        let mut stream = server.connect();
        let started = Instant::now();
        let response = roundtrip(
            &mut stream,
            &uncached_decide_line("fuel-probe", 7001, Some(8)),
        );
        let elapsed = started.elapsed();
        let error = response.get("error").expect("fuel probe yields an error");
        assert_eq!(
            error.get("code").unwrap().as_str(),
            Some("resource_exhausted")
        );
        assert!(error.get("spent").unwrap().as_u64().unwrap() > 8);
        assert_eq!(error.get("limit").unwrap().as_u64(), Some(8));
        // Generous CI bound; the release-build number (micros) goes in
        // EXPERIMENTS.md.
        assert!(
            elapsed < Duration::from_secs(2),
            "fuel shed took {elapsed:?}"
        );
        println!("tiny-fuel probe: resource_exhausted in {elapsed:?}");

        // Cache coherence after all of that.
        assert_oracle_matches_clean_engine(addr);

        // The stats counters saw the chaos: 100 expired deadlines (slot 7)
        // and the oversized client.
        let stats = roundtrip(&mut stream, r#"{"id":"s","type":"stats"}"#);
        let counters = stats.get("counters").expect("stats carries counters");
        assert!(counters.get("timeouts").unwrap().as_u64().unwrap() >= 100);
        assert!(
            counters
                .get("oversized_requests")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1
        );
        assert!(counters.get("fuel_exhausted").unwrap().as_u64().unwrap() >= 1);
        drop(stream);

        let served = server.shutdown();
        assert!(served >= 1_000, "served only {served} requests");
    });
}

/// Overload sheds with a typed response: a server capped at one connection
/// answers the second connection with `resource_exhausted` and closes it —
/// and the surviving connection still works.
#[test]
fn over_capacity_connections_shed_with_typed_response() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    with_watchdog(60, "shed test", || {
        let options = ServeOptions {
            max_connections: 1,
            ..ServeOptions::default()
        };
        let server = ChaosServer::start(options);

        let mut occupant = server.connect();
        // Make the occupant's handler definitely running (it answered).
        let first = roundtrip(&mut occupant, r#"{"id":"occ","type":"stats"}"#);
        assert_eq!(first.get("type").unwrap().as_str(), Some("stats"));

        // Extra connections beyond the cap are answered-and-closed.  The
        // accept loop races the handler spawn, so flood a few.
        let mut shed = 0;
        for _ in 0..10 {
            let mut extra = server.connect();
            // A `None` outcome means the socket closed before the response
            // write completed — the shed counter below still has to reach 1.
            if let Some(response) = try_read_response(&mut extra) {
                assert_eq!(
                    response.get("error").unwrap().get("code").unwrap().as_str(),
                    Some("resource_exhausted")
                );
                assert!(try_read_response(&mut extra).is_none());
                shed += 1;
            }
        }
        assert!(shed >= 1, "no connection was shed with a typed response");
        assert!(server.engine.counters().shed_connections >= shed);

        // The occupant is unharmed.
        let again = roundtrip(&mut occupant, r#"{"id":"occ2","type":"stats"}"#);
        assert_eq!(again.get("type").unwrap().as_str(), Some("stats"));
        drop(occupant);
        server.shutdown();
    });
}

/// The failpoint matrix: every request-reachable seam armed with every
/// action (delay, injected error, panic) while requests flow — plus a
/// concurrent background client hammering the ten-family workload the whole
/// time.  Compiled and run only with `--features failpoints`.
#[cfg(feature = "failpoints")]
#[test]
fn failpoint_matrix_every_seam_every_action() {
    use cqdet_failpoint::{clear_all, configure, hits, Action};

    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    clear_all();
    with_watchdog(300, "failpoint matrix", || {
        // A tiny cache budget keeps the `cache/evict` seam on-path: every
        // uncached probe's inserts overflow their shard budgets, so each
        // armed action fires inside a real eviction sweep.
        let server = ChaosServer::start(ServeOptions {
            cache_bytes: Some(64 << 10),
            ..ServeOptions::default()
        });
        let addr = server.addr;
        let stop = AtomicU64::new(0);

        thread::scope(|scope| {
            // Background load: reconnect-tolerant, because conn-seam panics
            // legitimately cost the connection they fire on.
            let stop = &stop;
            // If a matrix assertion below panics, the background client must
            // still be told to stop — otherwise the scope join would wait on
            // it forever and the real failure would surface as a hang.
            struct StopOnDrop<'a>(&'a AtomicU64);
            impl Drop for StopOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(1, Ordering::Relaxed);
                }
            }
            let _stop_guard = StopOnDrop(stop);
            let background = scope.spawn(move || {
                let lines = chaos_workload(200, 0xFA11);
                let mut stream = connect(addr);
                let mut answered = 0u64;
                for line in lines.iter().cycle() {
                    if stop.load(Ordering::Relaxed) != 0 {
                        break;
                    }
                    if send_line(&mut stream, line).is_err() {
                        stream = connect(addr);
                        continue;
                    }
                    match try_read_response(&mut stream) {
                        Some(_) => answered += 1,
                        None => stream = connect(addr),
                    }
                }
                answered
            });

            // The deterministic matrix.  Requests use fresh relation names
            // every time so the decide seams and the cache-insert seam are
            // on-path for each probe.
            let mut probe = connect(addr);
            let mut n = 0u64;
            for &seam in cqdet::service::failpoint_names() {
                if seam == "serve/shed" {
                    // Only fires on the admission shed path, which this
                    // under-budget probe never takes; the dedicated
                    // over-budget matrix below covers it.
                    continue;
                }
                if seam.starts_with("snapshot/") {
                    // Fires at boot/shutdown, not per request; the
                    // dedicated snapshot matrix below covers both seams.
                    continue;
                }
                if seam.starts_with("session/") {
                    // Fires only on the session request family, which this
                    // decide probe never sends; the dedicated session
                    // matrix below covers all three seams.
                    continue;
                }
                for action in [
                    Action::Delay(Duration::from_millis(2)),
                    Action::Err(format!("chaos injected at {seam}")),
                    Action::Panic,
                ] {
                    let is_conn_panic = seam.starts_with("serve/conn/") && action == Action::Panic;
                    println!("matrix: {seam} <- {action:?}");
                    configure(seam, action);
                    n += 1;
                    let line = uncached_decide_line(&format!("fp{n}"), n, None);
                    let outcome = match send_line(&mut probe, &line) {
                        Ok(()) => try_read_response(&mut probe),
                        Err(_) => None,
                    };
                    // Disarm before reconnecting: a fresh connection made
                    // while a conn-seam panic is still armed would die too.
                    let seam_hits = hits(seam);
                    cqdet_failpoint::clear(seam);
                    match outcome {
                        // Whatever the fault, the answer is a typed line:
                        // decide, error(internal), or error(resource…).
                        Some(response) => {
                            assert!(
                                response.get("type").unwrap().as_str().is_some(),
                                "{seam}: untyped response {response:?}"
                            );
                        }
                        // A dropped connection is only legitimate when the
                        // armed fault *is* the transport.
                        None => assert!(
                            is_conn_panic,
                            "{seam}: connection dropped without a typed response"
                        ),
                    }
                    if is_conn_panic {
                        // Even when the probe got its answer, the handler
                        // may have panicked on its *next* read poll — the
                        // connection is not trustworthy past this round.
                        probe = connect(addr);
                    }
                    assert!(seam_hits >= 1, "{seam}: seam never fired");
                }
            }
            clear_all();
            stop.store(1, Ordering::Relaxed);
            let answered = background.join().expect("background client");
            assert!(answered > 0, "background client starved");
        });

        // Panics were injected at 8 non-transport seams (and possibly at
        // the transport ones too): containment must have counted them.
        assert!(server.engine.counters().panics_contained >= 1);

        // And after all that, the caches still agree with a clean engine.
        assert_oracle_matches_clean_engine(addr);
        server.shutdown();
    });
}

/// The `serve/shed` seam under the full action matrix.  The generic matrix
/// above never goes over budget, so here the budget is forced to 1 and a
/// single pipelined write of three requests lands in one reactor tick:
/// the first is admitted, the rest are shed — and whatever fault is armed
/// on the shed path (delay, injected error, panic), every one of the three
/// still gets a typed response and the connection survives.
#[cfg(feature = "failpoints")]
#[test]
fn shed_seam_survives_fault_matrix() {
    use cqdet_failpoint::{clear, clear_all, configure, hits, Action};

    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    clear_all();
    with_watchdog(60, "shed seam matrix", || {
        let server = ChaosServer::start(ServeOptions {
            inflight_budget: 1,
            worker_threads: 1,
            ..ServeOptions::default()
        });
        let mut total_shed = 0u64;
        for action in [
            Action::Delay(Duration::from_millis(2)),
            Action::Err("chaos injected at serve/shed".into()),
            Action::Panic,
        ] {
            println!("shed matrix: serve/shed <- {action:?}");
            configure("serve/shed", action.clone());
            let mut stream = server.connect();
            let burst: String = (0..3)
                .map(|i| format!("{{\"id\":\"s{i}\",\"type\":\"stats\"}}\n"))
                .collect();
            stream.write_all(burst.as_bytes()).expect("send burst");
            stream.flush().expect("flush burst");
            let mut shed_here = 0u64;
            for i in 0..3 {
                let response = try_read_response(&mut stream)
                    .unwrap_or_else(|| panic!("response {i} dropped ({action:?})"));
                let ty = response.get("type").unwrap().as_str().expect("typed");
                match ty {
                    "stats" => {}
                    "error" => {
                        assert_eq!(
                            response.get("error").unwrap().get("code").unwrap().as_str(),
                            Some("resource_exhausted"),
                            "shed must surface as resource_exhausted"
                        );
                        shed_here += 1;
                    }
                    other => panic!("unexpected response type {other:?}"),
                }
            }
            let seam_hits = hits("serve/shed");
            clear("serve/shed");
            assert!(shed_here >= 1, "burst was never shed ({action:?})");
            assert!(seam_hits >= 1, "serve/shed seam never fired ({action:?})");
            total_shed += shed_here;
        }
        clear_all();
        assert!(server.engine.counters().shed_requests >= total_shed);
        // The shed counter is part of the public stats surface.
        let mut stream = server.connect();
        let stats = roundtrip(&mut stream, r#"{"id":"after","type":"stats"}"#);
        let counted = stats
            .get("counters")
            .unwrap()
            .get("shed_requests")
            .unwrap()
            .as_f64()
            .expect("shed_requests counter in stats");
        assert!(counted >= total_shed as f64, "stats undercounts sheds");
        drop(stream);
        server.shutdown();
    });
}

/// The three session seams (`session/open`, `session/mutate`,
/// `session/replay`) under the full action matrix, over the real TCP
/// server.  The invariant is atomicity: whatever fault fires mid-mutation,
/// the session is either **fully applied** or **fully rolled back** — never
/// a half-state.  Which of the two happened is read off the mutation's own
/// typed response, and a follow-up `redecide` must then agree
/// byte-for-byte with a fresh, never-faulted engine deciding exactly that
/// view set one-shot.
#[cfg(feature = "failpoints")]
#[test]
fn session_seams_survive_fault_matrix() {
    use cqdet_failpoint::{clear, clear_all, configure, hits, Action};

    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    clear_all();
    with_watchdog(180, "session seam matrix", || {
        let server = ChaosServer::start(ServeOptions::default());
        let mut stream = server.connect();

        // Disjoint-path-sum views (v_i = one path of each length 1..=i):
        // every view is its own iso class, removing the *first* view keeps
        // the coordinate order intact (its basis elements re-first-occur in
        // v2 in the same relative order), so `view_remove v1` walks the
        // in-place removal-repair path where `session/replay` is armed.
        let path_sum = |name: &str, upto: usize| {
            let mut atoms = Vec::new();
            for p in 1..=upto {
                for i in 0..p {
                    atoms.push(format!("E(p{p}x{i},p{p}x{})", i + 1));
                }
            }
            format!("{name}() :- {}", atoms.join(", "))
        };
        let defs: Vec<(String, String)> = (1..=4)
            .map(|i| (format!("v{i}"), path_sum(&format!("v{i}"), i)))
            .collect();
        let def_of = |name: &str| -> &str { &defs.iter().find(|(n, _)| n == name).unwrap().1 };
        let query = path_sum("q", 3);
        let program = |names: &[&str]| {
            let mut lines: Vec<&str> = names.iter().map(|n| def_of(n)).collect();
            lines.push(&query);
            lines.join("\n")
        };
        // The clean-engine oracle for a given view set, as wire-exact JSON.
        let oracle = |names: &[&str]| {
            let clean = Engine::new();
            let line = format!(
                r#"{{"id":"o","type":"decide","program":{},"witness":true}}"#,
                Json::str(program(names)).render()
            );
            let Some(Response::Decide { record, .. }) =
                cqdet::service::respond_to_line(&clean, &line)
            else {
                panic!("clean engine rejected the session oracle instance")
            };
            record.to_json().render()
        };
        let actions = || {
            [
                Action::Delay(Duration::from_millis(2)),
                Action::Err("chaos injected at a session seam".into()),
                Action::Panic,
            ]
        };

        // One long-lived session carried through every round; `current`
        // mirrors the view set the server must be holding.
        let opened = roundtrip(
            &mut stream,
            &format!(
                r#"{{"id":"open","type":"session_open","program":{}}}"#,
                Json::str(program(&["v1", "v2", "v3"])).render()
            ),
        );
        assert_eq!(opened.get("type").unwrap().as_str(), Some("session_open"));
        let sid = opened.get("session").unwrap().as_u64().unwrap();
        let redecide_line =
            format!(r#"{{"id":"rd","type":"redecide","session":{sid},"witness":true}}"#);
        let mut current: Vec<&str> = vec!["v1", "v2", "v3"];

        // `session/open`: a faulted open yields a fresh usable session
        // (Delay) or one typed error — never a half-registered slot.
        for action in actions() {
            println!("session matrix: session/open <- {action:?}");
            configure("session/open", action.clone());
            let response = roundtrip(
                &mut stream,
                &format!(
                    r#"{{"id":"fo","type":"session_open","program":{}}}"#,
                    Json::str(program(&["v1"])).render()
                ),
            );
            let seam_hits = hits("session/open");
            clear("session/open");
            assert!(seam_hits >= 1, "session/open never fired ({action:?})");
            match response.get("type").unwrap().as_str().unwrap() {
                "session_open" => {
                    let extra = response.get("session").unwrap().as_u64().unwrap();
                    let closed = roundtrip(
                        &mut stream,
                        &format!(r#"{{"id":"fc","type":"session_close","session":{extra}}}"#),
                    );
                    assert_eq!(closed.get("type").unwrap().as_str(), Some("session_close"));
                }
                "error" => assert_eq!(
                    response.get("error").unwrap().get("code").unwrap().as_str(),
                    Some("internal"),
                    "{response:?}"
                ),
                other => panic!("session/open under {action:?}: unexpected {other:?}"),
            }
        }

        // `session/mutate` over `view_add`, then `session/replay` over
        // `view_remove` (armed inside the echelon's removal repair).
        for (seam, is_remove) in [("session/mutate", false), ("session/replay", true)] {
            for action in actions() {
                println!("session matrix: {seam} <- {action:?}");
                // Warm the echelon so the mutation repairs in place (the
                // replay seam is only on-path when session state exists).
                let warm = roundtrip(&mut stream, &redecide_line);
                assert_eq!(warm.get("type").unwrap().as_str(), Some("redecide"));
                configure(seam, action.clone());
                let (line, expect_ty) = if is_remove {
                    (
                        format!(
                            r#"{{"id":"fm","type":"view_remove","session":{sid},"view":"v1"}}"#
                        ),
                        "view_remove",
                    )
                } else {
                    (
                        format!(
                            r#"{{"id":"fm","type":"view_add","session":{sid},"view":{}}}"#,
                            Json::str(def_of("v4").to_string()).render()
                        ),
                        "view_add",
                    )
                };
                let response = roundtrip(&mut stream, &line);
                let seam_hits = hits(seam);
                clear(seam);
                assert!(seam_hits >= 1, "{seam} never fired ({action:?})");
                let applied = match response.get("type").unwrap().as_str().unwrap() {
                    ty if ty == expect_ty => true,
                    "error" => {
                        assert_eq!(
                            response.get("error").unwrap().get("code").unwrap().as_str(),
                            Some("internal"),
                            "{response:?}"
                        );
                        false
                    }
                    other => panic!("{seam} under {action:?}: unexpected {other:?}"),
                };
                if applied {
                    if is_remove {
                        current.retain(|n| *n != "v1");
                    } else {
                        current.push("v4");
                    }
                    // The response's own view list must agree with the
                    // fully-applied set.
                    let listed: Vec<String> = response
                        .get("views")
                        .unwrap()
                        .as_arr()
                        .unwrap()
                        .iter()
                        .map(|v| v.as_str().unwrap().to_string())
                        .collect();
                    assert_eq!(listed, current, "half-applied view list");
                }
                // Atomicity oracle: the next redecide agrees byte-for-byte
                // with a clean engine on exactly the surviving view set.
                let after = roundtrip(&mut stream, &redecide_line);
                assert_eq!(
                    after.get("type").unwrap().as_str(),
                    Some("redecide"),
                    "{after:?}"
                );
                assert_eq!(
                    after.get("record").unwrap().render(),
                    oracle(&current),
                    "post-fault session diverged from a clean engine ({seam}, {action:?})"
                );
                // Undo the applied mutation (disarmed: must succeed) so
                // every round starts from the same three-view set.
                if applied {
                    let (undo, undo_ty) = if is_remove {
                        (
                            format!(
                                r#"{{"id":"um","type":"view_add","session":{sid},"view":{}}}"#,
                                Json::str(def_of("v1").to_string()).render()
                            ),
                            "view_add",
                        )
                    } else {
                        (
                            format!(
                                r#"{{"id":"um","type":"view_remove","session":{sid},"view":"v4"}}"#
                            ),
                            "view_remove",
                        )
                    };
                    let response = roundtrip(&mut stream, &undo);
                    assert_eq!(
                        response.get("type").unwrap().as_str(),
                        Some(undo_ty),
                        "{response:?}"
                    );
                    if is_remove {
                        current.push("v1");
                    } else {
                        current.retain(|n| *n != "v4");
                    }
                }
            }
        }

        clear_all();
        // Panics were injected at every seam; containment counted them, the
        // session survived them, and the shared caches are still coherent.
        assert!(server.engine.counters().panics_contained >= 1);
        let last = roundtrip(&mut stream, &redecide_line);
        assert_eq!(last.get("record").unwrap().render(), oracle(&current));
        assert_oracle_matches_clean_engine(server.addr);
        drop(stream);
        server.shutdown();
    });
}

/// The `snapshot/save` and `snapshot/load` seams under the full action
/// matrix.  These fire at shutdown and boot rather than per request, so the
/// generic matrix skips them and this scenario drives the lifecycle
/// directly: a fault while saving must never corrupt the previous snapshot
/// or hang shutdown, and a fault while loading must always yield a working
/// cold-start server.
#[cfg(feature = "failpoints")]
#[test]
fn snapshot_seams_survive_fault_matrix() {
    use cqdet_failpoint::{clear, clear_all, configure, hits, Action};

    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    clear_all();
    with_watchdog(180, "snapshot seam matrix", || {
        let path = temp_snapshot_path("seam-matrix");
        let _ = std::fs::remove_file(&path);
        let options = ServeOptions {
            snapshot_path: Some(path.clone()),
            ..ServeOptions::default()
        };

        // Seed a known-good snapshot via one warm run + graceful shutdown.
        let server = ChaosServer::start(options.clone());
        let mut stream = server.connect();
        let line = format!("{{\"id\":\"seed\",\"type\":\"decide\",\"program\":\"{DETERMINED}\"}}");
        let response = roundtrip(&mut stream, &line);
        assert_eq!(response.get("type").unwrap().as_str(), Some("decide"));
        drop(stream);
        server.shutdown();
        let good = std::fs::read(&path).expect("seed snapshot written");
        assert!(!good.is_empty(), "seed snapshot empty");

        let actions = || {
            [
                Action::Delay(Duration::from_millis(2)),
                Action::Err("chaos injected at snapshot seam".into()),
                Action::Panic,
            ]
        };

        // snapshot/save: shutdown must return under every action, and on
        // Err/Panic the seed snapshot survives byte-identical (the seam
        // aborts before the atomic tmp+rename ever starts).
        for action in actions() {
            println!("snapshot matrix: snapshot/save <- {action:?}");
            std::fs::write(&path, &good).expect("reseed snapshot");
            let server = ChaosServer::start(options.clone());
            assert_eq!(server.engine.counters().snapshot_loaded, 1);
            configure("snapshot/save", action.clone());
            let mut stream = server.connect();
            let response = roundtrip(&mut stream, &uncached_decide_line("save-probe", 8, None));
            assert_eq!(response.get("type").unwrap().as_str(), Some("decide"));
            drop(stream);
            server.shutdown();
            let seam_hits = hits("snapshot/save");
            clear("snapshot/save");
            assert!(seam_hits >= 1, "snapshot/save never fired ({action:?})");
            let on_disk = std::fs::read(&path).expect("snapshot file vanished");
            match action {
                // Delay still writes: the file must be a *fresh* valid
                // snapshot (it grew by the probe's frozen entries).
                Action::Delay(_) => assert!(!on_disk.is_empty()),
                // Err/Panic abort before the write: seed bytes intact.
                _ => assert_eq!(on_disk, good, "faulted save clobbered the snapshot"),
            }
            // Whatever is on disk, the next boot comes up warm and sane.
            let reboot = ChaosServer::start(options.clone());
            assert_eq!(reboot.engine.counters().snapshot_loaded, 1);
            assert_oracle_matches_clean_engine(reboot.addr);
            reboot.shutdown();
        }

        // snapshot/load: boot must always complete.  Err/Panic are counted
        // cold starts that still answer correctly; Delay is a warm start.
        for action in actions() {
            println!("snapshot matrix: snapshot/load <- {action:?}");
            std::fs::write(&path, &good).expect("reseed snapshot");
            configure("snapshot/load", action.clone());
            let server = ChaosServer::start(options.clone());
            let seam_hits = hits("snapshot/load");
            clear("snapshot/load");
            assert!(seam_hits >= 1, "snapshot/load never fired ({action:?})");
            let counters = server.engine.counters();
            match action {
                Action::Delay(_) => {
                    assert_eq!(counters.snapshot_loaded, 1, "delayed load must succeed");
                    assert_eq!(counters.snapshot_rejected, 0);
                }
                Action::Err(_) => {
                    assert_eq!(counters.snapshot_rejected, 1, "erred load must be counted");
                    assert_eq!(counters.snapshot_loaded, 0);
                }
                _ => {
                    assert_eq!(
                        counters.snapshot_rejected, 1,
                        "panicked load must be counted"
                    );
                    assert_eq!(counters.snapshot_loaded, 0);
                    assert!(counters.panics_contained >= 1, "load panic not contained");
                }
            }
            assert_oracle_matches_clean_engine(server.addr);
            server.shutdown();
        }

        clear_all();
        let _ = std::fs::remove_file(&path);
    });
}

/// Corruption on disk — a flipped byte or a truncated file — must never
/// panic the server or poison its answers: the snapshot is rejected with a
/// typed counter and the server cold-starts, agreeing with a clean engine.
/// This scenario needs no failpoints; it runs in every build.
#[test]
fn corrupted_snapshot_cold_starts_a_working_server() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    with_watchdog(120, "snapshot corruption", || {
        let path = temp_snapshot_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let options = ServeOptions {
            snapshot_path: Some(path.clone()),
            ..ServeOptions::default()
        };

        // Warm a server and shut down gracefully: the snapshot is written.
        let server = ChaosServer::start(options.clone());
        // A missing snapshot is an ordinary first boot, not a rejection.
        assert_eq!(server.engine.counters().snapshot_loaded, 0);
        assert_eq!(server.engine.counters().snapshot_rejected, 0);
        let mut stream = server.connect();
        for (tag, program) in [("det", DETERMINED), ("ndet", NOT_DETERMINED)] {
            let line =
                format!("{{\"id\":\"warm-{tag}\",\"type\":\"decide\",\"program\":\"{program}\"}}");
            let response = roundtrip(&mut stream, &line);
            assert_eq!(response.get("type").unwrap().as_str(), Some("decide"));
        }
        drop(stream);
        server.shutdown();
        let good = std::fs::read(&path).expect("snapshot written at graceful shutdown");
        assert!(
            !good.is_empty(),
            "graceful shutdown wrote an empty snapshot"
        );

        // A pristine reboot loads it.
        let server = ChaosServer::start(options.clone());
        assert_eq!(server.engine.counters().snapshot_loaded, 1);
        assert_oracle_matches_clean_engine(server.addr);
        server.shutdown();

        // Flip one payload byte: checksum rejects it, the server cold-starts,
        // and the rejection rides the public stats surface.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).expect("plant flipped snapshot");
        let server = ChaosServer::start(options.clone());
        assert_eq!(server.engine.counters().snapshot_rejected, 1);
        assert_eq!(server.engine.counters().snapshot_loaded, 0);
        assert_oracle_matches_clean_engine(server.addr);
        let mut stream = server.connect();
        let stats = roundtrip(&mut stream, r#"{"id":"after-flip","type":"stats"}"#);
        let rejected = stats
            .get("counters")
            .unwrap()
            .get("snapshot_rejected")
            .unwrap()
            .as_f64()
            .expect("snapshot_rejected counter in stats");
        assert_eq!(rejected, 1.0, "rejection missing from stats surface");
        drop(stream);
        server.shutdown();

        // That shutdown rewrote a *good* snapshot; now truncate it.
        std::fs::write(&path, &good[..good.len() / 3]).expect("plant truncated snapshot");
        let server = ChaosServer::start(options.clone());
        assert_eq!(server.engine.counters().snapshot_rejected, 1);
        assert_eq!(server.engine.counters().snapshot_loaded, 0);
        assert_oracle_matches_clean_engine(server.addr);
        server.shutdown();

        let _ = std::fs::remove_file(&path);
    });
}
