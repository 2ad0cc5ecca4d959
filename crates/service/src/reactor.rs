//! The event-driven TCP core: one reactor thread owning *all* connection
//! I/O, feeding a fixed worker pool through a bounded queue.
//!
//! ```text
//!             ┌────────────────────────── reactor thread ──────────────────────────┐
//!   accept ──▶│ register conn (nonblocking)                                        │
//!             │   │                                                                │
//!   bytes  ──▶│ FrameBuffer ──frames──▶ admission ──┬─ admit ─▶ pending (per conn) │
//!             │                  (in-flight budget) └─ shed ──▶ typed error        │
//!             │                                                                    │
//!             │ round-robin dispatch ──▶ [BoundedQueue] ──▶ workers (render_line)  │
//!             │                                                  │                 │
//!             │ in-order reorder (seq) ◀── completions ◀─────────┘                 │
//!             │   │                                                                │
//!   socket ◀──│ write buffer (nonblocking flush, backpressure above high-water)    │
//!             └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Invariants the tests pin down:
//!
//! * **Typed, ordered, never dropped.**  Every admitted or shed frame gets
//!   exactly one response line, written in request order per connection
//!   (the `seq`-keyed reorder map), including frames shed by admission
//!   control — a client over budget reads `resource_exhausted`, it never
//!   hangs.
//! * **Fairness.**  Dispatch takes at most one pending request per
//!   connection per pass, cycling the starting connection, and the job
//!   queue is deliberately shallow — a 1000-deep pipeliner therefore leads
//!   a single-request client by at most (queue depth + workers + one
//!   round) at the wire, not by its whole pipeline.
//! * **Admission is per-tick deterministic.**  `in_flight` is incremented
//!   at admission and decremented when the reactor *collects* a
//!   completion, so all frames extracted in one tick see one consistent
//!   budget — a pipelined burst of k frames under budget b yields exactly
//!   `min(k, b - in_flight)` admissions, whatever the workers race to.
//! * **Containment.**  A panic in a per-connection I/O phase (`serve/conn/
//!   read`, `serve/conn/write`) costs that one connection; a panic at a
//!   reactor seam (`serve/poll`, `serve/dispatch`, `serve/shed`) costs at
//!   most one *request* (typed internal error) and never the loop.

use crate::engine::Engine;
use crate::error::CqdetError;
use crate::frame::{FrameBuffer, FrameError};
use crate::response::Response;
use crate::serve::{boot_engine, persist_engine, reject_connection, render_line, ServeOptions};
use cqdet_engine::Json;
use cqdet_failpoint::fail_point;
use cqdet_parallel::pool::{BoundedQueue, TryPushError};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long the reactor parks when a full tick made no progress.  Worker
/// completions interrupt the park via condvar; only *new client bytes*
/// must wait for it, so this bounds added idle latency, not throughput.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// Most bytes one connection may feed the framer per tick: a firehosing
/// pipeliner gets its surplus left in the kernel buffer while the reactor
/// visits everyone else.
const READ_BYTES_PER_TICK: usize = 64 * 1024;

/// Above this many unflushed response bytes, a connection stops being
/// *read* (backpressure): a client that sends but never receives cannot
/// grow our buffers without bound.
const WRITE_HIGH_WATER: usize = 1 << 20;

/// A framed request on its way to the pool, tagged with its reorder slot.
struct Job {
    conn: u64,
    seq: u64,
    line: String,
}

/// A finished request on its way back: `render_line`'s verdict (`None`
/// for blank lines), plus the shutdown flag.
struct Done {
    conn: u64,
    seq: u64,
    rendered: Option<(String, bool)>,
}

/// Completion channel: workers push, the reactor drains; the condvar is
/// the reactor's wakeup so completions never wait out a full idle tick.
struct Completions {
    done: Mutex<Vec<Done>>,
    wake: Condvar,
}

impl Completions {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Done>> {
        self.done.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, done: Done) {
        self.lock().push(done);
        self.wake.notify_all();
    }
}

/// What occupies a response slot while it waits its turn at the wire.
enum Slot {
    /// Blank line: consumes the sequence number, emits nothing.
    Nothing,
    /// A rendered response line; `bool` is the shutdown flag.
    Line(String, bool),
}

/// Per-connection state machine.  Lifecycle:
/// `reading ──(EOF | oversized | shutdown-drain)──▶ reads-closed
/// ──(all slots written & flushed)──▶ torn down`.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Next sequence number to assign to an extracted frame.
    next_seq: u64,
    /// Next sequence number to promote to the write buffer.
    next_write: u64,
    /// Admitted frames waiting for a dispatch slot.
    pending: VecDeque<(u64, String)>,
    /// Admitted frames dispatched but not yet collected.
    outstanding: usize,
    /// Out-of-order completion parking lot, promoted in `seq` order.
    ready: BTreeMap<u64, Slot>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// No more bytes will be read (client EOF, oversized trip, drain).
    reads_closed: bool,
    /// The unterminated tail (if any) was already admitted — only ever
    /// done on a true client EOF.
    tail_taken: bool,
    /// Close as soon as the slot with this seq has been flushed, dropping
    /// any later work (shutdown ack / oversized error semantics).
    close_after: Option<u64>,
    /// I/O failed or a conn-level seam panicked: tear down without flush.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_request_bytes: usize) -> Conn {
        Conn {
            stream,
            frames: FrameBuffer::new(max_request_bytes),
            next_seq: 0,
            next_write: 0,
            pending: VecDeque::new(),
            outstanding: 0,
            ready: BTreeMap::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            reads_closed: false,
            tail_taken: false,
            close_after: None,
            dead: false,
        }
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Fully served: nothing pending, in flight, parked or unflushed.
    fn drained(&self) -> bool {
        self.pending.is_empty()
            && self.outstanding == 0
            && self.ready.is_empty()
            && self.unflushed() == 0
    }
}

/// Run a closure that may host an armed failpoint; a panic is contained
/// and counted, never propagated into the reactor loop.  Returns whether
/// a panic was caught, so seam-specific recovery can run.
fn contained(engine: &Engine, f: impl FnOnce()) -> bool {
    let panicked = catch_unwind(AssertUnwindSafe(f)).is_err();
    if panicked {
        engine.note_panic_contained();
    }
    panicked
}

/// Best-effort id echo for responses produced without dispatching (shed,
/// oversized): parse only if the line is small — the whole point of
/// shedding is refusing work, so never JSON-parse a megabyte to refuse it.
fn cheap_request_id(line: &str) -> Option<String> {
    if line.len() > 4096 {
        return None;
    }
    Json::parse(line)
        .ok()?
        .get("id")
        .and_then(Json::as_str)
        .map(str::to_string)
}

fn rendered_error(id: Option<String>, error: CqdetError) -> String {
    Response::Error { id, error }.to_json().render()
}

/// The event-driven implementation behind [`crate::serve::serve_tcp`].
pub(crate) fn serve_tcp_reactor<F: FnOnce(SocketAddr)>(
    engine: &Engine,
    addr: &str,
    options: &ServeOptions,
    on_ready: F,
) -> io::Result<u64> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    boot_engine(engine, options);
    on_ready(listener.local_addr()?);

    let workers = if options.worker_threads == 0 {
        cqdet_parallel::max_parallelism()
    } else {
        options.worker_threads
    }
    .max(1);
    // Bounded on purpose: the queue is a dispatch conduit, not a backlog —
    // fairness comes from round-robin *dispatch order*, so the backlog
    // stays in the per-connection pending queues where round-robin can see
    // it, and anything already queued is RR-interleaved.  The floor of 64
    // lets workers drain in batches instead of condvar ping-pong per job
    // (on one core that handoff otherwise dominates cheap requests), while
    // still bounding how far dispatch runs ahead of admission.
    let jobs: BoundedQueue<Job> = BoundedQueue::new((workers * 2 + 2).max(64));
    let completions = Completions {
        done: Mutex::new(Vec::new()),
        wake: Condvar::new(),
    };

    let mut served = 0u64;
    let mut fatal: Option<io::Error> = None;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (jobs, completions) = (&jobs, &completions);
            scope.spawn(move || {
                while let Some(job) = jobs.pop() {
                    // render_line contains panics from every layer below
                    // it; a worker thread itself never unwinds.
                    let rendered = render_line(engine, &job.line);
                    completions.push(Done {
                        conn: job.conn,
                        seq: job.seq,
                        rendered,
                    });
                }
            });
        }

        let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
        let mut next_conn_id = 0u64;
        let mut in_flight = 0usize;
        let mut rr_offset = 0usize;
        let mut accept_retries: u32 = 0;
        let mut accept_after: Option<Instant> = None;

        loop {
            let mut progress = false;
            // Reactor heartbeat seam: an armed panic here must cost the
            // tick's seam evaluation, never the loop.
            let _ = contained(engine, || fail_point!("serve/poll"));

            let draining = engine.shutdown_requested() || fatal.is_some();

            // ── Collect completions ───────────────────────────────────
            let batch: Vec<Done> = std::mem::take(&mut *completions.lock());
            for done in batch {
                progress = true;
                in_flight -= 1;
                // The connection may be gone (torn down after a shutdown
                // ack or an I/O error); the budget slot is freed anyway.
                if let Some(conn) = conns.get_mut(&done.conn) {
                    conn.outstanding -= 1;
                    let slot = match done.rendered {
                        None => Slot::Nothing,
                        Some((line, shutdown)) => Slot::Line(line, shutdown),
                    };
                    conn.ready.insert(done.seq, slot);
                }
            }

            // ── Read + frame + admit ──────────────────────────────────
            let ids: Vec<u64> = conns.keys().copied().collect();
            for &id in &ids {
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                if conn.dead || conn.reads_closed && conn.tail_taken {
                    continue;
                }
                if draining {
                    // Shutdown drain: answer what was already framed, but
                    // read no further and (matching the blocking
                    // transport) leave an unterminated tail unanswered.
                    conn.reads_closed = true;
                    conn.tail_taken = true;
                    continue;
                }
                if conn.unflushed() >= WRITE_HIGH_WATER {
                    continue; // backpressure: catch up on writes first
                }
                let mut read_this_tick = 0usize;
                let mut saw_eof = false;
                let mut chunk = [0u8; 8192];
                // The read seam and the socket read share containment: an
                // armed panic tears down this connection only.
                let mut io_panic = false;
                while !conn.reads_closed && read_this_tick < READ_BYTES_PER_TICK {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        fail_point!("serve/conn/read");
                        conn.stream.read(&mut chunk)
                    }));
                    match outcome {
                        Err(_) => {
                            engine.note_panic_contained();
                            io_panic = true;
                            break;
                        }
                        Ok(Ok(0)) => {
                            saw_eof = true;
                            break;
                        }
                        Ok(Ok(n)) => {
                            read_this_tick += n;
                            progress = true;
                            conn.frames.push(&chunk[..n]);
                        }
                        Ok(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Ok(Err(e)) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Ok(Err(_)) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                if io_panic {
                    conn.dead = true;
                    continue;
                }
                if conn.dead {
                    continue;
                }
                // Extract everything framable, admitting or shedding each.
                loop {
                    match conn.frames.next_frame() {
                        Ok(Some(line)) => {
                            progress = true;
                            admit(engine, conn, line, &mut in_flight, options);
                        }
                        Ok(None) => break,
                        Err(FrameError::Oversized { max_bytes }) => {
                            progress = true;
                            engine.note_oversized_request();
                            let seq = conn.next_seq;
                            conn.next_seq += 1;
                            conn.ready.insert(
                                seq,
                                Slot::Line(
                                    rendered_error(
                                        None,
                                        CqdetError::resource(format!(
                                            "request line exceeds {max_bytes} bytes"
                                        )),
                                    ),
                                    false,
                                ),
                            );
                            conn.reads_closed = true;
                            conn.tail_taken = true;
                            conn.close_after = Some(seq);
                            break;
                        }
                    }
                }
                if saw_eof && !conn.reads_closed {
                    conn.reads_closed = true;
                    if !conn.tail_taken {
                        conn.tail_taken = true;
                        // A final request without its newline still gets
                        // an answer — but only on a true EOF.
                        if let Some(line) = conn.frames.finish() {
                            progress = true;
                            admit(engine, conn, line, &mut in_flight, options);
                        }
                    }
                }
            }

            // ── Round-robin dispatch ──────────────────────────────────
            let ids: Vec<u64> = conns.keys().copied().collect();
            if !ids.is_empty() {
                rr_offset = (rr_offset + 1) % ids.len();
                let mut queue_full = false;
                loop {
                    let mut dispatched = false;
                    for i in 0..ids.len() {
                        let id = ids[(rr_offset + i) % ids.len()];
                        let Some(conn) = conns.get_mut(&id) else {
                            continue;
                        };
                        let Some((seq, line)) = conn.pending.pop_front() else {
                            continue;
                        };
                        // Dispatch seam: an armed panic costs this one
                        // request (typed internal error), not the loop.
                        if contained(engine, || fail_point!("serve/dispatch")) {
                            conn.outstanding -= 1;
                            in_flight -= 1;
                            conn.ready.insert(
                                seq,
                                Slot::Line(
                                    rendered_error(
                                        None,
                                        CqdetError::internal("dispatch seam panicked"),
                                    ),
                                    false,
                                ),
                            );
                            dispatched = true;
                            progress = true;
                            continue;
                        }
                        match jobs.try_push(Job {
                            conn: id,
                            seq,
                            line,
                        }) {
                            Ok(()) => {
                                dispatched = true;
                                progress = true;
                            }
                            Err(TryPushError::Full(job)) | Err(TryPushError::Closed(job)) => {
                                conn.pending.push_front((job.seq, job.line));
                                queue_full = true;
                                break;
                            }
                        }
                    }
                    if !dispatched || queue_full {
                        break;
                    }
                }
            }

            // ── Promote + write + teardown ────────────────────────────
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in ids {
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                // Promote contiguous completed slots to the wire, in seq
                // order; stop at the close-after slot — later work on a
                // connection that asked to shut down is dropped.
                while let Some(slot) = conn.ready.remove(&conn.next_write) {
                    let seq = conn.next_write;
                    conn.next_write += 1;
                    match slot {
                        Slot::Nothing => {}
                        Slot::Line(line, shutdown) => {
                            conn.write_buf.extend_from_slice(line.as_bytes());
                            conn.write_buf.push(b'\n');
                            served += 1;
                            if shutdown {
                                conn.close_after = Some(seq);
                            }
                        }
                    }
                    if conn.close_after == Some(seq) {
                        break;
                    }
                }
                if conn.unflushed() > 0 && !conn.dead {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        fail_point!("serve/conn/write");
                        loop {
                            let buf = &conn.write_buf[conn.write_pos..];
                            if buf.is_empty() {
                                return Ok(());
                            }
                            match conn.stream.write(buf) {
                                Ok(0) => {
                                    return Err(io::Error::new(
                                        io::ErrorKind::WriteZero,
                                        "connection write returned 0",
                                    ))
                                }
                                Ok(n) => conn.write_pos += n,
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                Err(e) => return Err(e),
                            }
                        }
                    }));
                    match outcome {
                        Err(_) => {
                            engine.note_panic_contained();
                            conn.dead = true;
                        }
                        Ok(Err(_)) => conn.dead = true,
                        Ok(Ok(())) => {
                            if conn.write_pos > 0 {
                                progress = true;
                            }
                            if conn.write_pos == conn.write_buf.len() {
                                conn.write_buf.clear();
                                conn.write_pos = 0;
                            } else if conn.write_pos > 64 * 1024 {
                                conn.write_buf.drain(..conn.write_pos);
                                conn.write_pos = 0;
                            }
                        }
                    }
                }
                let close_flushed = conn
                    .close_after
                    .is_some_and(|seq| conn.next_write > seq && conn.unflushed() == 0);
                let eof_drained = conn.reads_closed && conn.tail_taken && conn.drained();
                if conn.dead || close_flushed || eof_drained {
                    // Admitted-but-never-dispatched frames die with the
                    // connection; free their budget slots.  Dispatched
                    // ones release theirs when collected above.
                    in_flight -= conn.pending.len();
                    conns.remove(&id);
                    progress = true;
                }
            }

            // ── Exit or park ──────────────────────────────────────────
            // ── Accept ────────────────────────────────────────────────
            // Last phase on purpose: EOF teardown above must release the
            // connection slot *before* the capacity check sees a SYN that
            // arrived after the FIN.
            if !draining && accept_after.is_none_or(|t| Instant::now() >= t) {
                accept_after = None;
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            accept_retries = 0;
                            progress = true;
                            if conns.len() >= options.max_connections {
                                engine.note_shed_connection();
                                let _ = reject_connection(stream);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let id = next_conn_id;
                            next_conn_id += 1;
                            conns.insert(id, Conn::new(stream, options.max_request_bytes));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::Interrupted
                                    | io::ErrorKind::ConnectionAborted
                                    | io::ErrorKind::ConnectionReset
                            ) =>
                        {
                            // Transient (peer aborted mid-handshake): back
                            // off the *accept phase* without blocking the
                            // reactor — connections keep being served.
                            accept_retries = accept_retries.saturating_add(1);
                            engine.note_accept_retry();
                            let exp = Duration::from_millis(
                                1u64 << accept_retries.min(10).saturating_sub(1),
                            );
                            accept_after =
                                Some(Instant::now() + exp.min(options.accept_backoff_max));
                            break;
                        }
                        Err(e) => {
                            // Fatal listener error: stop accepting, drain
                            // what's in the house, then surface the error.
                            engine.request_shutdown();
                            if fatal.is_none() {
                                fatal = Some(e);
                            }
                            break;
                        }
                    }
                }
            }

            // Stray jobs for torn-down connections still hold budget
            // slots; keep collecting until the pool is quiet before
            // leaving the loop.
            if draining && conns.is_empty() && in_flight == 0 {
                break;
            }
            if !progress {
                let guard = completions.lock();
                if guard.is_empty() {
                    let _ = completions
                        .wake
                        .wait_timeout(guard, IDLE_WAIT)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        jobs.close();
    });

    persist_engine(engine, options);
    match fatal {
        Some(e) => Err(e),
        None => Ok(served),
    }
}

/// Admission control: under budget the frame joins the connection's
/// pending queue; at or over budget it is *shed* — answered immediately
/// with the typed `resource_exhausted` error in its own response slot, so
/// the client sees a well-formed, correctly ordered refusal.
fn admit(
    engine: &Engine,
    conn: &mut Conn,
    line: String,
    in_flight: &mut usize,
    options: &ServeOptions,
) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    if line.trim().is_empty() {
        // Blank lines produce no response but must consume a slot to keep
        // the reorder bookkeeping dense.
        conn.ready.insert(seq, Slot::Nothing);
        return;
    }
    if *in_flight >= options.inflight_budget {
        let _ = contained(engine, || fail_point!("serve/shed"));
        engine.note_shed_request();
        let id = cheap_request_id(&line);
        conn.ready.insert(
            seq,
            Slot::Line(
                rendered_error(
                    id,
                    CqdetError::resource(format!(
                        "in-flight request budget ({} in flight; retry later)",
                        options.inflight_budget
                    )),
                ),
                false,
            ),
        );
        return;
    }
    *in_flight += 1;
    conn.outstanding += 1;
    conn.pending.push_back((seq, line));
}
