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
//! The reactor thread blocks only in `poll(2)`, and only after a tick that
//! made no progress.  The poll set holds the listener, every connection
//! with an interest (readable while reading is allowed, writable while
//! response bytes are unflushed) and the read end of a wake socket: a
//! worker writes one byte there after each completion, and
//! [`Engine::request_shutdown`] writes one too, so finished work and a
//! programmatic shutdown end the wait at once.  The wait has no timeout
//! unless an accept backoff is pending: an idle server sleeps.
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
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use cqdet_engine::Json;
use cqdet_failpoint::fail_point;
use cqdet_parallel::pool::{BoundedQueue, TryPushError};
use std::collections::{BTreeMap, VecDeque};
use std::ffi::c_short;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

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

/// Completion channel: workers push, the reactor takes.  Each push also
/// writes one byte to the wake socket, whose read end is in the reactor's
/// poll set, so a completion never waits out an idle poll.
struct Completions {
    done: Mutex<Vec<Done>>,
    wake: UnixStream,
}

impl Completions {
    /// The channel and the read end of its wake socket.
    fn new() -> io::Result<(Completions, UnixStream)> {
        let (wake_rx, wake) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        let done = Mutex::new(Vec::new());
        Ok((Completions { done, wake }, wake_rx))
    }

    fn push(&self, done: Done) {
        self.done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(done);
        // `WouldBlock` means the socket is full of wakeups already.
        let _ = (&self.wake).write(&[1]);
    }

    fn take(&self) -> Vec<Done> {
        std::mem::take(&mut *self.done.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Empty the wake socket.  The reactor calls this *before*
/// [`Completions::take`]: a completion pushed after the take wrote its
/// byte after the drain, so the next poll sees it and no wakeup is lost.
fn drain_wakeups(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    // A short read emptied the socket; a byte that lands after it only
    // costs one spurious tick.
    while matches!((&*wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
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

    /// Reading is allowed: open, not closed for reads, and below the
    /// write high-water mark (backpressure).
    fn reading(&self) -> bool {
        !self.dead && !self.reads_closed && self.unflushed() < WRITE_HIGH_WATER
    }

    /// The `poll` events this connection waits for.  `0` leaves it out of
    /// the poll set: a hung-up peer whose answers are still being computed
    /// would otherwise report readable (EOF) forever and spin the loop.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if self.reading() {
            events |= POLLIN;
        }
        if !self.dead && self.unflushed() > 0 {
            events |= POLLOUT;
        }
        events
    }

    /// Fully served: nothing pending, in flight, parked or unflushed.
    fn drained(&self) -> bool {
        self.pending.is_empty()
            && self.outstanding == 0
            && self.ready.is_empty()
            && self.unflushed() == 0
    }

    /// The peer hung up and nothing is buffered or owed: the next tick's
    /// read and teardown phases would remove this connection without
    /// writing a byte.  Peeks, so a connection that is not hung up keeps
    /// its bytes for the read phase.
    fn hung_up_idle(&self) -> bool {
        self.reading()
            && self.drained()
            && self.frames.buffered() == 0
            && matches!(self.stream.peek(&mut [0u8; 1]), Ok(0))
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
    Response::Error { id, error }.render()
}

/// The round-robin dispatcher: each pass offers the sink at most one
/// frame per connection per round, starting one connection later than the
/// previous pass, and keeps going round until the queues are empty or the
/// sink is full.  A 1000-deep pipeline therefore delays another
/// connection's frame by at most one round.
#[derive(Default)]
struct RoundRobin {
    start: usize,
}

impl RoundRobin {
    /// One dispatch pass over the per-connection pending queues, in
    /// connection order.  `sink(conn, frame)` either takes the frame or
    /// hands it back (queue full): then the frame goes back to the front
    /// of its queue and the pass stops.  Returns how many frames the sink
    /// took.
    fn pass<T>(
        &mut self,
        queues: &mut [(u64, &mut VecDeque<T>)],
        mut sink: impl FnMut(u64, T) -> Result<(), T>,
    ) -> usize {
        if queues.is_empty() {
            return 0;
        }
        self.start = (self.start + 1) % queues.len();
        let mut taken = 0;
        loop {
            let before = taken;
            for i in 0..queues.len() {
                let (conn, queue) = &mut queues[(self.start + i) % queues.len()];
                let Some(frame) = queue.pop_front() else {
                    continue;
                };
                match sink(*conn, frame) {
                    Ok(()) => taken += 1,
                    Err(frame) => {
                        queue.push_front(frame);
                        return taken;
                    }
                }
            }
            if taken == before {
                return taken;
            }
        }
    }
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
    let (completions, wake_rx) = Completions::new()?;
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
    let waker = engine.add_waker(&completions.wake)?;

    let mut served = 0u64;
    let mut fatal: Option<io::Error> = None;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (jobs, completions) = (&jobs, &completions);
            scope.spawn(move || {
                while let Some(job) = jobs.pop() {
                    // The whole request runs on this worker.  render_line
                    // contains panics from every layer below it; a worker
                    // thread itself never unwinds.
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
        let mut round_robin = RoundRobin::default();
        let mut accept_retries: u32 = 0;
        let mut accept_after: Option<Instant> = None;
        let mut poll_set: Vec<PollFd> = Vec::new();

        loop {
            let mut progress = false;
            // Reactor heartbeat seam: an armed panic here must cost the
            // tick's seam evaluation, never the loop.
            let _ = contained(engine, || fail_point!("serve/poll"));

            // Drain before reading the shutdown flag: a flag raised after
            // the read left its wake byte behind for the next poll.
            drain_wakeups(&wake_rx);
            let draining = engine.shutdown_requested() || fatal.is_some();

            // ── Collect completions ───────────────────────────────────
            for done in completions.take() {
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
                if draining {
                    // Shutdown drain: answer what was already framed, but
                    // read no further and (matching the blocking
                    // transport) leave an unterminated tail unanswered.
                    conn.reads_closed = true;
                    conn.tail_taken = true;
                    continue;
                }
                if !conn.reading() {
                    continue; // closed, or backpressure: catch up on writes
                }
                let mut read_this_tick = 0usize;
                let mut saw_eof = false;
                let mut chunk = [0u8; 8192];
                // The read seam and the socket read share containment: an
                // armed panic tears down this connection only.
                let mut io_panic = false;
                while read_this_tick < READ_BYTES_PER_TICK {
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
            let mut seam_failed: Vec<(u64, u64)> = Vec::new();
            let mut queues: Vec<(u64, &mut VecDeque<(u64, String)>)> = conns
                .iter_mut()
                .map(|(&id, conn)| (id, &mut conn.pending))
                .collect();
            let dispatched = round_robin.pass(&mut queues, |conn, (seq, line)| {
                // Dispatch seam: an armed panic costs this one request
                // (typed internal error below), not the loop.
                if contained(engine, || fail_point!("serve/dispatch")) {
                    seam_failed.push((conn, seq));
                    return Ok(());
                }
                jobs.try_push(Job { conn, seq, line }).map_err(|e| match e {
                    TryPushError::Full(job) | TryPushError::Closed(job) => (job.seq, job.line),
                })
            });
            progress |= dispatched > 0;
            for (id, seq) in seam_failed {
                in_flight -= 1;
                if let Some(conn) = conns.get_mut(&id) {
                    conn.outstanding -= 1;
                    conn.ready.insert(
                        seq,
                        Slot::Line(
                            rendered_error(None, CqdetError::internal("dispatch seam panicked")),
                            false,
                        ),
                    );
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

            // ── Accept ────────────────────────────────────────────────
            // A slot freed by a client that hung up must be free for the
            // client's next connection.  The FIN can land after this
            // tick's read phase and still precede the SYN accepted here,
            // so at the cap the idle hung-up connections are reaped (once
            // per tick) before anything is shed.
            if !draining && accept_after.is_none_or(|t| Instant::now() >= t) {
                accept_after = None;
                let mut reaped = false;
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            accept_retries = 0;
                            progress = true;
                            if conns.len() >= options.max_connections && !reaped {
                                reaped = true;
                                conns.retain(|_, conn| !conn.hung_up_idle());
                            }
                            if conns.len() >= options.max_connections {
                                engine.note_shed_connection();
                                let _ = reject_connection(stream);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            // Responses are whole lines written at once;
                            // Nagle would hold a small answer back until
                            // the client's next request acknowledges the
                            // previous segment.
                            let _ = stream.set_nodelay(true);
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

            // ── Exit or wait ──────────────────────────────────────────
            // Stray jobs for torn-down connections still hold budget
            // slots; keep collecting until the pool is quiet before
            // leaving the loop.
            if draining && conns.is_empty() && in_flight == 0 {
                break;
            }
            if !progress {
                poll_set.clear();
                poll_set.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
                if !draining && accept_after.is_none() {
                    poll_set.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                }
                for conn in conns.values() {
                    let events = conn.interest();
                    if events != 0 {
                        poll_set.push(PollFd::new(conn.stream.as_raw_fd(), events));
                    }
                }
                // Sockets, completions and `Engine::request_shutdown` end
                // the wait through the poll set; only a pending accept
                // backoff needs a clock.
                let backoff = accept_after
                    .filter(|_| !draining)
                    .map(|t| t.saturating_duration_since(Instant::now()));
                if sys::wait(&mut poll_set, backoff).is_err() {
                    // Unreachable with valid descriptors; never spin.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        jobs.close();
    });
    engine.remove_waker(waker);

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

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that takes `room` frames, then hands every further one
    /// back; `log` records the offers it took, `offers` counts them all.
    struct Sink {
        room: usize,
        log: Vec<(u64, String)>,
        offers: usize,
    }

    impl Sink {
        fn new(room: usize) -> Sink {
            Sink {
                room,
                log: Vec::new(),
                offers: 0,
            }
        }

        fn offer(&mut self, conn: u64, frame: String) -> Result<(), String> {
            self.offers += 1;
            if self.log.len() == self.room {
                return Err(frame);
            }
            self.log.push((conn, frame));
            Ok(())
        }
    }

    fn frames(prefix: &str, n: usize) -> VecDeque<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    fn pass(rr: &mut RoundRobin, queues: &mut [VecDeque<String>], sink: &mut Sink) -> usize {
        let mut view: Vec<(u64, &mut VecDeque<String>)> = queues
            .iter_mut()
            .enumerate()
            .map(|(i, q)| (i as u64, q))
            .collect();
        rr.pass(&mut view, |conn, frame| sink.offer(conn, frame))
    }

    fn entry(conn: u64, frame: &str) -> (u64, String) {
        (conn, frame.to_string())
    }

    #[test]
    fn probe_behind_a_deep_pipeline_is_dispatched_within_one_pass() {
        let mut rr = RoundRobin::default();
        let mut queues = vec![frames("a", 1000), VecDeque::new()];
        // The pipeliner alone fills a 64-deep job queue.
        let mut sink = Sink::new(64);
        assert_eq!(pass(&mut rr, &mut queues, &mut sink), 64);
        assert_eq!(sink.log.last(), Some(&entry(0, "a63")));
        // The probe arrives behind the remaining 936; the next pass reaches
        // it in its first round, right after one pipelined frame.
        queues[1].push_back("probe".to_string());
        let mut sink = Sink::new(64);
        assert_eq!(pass(&mut rr, &mut queues, &mut sink), 64);
        assert_eq!(
            sink.log[..3],
            [entry(0, "a64"), entry(1, "probe"), entry(0, "a65")]
        );
        assert_eq!(sink.log.last(), Some(&entry(0, "a126")));
        assert!(queues[1].is_empty());
        assert_eq!(queues[0].front().map(String::as_str), Some("a127"));
    }

    #[test]
    fn full_sink_puts_the_frame_back_and_stops_the_pass() {
        let mut rr = RoundRobin::default();
        let mut queues = vec![frames("a", 3), frames("b", 3), frames("c", 3)];
        let mut sink = Sink::new(4);
        assert_eq!(pass(&mut rr, &mut queues, &mut sink), 4);
        // Start at connection 1, one frame each per round.
        assert_eq!(
            sink.log,
            [
                entry(1, "b0"),
                entry(2, "c0"),
                entry(0, "a0"),
                entry(1, "b1")
            ]
        );
        // The fifth offer (c1) was refused: back at the front of its queue,
        // and nothing was offered after it.
        assert_eq!(sink.offers, 5);
        assert_eq!(queues[2], frames("c", 3).split_off(1));
        assert_eq!(queues[0], frames("a", 3).split_off(1));
        assert_eq!(queues[1], frames("b", 3).split_off(2));
    }

    #[test]
    fn pass_drains_every_queue_when_the_sink_has_room() {
        let mut rr = RoundRobin::default();
        let mut queues = vec![frames("a", 3), frames("b", 1)];
        let mut sink = Sink::new(100);
        assert_eq!(pass(&mut rr, &mut queues, &mut sink), 4);
        assert_eq!(
            sink.log,
            [
                entry(1, "b0"),
                entry(0, "a0"),
                entry(0, "a1"),
                entry(0, "a2")
            ]
        );
        assert!(queues.iter().all(VecDeque::is_empty));
        assert_eq!(pass(&mut rr, &mut [], &mut Sink::new(1)), 0);
    }

    #[test]
    fn starting_connection_rotates_between_passes() {
        let mut rr = RoundRobin::default();
        let mut queues = vec![frames("a", 4), frames("b", 4), frames("c", 4)];
        let firsts: Vec<u64> = (0..4)
            .map(|_| {
                let mut sink = Sink::new(1);
                pass(&mut rr, &mut queues, &mut sink);
                sink.log[0].0
            })
            .collect();
        assert_eq!(firsts, [1, 2, 0, 1]);
    }

    /// A registered connection over loopback, plus its peer.
    fn conn() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Conn::new(stream, 1 << 16), peer)
    }

    #[test]
    fn poll_interest_follows_connection_state() {
        let (mut c, _peer) = conn();
        assert_eq!(c.interest(), POLLIN, "reading");

        c.write_buf.extend_from_slice(b"{}\n");
        assert_eq!(c.interest(), POLLIN | POLLOUT, "reading + unflushed");
        c.write_pos = c.write_buf.len();
        assert_eq!(c.interest(), POLLIN, "all flushed");

        c.write_buf = vec![b' '; WRITE_HIGH_WATER + 10];
        c.write_pos = 10;
        assert_eq!(c.interest(), POLLOUT, "at the high-water mark: write only");
        c.write_pos = 11;
        assert_eq!(c.interest(), POLLIN | POLLOUT, "just below it");

        c.reads_closed = true;
        assert_eq!(c.interest(), POLLOUT, "reads closed, bytes to write");
        c.write_pos = c.write_buf.len();
        assert_eq!(
            c.interest(),
            0,
            "reads closed, nothing to write: not polled"
        );

        c.reads_closed = false;
        c.write_pos = 0;
        c.dead = true;
        assert_eq!(c.interest(), 0, "dead");
    }

    /// Waits (bounded) until `stream` is readable: data or the peer's FIN
    /// has arrived.
    fn await_readable(stream: &TcpStream) {
        let mut fds = [PollFd::new(stream.as_raw_fd(), POLLIN)];
        assert_eq!(
            sys::wait(&mut fds, Some(Duration::from_secs(10))).unwrap(),
            1
        );
    }

    #[test]
    fn closed_idle_connection_is_reapable_and_busy_ones_are_not() {
        // Open and idle: keeps its slot.
        let (c, peer) = conn();
        c.stream.set_nonblocking(true).unwrap();
        assert!(!c.hung_up_idle(), "peer still connected");
        // The peer hangs up: the slot is free to reuse.
        drop(peer);
        await_readable(&c.stream);
        assert!(c.hung_up_idle(), "peer hung up, nothing owed");
        assert!(c.hung_up_idle(), "peeking consumed nothing");

        // Hung up, but a last request is still unread.
        let (c, mut peer) = conn();
        c.stream.set_nonblocking(true).unwrap();
        peer.write_all(b"{}\n").unwrap();
        drop(peer);
        await_readable(&c.stream);
        assert!(!c.hung_up_idle(), "unread request");

        // Hung up, but an answer is still owed.
        let (mut c, peer) = conn();
        c.stream.set_nonblocking(true).unwrap();
        drop(peer);
        await_readable(&c.stream);
        c.outstanding = 1;
        assert!(!c.hung_up_idle(), "answer in flight");
        c.outstanding = 0;
        c.frames.push(b"{\"id\"");
        assert!(!c.hung_up_idle(), "partial frame buffered");
    }

    fn done(seq: u64) -> Done {
        Done {
            conn: 0,
            seq,
            rendered: None,
        }
    }

    fn wake_pending(wake_rx: &UnixStream) -> bool {
        let mut fds = [PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
        sys::wait(&mut fds, Some(Duration::ZERO)).unwrap() == 1 && fds[0].revents & POLLIN != 0
    }

    #[test]
    fn completion_pushed_after_the_drain_is_not_lost() {
        let (completions, wake_rx) = Completions::new().unwrap();
        assert!(!wake_pending(&wake_rx));

        // More wakeups than one drain read holds.
        for seq in 0..1000 {
            completions.push(done(seq));
        }
        assert!(wake_pending(&wake_rx));
        drain_wakeups(&wake_rx);
        assert!(!wake_pending(&wake_rx), "drained");
        assert_eq!(completions.take().len(), 1000);

        // The reactor drained, then took; a worker finishes in between or
        // after.  Its byte is still there for the next poll.
        drain_wakeups(&wake_rx);
        completions.push(done(1000));
        assert!(wake_pending(&wake_rx), "zero-timeout poll sees the wakeup");
        drain_wakeups(&wake_rx);
        assert_eq!(completions.take().len(), 1);
    }
}
