//! The load generator and the measured TCP run.
//!
//! One thread drives every connection: sockets are non-blocking and
//! multiplexed with `ppoll(2)`, so the generator never uses more threads
//! than the one it runs on and its receive timestamps are not quantized by
//! sleeps.  Closed loops keep one request outstanding per connection; the
//! open loop sends on a fixed schedule and times each request from the
//! moment it was due.
//!
//! Every answer is checked as it arrives (typed, id echoed in order, the
//! verdict or the exact bytes the workload expects); a wrong answer aborts
//! the run.

use crate::workload::{self, Kind, Req, Workload, ID_PLACEHOLDER};
use crate::{quantile, Fail};
use cqdet_engine::Json;
use cqdet_service::{serve_tcp, Engine, ServeOptions};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{self, BufRead as _, BufReader, BufWriter, Read as _, Write as _};
use std::net::TcpStream;
use std::os::fd::AsRawFd as _;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench multiplexes its sockets with ppoll(2) and reads /proc: Linux only");

mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::io;
    use std::time::Duration;

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }

    /// Acknowledge received data at once instead of waiting to piggyback
    /// the ACK on the next request.  Linux clears the mode on its own, so
    /// it is re-armed after every read.
    pub fn quickack(fd: c_int) {
        let on: c_int = 1;
        // SAFETY: `value` points at a live `c_int` and `len` is its size;
        // an invalid `fd` makes the call fail with EBADF, which is ignored
        // (the next read reports the broken connection).
        unsafe {
            setsockopt(
                fd,
                IPPROTO_TCP,
                TCP_QUICKACK,
                (&on as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            );
        }
    }

    /// Wait until one of `fds` is ready or `timeout` passes.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(3600) as c_long,
            tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `pollfd`s and `nfds` is its length, so the kernel reads and writes
        // only inside it; `ts` lives across the call; a null sigmask leaves
        // the signal mask untouched.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// A run aborts when no answer arrives for this long.
const STALL_LIMIT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Timed,
    Final,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
            Phase::Final => "final",
        }
    }
}

/// One request on the wire and what became of it.
struct Sent {
    id: String,
    kind: Kind,
    phase: Phase,
    rung: usize,
    expect: Option<usize>,
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    /// The typed error code, when the answer was an error or a timeout.
    error: Option<String>,
    /// The request line (kept only for a recorded run).
    line: Option<String>,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: VecDeque<usize>,
    /// When the last answer on this connection was read.
    last_done: Option<Instant>,
}

struct Client<'a> {
    conns: Vec<Conn>,
    log: Vec<Sent>,
    expected: &'a [String],
    record: bool,
    /// The last `stats` answer, verbatim.
    last_stats: Option<String>,
}

/// The id a request line carries: every generated line starts with it.
fn id_of(line: &str) -> &str {
    line.strip_prefix("{\"id\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

impl<'a> Client<'a> {
    fn connect(
        addr: std::net::SocketAddr,
        n: usize,
        expected: &'a [String],
        record: bool,
    ) -> io::Result<Self> {
        let conns = (0..n)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    rbuf: Vec::with_capacity(1 << 16),
                    wbuf: Vec::new(),
                    inflight: VecDeque::new(),
                    last_done: None,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Client {
            conns,
            log: Vec::new(),
            expected,
            record,
            last_stats: None,
        })
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    fn idle(&self, conn: usize) -> bool {
        self.conns[conn].inflight.is_empty()
    }

    /// Put one request on the wire (buffering whatever the socket refuses).
    fn send(
        &mut self,
        conn: usize,
        req: &Req,
        line: &str,
        due: Instant,
        phase: Phase,
        rung: usize,
    ) -> Result<(), Fail> {
        let c = &mut self.conns[conn];
        let sent = Instant::now();
        c.wbuf.extend_from_slice(line.as_bytes());
        c.wbuf.push(b'\n');
        flush(c)?;
        c.inflight.push_back(self.log.len());
        self.log.push(Sent {
            id: id_of(line).to_string(),
            kind: req.kind,
            phase,
            rung,
            expect: req.expect,
            due,
            sent,
            done: None,
            error: None,
            line: self.record.then(|| line.to_string()),
        });
        Ok(())
    }

    /// Wait for readiness (at most until `until`), then read and check every
    /// complete answer.  Returns whether any answer arrived.
    fn pump(&mut self, until: Option<Instant>) -> Result<bool, Fail> {
        let mut fds: Vec<sys::PollFd> = self
            .conns
            .iter()
            .map(|c| sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN | if c.wbuf.is_empty() { 0 } else { sys::POLLOUT },
                revents: 0,
            })
            .collect();
        let timeout = match until {
            Some(t) => t.saturating_duration_since(Instant::now()),
            None => Duration::from_millis(200),
        };
        if !timeout.is_zero() {
            sys::wait(&mut fds, timeout).map_err(|e| Fail::Io(format!("ppoll: {e}")))?;
        }
        let mut progressed = false;
        for conn in 0..self.conns.len() {
            if !self.conns[conn].wbuf.is_empty() {
                flush(&mut self.conns[conn])?;
            }
            progressed |= self.read_answers(conn)?;
        }
        Ok(progressed)
    }

    fn read_answers(&mut self, conn: usize) -> Result<bool, Fail> {
        let mut chunk = [0u8; 1 << 16];
        let mut got = false;
        loop {
            match self.conns[conn].stream.read(&mut chunk) {
                Ok(0) => return Err(Fail::Io(format!("connection {conn} closed by the server"))),
                Ok(n) => {
                    sys::quickack(self.conns[conn].stream.as_raw_fd());
                    self.conns[conn].rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Fail::Io(format!("read on connection {conn}: {e}"))),
            }
        }
        let now = Instant::now();
        while let Some(pos) = self.conns[conn].rbuf.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = self.conns[conn].rbuf.drain(..=pos).collect();
            let answer = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
            let Some(index) = self.conns[conn].inflight.pop_front() else {
                return Err(Fail::Wrong(format!(
                    "answer without a request on connection {conn}: {answer}"
                )));
            };
            self.conns[conn].last_done = Some(now);
            let error = check(&self.log[index], &answer, self.expected)?;
            let sent = &mut self.log[index];
            sent.done = Some(now);
            sent.error = error;
            if sent.kind == Kind::Stats {
                self.last_stats = Some(answer);
            }
            got = true;
        }
        Ok(got)
    }

    /// Send one request and wait for its answer (the final `stats`).
    fn call(&mut self, conn: usize, req: &Req, phase: Phase) -> Result<(), Fail> {
        let now = Instant::now();
        self.send(conn, req, &req.line, now, phase, 0)?;
        self.drain()
    }

    /// Wait until every request sent has its answer.
    fn drain(&mut self) -> Result<(), Fail> {
        let mut last = Instant::now();
        while self.outstanding() > 0 {
            if self.pump(None)? {
                last = Instant::now();
            } else if last.elapsed() > STALL_LIMIT {
                return Err(Fail::Io("the server stopped answering".to_string()));
            }
        }
        Ok(())
    }
}

fn flush(c: &mut Conn) -> Result<(), Fail> {
    while !c.wbuf.is_empty() {
        match c.stream.write(&c.wbuf) {
            Ok(0) => return Err(Fail::Io("connection closed while writing".to_string())),
            Ok(n) => {
                c.wbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Fail::Io(format!("write: {e}"))),
        }
    }
    Ok(())
}

/// Check one answer against its request.  `Ok(Some(code))` for a typed
/// error or timeout (counted as failed), `Err` for a wrong answer.
fn check(req: &Sent, answer: &str, expected: &[String]) -> Result<Option<String>, Fail> {
    let wrong = |why: &str| {
        Fail::Wrong(format!(
            "{} {} ({why}): {answer}",
            req.kind.as_str(),
            req.id
        ))
    };
    let head = format!("{{\"version\":1,\"id\":\"{}\"", req.id);
    let Some(rest) = answer.strip_prefix(&head) else {
        return Err(wrong("not a typed answer echoing the request id in order"));
    };
    if rest.starts_with(",\"type\":\"error\"") || rest.starts_with(",\"type\":\"timeout\"") {
        let json = Json::parse(answer).map_err(|_| wrong("unparsable error"))?;
        let code = json
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .ok_or_else(|| wrong("error without a code"))?;
        return Ok(Some(code.to_string()));
    }
    if !rest.starts_with(&format!(",\"type\":\"{}\"", req.kind.response_type())) {
        return Err(wrong("wrong answer type"));
    }
    let fragment = || {
        req.expect
            .and_then(|e| expected.get(e))
            .ok_or_else(|| wrong("no expected answer recorded"))
    };
    match req.kind {
        Kind::Decide | Kind::Witness => {
            let json = Json::parse(answer).map_err(|_| wrong("unparsable answer"))?;
            let record = json.get("record").ok_or_else(|| wrong("no record"))?;
            let status = record.get("status").and_then(Json::as_str);
            let verified = record.get("verified").and_then(Json::as_bool);
            if verified != Some(true) {
                return Err(wrong("certificate not verified"));
            }
            if req.kind == Kind::Decide && status != Some("determined") {
                return Err(wrong("planted instance not determined"));
            }
            if req.kind == Kind::Witness
                && (status != Some("not_determined") || record.get("counterexample").is_none())
            {
                return Err(wrong("undetermined instance without a counterexample"));
            }
        }
        Kind::HotDecide => {
            if rest != fragment()? {
                return Err(wrong("differs from the answer recorded at setup"));
            }
        }
        Kind::SessionOpen | Kind::ViewAdd | Kind::ViewRemove => {
            if !rest.contains(fragment()?.as_str()) {
                return Err(wrong("unexpected session or view list"));
            }
        }
        Kind::Redecide => {
            if !rest.ends_with(fragment()?.as_str()) {
                return Err(wrong("differs from a one-shot decide of the same view set"));
            }
        }
        Kind::Stats => {}
    }
    Ok(None)
}

/// Where the closed loop takes its next request from.
enum Source {
    /// One stream shared by every connection, read lazily.
    Shared(std::io::Lines<BufReader<fs::File>>),
    /// One queue per connection.
    PerConn(Vec<VecDeque<Req>>),
}

impl Source {
    fn open(path: &Path, conns: usize) -> Result<Source, Fail> {
        let file =
            fs::File::open(path).map_err(|e| Fail::Io(format!("{}: {e}", path.display())))?;
        let mut lines = BufReader::new(file).lines();
        let Some(first) = lines.next() else {
            return Ok(Source::PerConn(vec![VecDeque::new(); conns]));
        };
        let first = Req::from_tsv(&first.map_err(io_fail)?).map_err(io_fail)?;
        if first.conn.is_none() {
            let file = fs::File::open(path).map_err(io_fail)?;
            return Ok(Source::Shared(BufReader::new(file).lines()));
        }
        let mut queues = vec![VecDeque::new(); conns];
        for req in std::iter::once(Ok(first)).chain(lines.map(|l| Req::from_tsv(&l?))) {
            let req = req.map_err(io_fail)?;
            let c = req.conn.unwrap_or(0);
            if c >= conns {
                return Err(Fail::Io(format!("request for connection {c} of {conns}")));
            }
            queues[c].push_back(req);
        }
        Ok(Source::PerConn(queues))
    }

    fn next(&mut self, conn: usize) -> Result<Option<Req>, Fail> {
        match self {
            Source::Shared(lines) => match lines.next() {
                None => Ok(None),
                Some(line) => Ok(Some(
                    Req::from_tsv(&line.map_err(io_fail)?).map_err(io_fail)?,
                )),
            },
            Source::PerConn(queues) => Ok(queues[conn].pop_front()),
        }
    }
}

fn io_fail(e: io::Error) -> Fail {
    Fail::Io(e.to_string())
}

/// Closed loop: every connection keeps exactly one request outstanding
/// until `end`, then the loop drains.  Returns whether the stream ran dry.
///
/// A closed-loop request is due the moment the previous answer on its
/// connection arrived, so its lateness is the generator's own turnaround.
fn closed_loop(client: &mut Client, source: &mut Source, end: Instant) -> Result<bool, Fail> {
    let mut exhausted = vec![false; client.conns.len()];
    for c in &mut client.conns {
        c.last_done = None;
    }
    let mut last = Instant::now();
    loop {
        if Instant::now() < end {
            for (conn, dry) in exhausted.iter_mut().enumerate() {
                if client.idle(conn) && !*dry {
                    match source.next(conn)? {
                        Some(req) => {
                            let due = client.conns[conn].last_done.unwrap_or_else(Instant::now);
                            client.send(conn, &req, &req.line, due, Phase::Timed, 0)?;
                        }
                        None => *dry = true,
                    }
                }
            }
        }
        if client.outstanding() == 0 {
            return Ok(exhausted.iter().any(|&e| e));
        }
        if client.pump(None)? {
            last = Instant::now();
        } else if last.elapsed() > STALL_LIMIT {
            return Err(Fail::Io("the server stopped answering".to_string()));
        }
    }
}

/// One rung of the open-loop ladder.
struct Rung {
    rate: f64,
    start: Instant,
    sent: usize,
    /// Mean outstanding requests over the 2nd and 4th quarter of the rung.
    backlog_q2: f64,
    backlog_q4: f64,
}

/// Open loop over the `hot-serve` rate ladder: requests are due on a fixed
/// schedule whatever the server does; each rung starts from an empty
/// backlog, and the ladder stops at the first rung whose backlog grows.
fn open_loop(
    client: &mut Client,
    pool: &[Req],
    seed: u64,
    seconds: f64,
) -> Result<Vec<Rung>, Fail> {
    let decides: Vec<&Req> = pool.iter().filter(|r| r.kind == Kind::HotDecide).collect();
    let stats = pool
        .iter()
        .find(|r| r.kind == Kind::Stats)
        .ok_or_else(|| Fail::Io("hot-serve pool has no stats request".to_string()))?;
    let mut rungs = Vec::new();
    let mut slot = 0u64;
    for (r, &(rate, share)) in workload::HOT_RUNGS.iter().enumerate() {
        client.drain()?;
        let n = (rate * share * seconds).round() as usize;
        let start = Instant::now() + Duration::from_millis(1);
        let mut quarters = [(0usize, 0usize); 4];
        for k in 0..n {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            while Instant::now() < due {
                client.pump(Some(due))?;
            }
            let req = if slot % workload::HOT_STATS_EVERY as u64
                == workload::HOT_STATS_EVERY as u64 - 1
            {
                stats
            } else {
                decides[(workload::mix(seed, slot) % decides.len() as u64) as usize]
            };
            let line = req
                .line
                .replacen(ID_PLACEHOLDER, &format!("\"id\":\"h{slot}\""), 1);
            let conn = (slot % client.conns.len() as u64) as usize;
            client.send(conn, req, &line, due, Phase::Timed, r)?;
            slot += 1;
            let q = &mut quarters[(k * 4 / n.max(1)).min(3)];
            q.0 += client.outstanding();
            q.1 += 1;
        }
        let mean = |(sum, count): (usize, usize)| sum as f64 / count.max(1) as f64;
        let rung = Rung {
            rate,
            start,
            sent: n,
            backlog_q2: mean(quarters[1]),
            backlog_q4: mean(quarters[3]),
        };
        let growing = backlog_grows(&rung);
        rungs.push(rung);
        if growing {
            break;
        }
    }
    client.drain()?;
    Ok(rungs)
}

/// A rung fails when the outstanding requests rise across it.
fn backlog_grows(rung: &Rung) -> bool {
    rung.backlog_q4 > 2.0 * rung.backlog_q2 + 2.0
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Client-observed latency: on the open loop from the due time, so a stall
/// is charged to every request it delays; otherwise from the send.
fn latency_of(s: &Sent, open: bool) -> Option<Duration> {
    s.done.map(|d| d - if open { s.due } else { s.sent })
}

/// Requests per block of the headline figures.
const BLOCK: usize = 1000;

/// The headline figures over consecutive blocks of [`BLOCK`] requests (send
/// order): the fast quartile of the blocks' p50 and p90 latency and of
/// their completion rates.  CPU steal on a shared host only ever slows a
/// block, so the faster blocks are the steadier estimate of the server's
/// own speed; each block's percentiles still rest on 1000 samples.
struct Blocks {
    p50: f64,
    p90: f64,
    p99: f64,
    rate: f64,
    count: usize,
}

fn block_quartiles(reqs: &[&Sent], open: bool) -> Blocks {
    let size = BLOCK.min(reqs.len()).max(1);
    let (mut p50s, mut p90s, mut p99s, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for block in reqs.chunks_exact(size) {
        let mut lat: Vec<f64> = block
            .iter()
            .filter(|s| s.error.is_none())
            .filter_map(|s| latency_of(s, open).map(ms))
            .collect();
        lat.sort_by(f64::total_cmp);
        p50s.push(quantile(&lat, 0.5));
        p90s.push(quantile(&lat, 0.9));
        p99s.push(quantile(&lat, 0.99));
        let first = block.iter().map(|s| s.sent).min();
        let last = block.iter().filter_map(|s| s.done).max();
        if let (Some(a), Some(b)) = (first, last) {
            rates.push(block.len() as f64 / (b - a).as_secs_f64().max(1e-9));
        }
    }
    let at = |mut v: Vec<f64>, q: f64| {
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    };
    Blocks {
        count: p50s.len(),
        p50: at(p50s, 0.25),
        p90: at(p90s, 0.25),
        p99: at(p99s, 0.25),
        rate: at(rates, 0.75),
    }
}

/// Latency summary of a set of requests, in ms.
fn summary(latencies: &mut [f64]) -> Json {
    latencies.sort_by(f64::total_cmp);
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    Json::obj([
        ("count", Json::num(latencies.len() as i64)),
        ("p50_ms", Json::Num(quantile(latencies, 0.5))),
        ("p99_ms", Json::Num(quantile(latencies, 0.99))),
        ("mean_ms", Json::Num(mean)),
    ])
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a measuring process does.
pub enum Mode {
    /// Boot, run the set-up requests, report the set-up time, stop.
    Setup,
    /// The full run; with `record`, also write `sent.tsv` for the replay.
    Measure { record: bool },
}

/// Boot a server on a fresh engine, drive the workload against it over
/// TCP, and summarize what the client saw.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    mode: Mode,
) -> Result<Json, Fail> {
    let setup = workload::read_reqs(&dir.join("setup.tsv")).map_err(io_fail)?;
    let expected = workload::read_expected(&dir.join("expected.txt")).map_err(io_fail)?;
    let record = matches!(mode, Mode::Measure { record: true });
    let conns = workload::connections();

    let snapshot_path = if workload == Workload::HotServe {
        // The server rewrites its snapshot at exit: give it a private copy.
        let path = dir.join(format!("serve-{}.bin", std::process::id()));
        fs::copy(dir.join("snapshot.bin"), &path).map_err(io_fail)?;
        Some(path)
    } else {
        None
    };
    let options = ServeOptions {
        cache_bytes: workload.cache_bytes(),
        snapshot_path: snapshot_path.clone(),
        ..ServeOptions::default()
    };
    let engine = Arc::new(Engine::new());
    let (tx, rx) = mpsc::channel();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let bind = Instant::now();
            serve_tcp(&engine, "127.0.0.1:0", &options, |addr| {
                let _ = tx.send((bind, addr));
            })
        })
    };
    let (bind, addr) = rx
        .recv_timeout(Duration::from_secs(60))
        .map_err(|_| Fail::Io("the server did not come up".to_string()))?;
    let mut client = Client::connect(addr, conns, &expected, record).map_err(io_fail)?;
    // Session ids are handed out in arrival order, so session opens go one
    // at a time; every other set-up request is sent at once.
    for req in &setup {
        let conn = req.conn.unwrap_or(0) % conns;
        client.send(conn, req, &req.line, Instant::now(), Phase::Setup, 0)?;
        if workload == Workload::SessionChurn {
            client.drain()?;
        }
    }
    client.drain()?;
    let first = Instant::now();
    let setup_s = (first - bind).as_secs_f64();

    let mut rungs = Vec::new();
    let mut exhausted = false;
    if let Mode::Measure { .. } = mode {
        if workload == Workload::HotServe {
            let pool = workload::read_reqs(&dir.join("stream.tsv")).map_err(io_fail)?;
            rungs = open_loop(&mut client, &pool, seed, seconds)?;
        } else {
            let mut source = Source::open(&dir.join("stream.tsv"), conns)?;
            let end = first + Duration::from_secs_f64(seconds);
            exhausted = closed_loop(&mut client, &mut source, end)?;
        }
        let stats = Req {
            conn: Some(0),
            kind: Kind::Stats,
            expect: None,
            line: "{\"id\":\"final\",\"type\":\"stats\"}".to_string(),
        };
        client.call(0, &stats, Phase::Final)?;
    }
    let shutdown = "{\"id\":\"bye\",\"type\":\"shutdown\"}\n";
    let mut stream = client.conns[0].stream.try_clone().map_err(io_fail)?;
    stream.set_nonblocking(false).map_err(io_fail)?;
    stream.write_all(shutdown.as_bytes()).map_err(io_fail)?;
    let Client {
        log, last_stats, ..
    } = client;
    let served = server
        .join()
        .map_err(|_| Fail::Io("the server thread panicked".to_string()))?
        .map_err(io_fail)?;
    if let Some(path) = snapshot_path {
        let _ = fs::remove_file(path);
    }
    if let Mode::Setup = mode {
        return Ok(Json::obj([("setup_s", Json::Num(setup_s))]));
    }
    if record {
        write_record(&dir.join("sent.tsv"), &log, workload == Workload::HotServe)
            .map_err(io_fail)?;
    }
    Ok(summarize(
        workload, setup_s, &log, &rungs, last_stats, served, exhausted,
    ))
}

/// `sent.tsv`: every request in send order, with its client latency, for
/// the in-process replay.
fn write_record(path: &Path, log: &[Sent], open: bool) -> io::Result<()> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    for s in log {
        let latency_us = latency_of(s, open).map_or(-1.0, |d| d.as_secs_f64() * 1e6);
        let line = s.line.as_deref().unwrap_or("");
        writeln!(
            out,
            "{}\t{}\t{}\t{latency_us}\t{line}",
            s.phase.as_str(),
            s.kind.as_str(),
            s.id
        )?;
    }
    out.flush()
}

fn summarize(
    workload: Workload,
    setup_s: f64,
    log: &[Sent],
    rungs: &[Rung],
    last_stats: Option<String>,
    served: u64,
    exhausted: bool,
) -> Json {
    let timed: Vec<&Sent> = log.iter().filter(|s| s.phase == Phase::Timed).collect();
    let open = workload == Workload::HotServe;
    let latency = |s: &Sent| latency_of(s, open).map_or(f64::NAN, ms);
    let lateness = |s: &Sent| ms(s.sent - s.due);
    let mut errors: BTreeMap<String, i64> = BTreeMap::new();
    for s in &timed {
        if let Some(code) = &s.error {
            *errors.entry(code.clone()).or_default() += 1;
        }
    }
    let failed: i64 = errors.values().sum();

    // The requests the latency metrics describe: on hot-serve the reference
    // rung, elsewhere the whole timed phase.
    let reference: Vec<&Sent> = match workload {
        Workload::HotServe => timed
            .iter()
            .copied()
            .filter(|s| s.rung == workload::HOT_REFERENCE_RUNG)
            .collect(),
        _ => timed.clone(),
    };
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut all = Vec::new();
    for s in reference.iter().filter(|s| s.error.is_none()) {
        by_kind.entry(s.kind.as_str()).or_default().push(latency(s));
        if matches!(s.kind, Kind::ViewAdd | Kind::ViewRemove) {
            by_kind.entry("mutate").or_default().push(latency(s));
        }
        all.push(latency(s));
    }
    let mut latency_json = vec![("all".to_string(), summary(&mut all))];
    for (kind, mut v) in by_kind {
        latency_json.push((kind.to_string(), summary(&mut v)));
    }

    let mut late_sorted: Vec<f64> = timed.iter().map(|s| lateness(s)).collect();
    late_sorted.sort_by(f64::total_cmp);

    let blocks = block_quartiles(&reference, open);
    let (throughput, elapsed) = match workload {
        // The open loop's rate is the schedule's unless the server falls
        // behind: completions over the time each rung took to answer.
        Workload::HotServe => {
            let mut busy = 0.0;
            for (r, rung) in rungs.iter().enumerate() {
                let last = timed
                    .iter()
                    .filter(|s| s.rung == r)
                    .filter_map(|s| s.done)
                    .max()
                    .unwrap_or(rung.start);
                busy += (last - rung.start).as_secs_f64();
            }
            (timed.len() as f64 / busy.max(1e-9), busy)
        }
        _ => {
            let first = timed.iter().map(|s| s.sent).min();
            let last = timed.iter().filter_map(|s| s.done).max();
            let span = match (first, last) {
                (Some(a), Some(b)) => (b - a).as_secs_f64(),
                _ => 0.0,
            };
            (blocks.rate, span)
        }
    };

    let mut rung_json = Vec::new();
    let mut sustained = 0.0;
    let mut all_passed = true;
    for (r, rung) in rungs.iter().enumerate() {
        let mut lat: Vec<f64> = timed
            .iter()
            .filter(|s| s.rung == r && s.error.is_none())
            .map(|s| latency(s))
            .collect();
        let rung_errors = timed
            .iter()
            .filter(|s| s.rung == r && s.error.is_some())
            .count();
        let mut late: Vec<f64> = timed
            .iter()
            .filter(|s| s.rung == r)
            .map(|s| lateness(s))
            .collect();
        late.sort_by(f64::total_cmp);
        lat.sort_by(f64::total_cmp);
        let p99 = quantile(&lat, 0.99);
        let passed = p99 <= workload::HOT_P99_LIMIT_MS && !backlog_grows(rung) && rung_errors == 0;
        all_passed &= passed;
        if all_passed {
            sustained = rung.rate;
        }
        rung_json.push(Json::obj([
            ("rate_rps", Json::Num(rung.rate)),
            ("sent", Json::num(rung.sent as i64)),
            ("errors", Json::num(rung_errors as i64)),
            ("p50_ms", Json::Num(quantile(&lat, 0.5))),
            ("p99_ms", Json::Num(p99)),
            ("late_p99_ms", Json::Num(quantile(&late, 0.99))),
            ("backlog_q2", Json::Num(rung.backlog_q2)),
            ("backlog_q4", Json::Num(rung.backlog_q4)),
            ("passed", Json::Bool(passed)),
        ]));
    }

    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for s in &timed {
        *counts.entry(s.kind.as_str()).or_default() += 1;
    }
    let stats = last_stats
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|j| j.get("stats").cloned())
        .unwrap_or(Json::Null);
    Json::obj([
        ("setup_s", Json::Num(setup_s)),
        ("elapsed_s", Json::Num(elapsed)),
        ("attempted", Json::num(timed.len() as i64)),
        ("failed", Json::num(failed)),
        (
            "errors",
            Json::Obj(errors.into_iter().map(|(k, v)| (k, Json::num(v))).collect()),
        ),
        (
            "counts",
            Json::Obj(
                counts
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::num(v)))
                    .collect(),
            ),
        ),
        ("throughput_rps", Json::Num(throughput)),
        (
            "headline",
            Json::obj([
                ("p50_ms", Json::Num(blocks.p50)),
                ("p90_ms", Json::Num(blocks.p90)),
                ("p99_ms", Json::Num(blocks.p99)),
                ("blocks", Json::num(blocks.count as i64)),
            ]),
        ),
        ("latency", Json::Obj(latency_json)),
        ("late_p99_ms", Json::Num(quantile(&late_sorted, 0.99))),
        ("rungs", Json::Arr(rung_json)),
        ("sustained_rps", Json::Num(sustained)),
        ("peak_rss_mb", Json::Num(peak_rss_mb())),
        ("served", Json::num(served as i64)),
        ("stream_exhausted", Json::Bool(exhausted)),
        ("stats", stats),
    ])
}
