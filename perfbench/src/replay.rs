//! The in-process replay of a recorded TCP run: the same request sequence,
//! in send order, on a fresh engine booted the way the server was.
//!
//! * `whole` times what one reactor job costs per request — framing,
//!   [`respond_to_line`], rendering — and subtracts it from the client
//!   latency of the same id to get the transport share (socket, reactor
//!   queue wait, write).
//! * `traced` runs the same public functions `respond_to_line` composes,
//!   one span per layer, and reports each layer's self time.
//!   `decide_budgeted` followed by `record_from_outcome` is exactly
//!   `run_task_budgeted`, the production decide path.
//!
//! Spans (name, start, end, parent, request) stay in memory and are written
//! when the replay ends.

use crate::workload::Workload;
use crate::Fail;
use cqdet_core::witness::WitnessConfig;
use cqdet_core::MutableSession;
use cqdet_engine::{Json, SessionConfig, Task};
use cqdet_parallel::{Budget, CancelToken};
use cqdet_service::{
    parse_program, respond_to_line, CqdetError, Engine, FrameBuffer, Request, RequestKind, Response,
};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead as _, BufReader, BufWriter, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded request of `sent.tsv`.
struct Recorded {
    timed: bool,
    kind: String,
    id: String,
    /// Client-observed latency in µs (negative when there was no answer).
    latency_us: f64,
    /// The framed bytes, newline included.
    bytes: Vec<u8>,
}

fn read_record(path: &Path) -> io::Result<Vec<Recorded>> {
    let file = BufReader::new(fs::File::open(path)?);
    file.lines()
        .map(|l| {
            let l = l?;
            let bad = || io::Error::new(io::ErrorKind::InvalidData, format!("bad record {l:?}"));
            let mut parts = l.splitn(5, '\t');
            let (Some(phase), Some(kind), Some(id), Some(latency), Some(line)) = (
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
            ) else {
                return Err(bad());
            };
            Ok(Recorded {
                timed: phase == "timed",
                kind: kind.to_string(),
                id: id.to_string(),
                latency_us: latency.parse().map_err(|_| bad())?,
                bytes: format!("{line}\n").into_bytes(),
            })
        })
        .collect()
}

/// A fresh engine with the server's boot policy (cache budget, and on
/// `hot-serve` the warm-start snapshot).
fn boot(workload: Workload, dir: &Path) -> Result<Engine, Fail> {
    let engine = Engine::new();
    if let Some(bytes) = workload.cache_bytes() {
        engine.set_cache_bytes(Some(bytes));
    }
    if workload == Workload::HotServe {
        engine
            .load_snapshot(&dir.join("snapshot.bin"))
            .map_err(|e| Fail::Io(format!("snapshot load: {e}")))?;
    }
    Ok(engine)
}

/// Median of three timed loads of the snapshot at `path`, each into a
/// fresh engine with the workload's cache budget, in ms.
fn snapshot_load_ms(workload: Workload, path: &Path) -> Result<f64, Fail> {
    let mut loads = Vec::new();
    for _ in 0..3 {
        let fresh = Engine::new();
        if let Some(bytes) = workload.cache_bytes() {
            fresh.set_cache_bytes(Some(bytes));
        }
        let start = Instant::now();
        fresh
            .load_snapshot(path)
            .map_err(|e| Fail::Io(format!("snapshot load: {e}")))?;
        loads.push(start.elapsed().as_secs_f64() * 1e3);
    }
    loads.sort_by(f64::total_cmp);
    Ok(loads[1])
}

const MAX_FRAME: usize = 64 << 20;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replay with nothing but a clock around each reactor job.
pub fn whole(workload: Workload, dir: &Path) -> Result<Json, Fail> {
    let record = read_record(&dir.join("sent.tsv")).map_err(|e| Fail::Io(e.to_string()))?;
    let engine = boot(workload, dir)?;
    let mut frames = FrameBuffer::new(MAX_FRAME);
    let mut total = Duration::ZERO;
    let mut timed_total = Duration::ZERO;
    let mut transport = Vec::new();
    let started = Instant::now();
    for r in &record {
        let start = Instant::now();
        frames.push(&r.bytes);
        let frame = frames.next_frame().ok().flatten().unwrap_or_default();
        let rendered = respond_to_line(&engine, &frame).map(|resp| resp.to_json().render());
        let took = start.elapsed();
        std::hint::black_box(rendered);
        total += took;
        if r.timed {
            timed_total += took;
            if r.latency_us >= 0.0 {
                transport.push(r.latency_us - us(took));
            }
        }
    }
    let wall = started.elapsed();
    let timed = record.iter().filter(|r| r.timed).count();
    Ok(Json::obj([
        ("requests", Json::num(record.len() as i64)),
        ("timed", Json::num(timed as i64)),
        ("total_us", Json::Num(us(total))),
        ("timed_us", Json::Num(us(timed_total))),
        ("wall_us", Json::Num(us(wall))),
        (
            "transport_us",
            Json::Num(transport.iter().sum::<f64>() / transport.len().max(1) as f64),
        ),
    ]))
}

/// One span of the traced replay.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: usize,
}

struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let now = self.base.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.base.elapsed();
    }

    /// Run `f` inside a child span of `parent`.
    fn span<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let request = self.spans[parent].request;
        let s = self.open(name, Some(parent), request);
        let out = f();
        self.close(s);
        out
    }

    fn write(&self, path: &Path, ids: &[String]) -> io::Result<()> {
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::num(p as i64));
            let span = Json::obj([
                ("span", Json::num(i as i64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::num(s.start.as_nanos() as i64)),
                ("end_ns", Json::num(s.end.as_nanos() as i64)),
                ("parent", parent),
                ("request", Json::str(&ids[s.request])),
            ]);
            writeln!(out, "{}", span.render())?;
        }
        out.flush()
    }
}

/// Per-replay state the traced request handler needs.
struct Replay<'a> {
    engine: &'a Engine,
    sessions: BTreeMap<u64, MutableSession>,
    next_session: u64,
    /// Whether the current request is a timed one (fuel is summed over
    /// those only).
    timed: bool,
    fuel_steps: u64,
    fuel_bytes: u64,
    served: u64,
}

impl Replay<'_> {
    /// One request, decomposed into the layers `respond_to_line` composes.
    /// Returns the rendered answer's length.
    fn request(
        &mut self,
        tr: &mut Tracer,
        root: usize,
        frames: &mut FrameBuffer,
        bytes: &[u8],
    ) -> Result<usize, Fail> {
        let frame = tr.span("service.frame", root, || {
            frames.push(bytes);
            frames.next_frame()
        });
        let frame = frame.ok().flatten().unwrap_or_default();
        let request = tr.span("service.request_parse", root, || {
            let json = Json::parse(frame.trim()).map_err(CqdetError::from)?;
            Request::from_json(&json)
        });
        let request =
            request.map_err(|e| Fail::Wrong(format!("replayed request rejected: {e}")))?;
        self.served += 1;
        let response = self.dispatch(tr, root, request)?;
        if response.is_error() {
            return Err(Fail::Wrong(format!(
                "replayed request failed: {}",
                response.to_json().render()
            )));
        }
        let rendered = tr.span("service.render", root, || response.to_json().render());
        Ok(rendered.len())
    }

    fn dispatch(
        &mut self,
        tr: &mut Tracer,
        root: usize,
        request: Request,
    ) -> Result<Response, Fail> {
        let ctl = CancelToken::none();
        let budget = Budget::none();
        let engine = self.engine;
        let cx = engine.session().context();
        let failed =
            |e: &dyn std::fmt::Display| Fail::Wrong(format!("replayed request failed: {e}"));
        let id = request.id;
        Ok(match request.kind {
            RequestKind::Decide {
                program,
                query,
                witness,
            } => {
                let (views, query) = tr
                    .span("query.program_parse", root, || {
                        parse_program(&program, &query)
                    })
                    .map_err(|e| failed(&e))?;
                let task = Task {
                    id: query.name().to_string(),
                    views: views.clone(),
                    query: query.clone(),
                };
                let config = SessionConfig {
                    witnesses: witness,
                    verify: true,
                    witness: WitnessConfig::default(),
                };
                // A metered budget with no reachable limit: the kernels
                // report the fuel they burn.
                let metered = Budget::with_limits(Some(u64::MAX - 1), None);
                let session = engine.session();
                let outcome = tr.span("core.decide", root, || {
                    session.decide_budgeted(&task.views, &task.query, &ctl, &metered)
                });
                if self.timed {
                    self.fuel_steps += metered.steps_spent();
                    self.fuel_bytes += metered.bytes_spent();
                }
                let record = tr.span("engine.certify", root, || {
                    session.record_from_outcome(&task, outcome, &ctl, &config)
                });
                Response::Decide {
                    id,
                    record: Box::new(record),
                    views,
                    query: Box::new(query),
                }
            }
            RequestKind::SessionOpen {
                program,
                query,
                checkpoint_interval,
            } => {
                let (views, query) = tr
                    .span("query.program_parse", root, || {
                        parse_program(&program, &query)
                    })
                    .map_err(|e| failed(&e))?;
                let interval = checkpoint_interval
                    .map_or(cqdet_core::DEFAULT_CHECKPOINT_INTERVAL, |k| k as usize);
                let opened = tr.span("core.delta.open", root, || {
                    cqdet_structure::with_shared_caches(cx.caches(), || {
                        MutableSession::open(cx, views, query, interval, &ctl, &budget)
                    })
                });
                let opened = opened.map_err(|e| failed(&e))?;
                self.next_session += 1;
                let response = Response::SessionOpen {
                    id,
                    session: self.next_session,
                    views: opened
                        .views()
                        .iter()
                        .map(|v| v.name().to_string())
                        .collect(),
                    query: opened.query().name().to_string(),
                };
                self.sessions.insert(self.next_session, opened);
                response
            }
            RequestKind::ViewAdd { session, view } => {
                let parsed = tr
                    .span("query.program_parse", root, || {
                        cqdet_query::parse_queries(&view)
                    })
                    .map_err(|e| failed(&e))?;
                let cq = match parsed.as_slice() {
                    [u] if u.is_single_cq() => u.disjuncts()[0].clone(),
                    _ => return Err(failed(&"view_add needs one conjunctive definition")),
                };
                let s = self
                    .sessions
                    .get_mut(&session)
                    .ok_or_else(|| failed(&"unknown session"))?;
                tr.span("core.delta.add", root, || {
                    cqdet_structure::with_shared_caches(cx.caches(), || {
                        s.view_add(cx, cq, &ctl, &budget)
                    })
                })
                .map_err(|e| failed(&e))?;
                delta_response(id, session, "view_add", s)
            }
            RequestKind::ViewRemove { session, view } => {
                let s = self
                    .sessions
                    .get_mut(&session)
                    .ok_or_else(|| failed(&"unknown session"))?;
                let index = s
                    .views()
                    .iter()
                    .position(|v| v.name() == view)
                    .ok_or_else(|| failed(&"unknown view"))?;
                tr.span("core.delta.remove", root, || {
                    cqdet_structure::with_shared_caches(cx.caches(), || {
                        s.view_remove(cx, index, &ctl, &budget)
                    })
                })
                .map_err(|e| failed(&e))?;
                delta_response(id, session, "view_remove", s)
            }
            RequestKind::Redecide { session, witness } => {
                let s = self
                    .sessions
                    .get_mut(&session)
                    .ok_or_else(|| failed(&"unknown session"))?;
                let outcome = tr.span("core.delta.redecide", root, || {
                    cqdet_structure::with_shared_caches(cx.caches(), || {
                        s.redecide(cx, &ctl, &budget)
                    })
                });
                let task = Task {
                    id: s.query().name().to_string(),
                    views: s.views().to_vec(),
                    query: s.query().clone(),
                };
                let config = SessionConfig {
                    witnesses: witness,
                    verify: true,
                    witness: WitnessConfig::default(),
                };
                let record = tr.span("engine.certify", root, || {
                    engine
                        .session()
                        .record_from_outcome(&task, outcome, &ctl, &config)
                });
                Response::SessionDecide {
                    id,
                    session,
                    record: Box::new(record),
                }
            }
            RequestKind::Stats => tr.span("engine.stats", root, || Response::Stats {
                id,
                stats: engine.session().stats(),
                requests: self.served,
                counters: engine.counters(),
            }),
            other => return Err(failed(&format!("{} is not replayed", other.type_str()))),
        })
    }
}

fn delta_response(id: String, session: u64, action: &'static str, s: &MutableSession) -> Response {
    Response::SessionDelta {
        id,
        session,
        action,
        views: s.views().iter().map(|v| v.name().to_string()).collect(),
        counters: s.counters(),
    }
}

/// Replay with one span per layer; write the spans to `spans_path`.
pub fn traced(workload: Workload, dir: &Path, spans_path: &Path) -> Result<Json, Fail> {
    let record = read_record(&dir.join("sent.tsv")).map_err(|e| Fail::Io(e.to_string()))?;
    let engine = boot(workload, dir)?;
    let mut replay = Replay {
        engine: &engine,
        sessions: BTreeMap::new(),
        next_session: 0,
        timed: false,
        fuel_steps: 0,
        fuel_bytes: 0,
        served: 0,
    };
    let mut tr = Tracer {
        base: Instant::now(),
        spans: Vec::with_capacity(record.len() * 8),
    };
    let mut frames = FrameBuffer::new(MAX_FRAME);
    let mut render_bytes = 0usize;
    let mut decide_calls = 0u64;
    let started = Instant::now();
    for (i, r) in record.iter().enumerate() {
        replay.timed = r.timed;
        let root = tr.open("request", None, i);
        let rendered = replay.request(&mut tr, root, &mut frames, &r.bytes)?;
        tr.close(root);
        if r.timed {
            render_bytes += rendered;
        }
        if r.kind == "decide" || r.kind == "witness" || r.kind == "hot_decide" {
            decide_calls += u64::from(r.timed);
        }
    }
    let wall = started.elapsed();
    let (fuel_steps, fuel_bytes, served) = (replay.fuel_steps, replay.fuel_bytes, replay.served);
    let mut counters = cqdet_core::DeltaCounters::default();
    for s in replay.sessions.values() {
        let c = s.counters();
        counters.replays += c.replays;
        counters.fast_removals += c.fast_removals;
        counters.rebuilds += c.rebuilds;
    }
    drop(replay);

    // Self time per layer over the timed requests: a span's duration minus
    // what its children cover.  The root's self time is what no layer span
    // claims.
    let mut child_time = vec![Duration::ZERO; tr.spans.len()];
    for s in &tr.spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut layers: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut request_total = Duration::ZERO;
    for (i, s) in tr.spans.iter().enumerate() {
        if !record[s.request].timed {
            continue;
        }
        let own = (s.end - s.start).saturating_sub(child_time[i]);
        if s.parent.is_none() {
            request_total += s.end - s.start;
        }
        let e = layers.entry(s.name).or_default();
        e.0 += us(own);
        e.1 += 1;
    }
    let ids: Vec<String> = record.iter().map(|r| r.id.clone()).collect();
    tr.write(spans_path, &ids)
        .map_err(|e| Fail::Io(e.to_string()))?;

    // The snapshot a warm restart loads: hot-serve boots from its prepared
    // one; elsewhere it is the one this replay's engine would write now.
    let snapshot_ms = if workload == Workload::HotServe {
        snapshot_load_ms(workload, &dir.join("snapshot.bin"))?
    } else {
        let path = dir.join("replay-snapshot.bin");
        engine
            .save_snapshot(&path)
            .map_err(|e| Fail::Io(format!("snapshot save: {e}")))?;
        let ms = snapshot_load_ms(workload, &path)?;
        let _ = fs::remove_file(path);
        ms
    };
    let timed = record.iter().filter(|r| r.timed).count();
    Ok(Json::obj([
        ("requests", Json::num(record.len() as i64)),
        ("served", Json::num(served as i64)),
        ("timed", Json::num(timed as i64)),
        ("wall_us", Json::Num(us(wall))),
        ("request_us", Json::Num(us(request_total))),
        (
            "layers",
            Json::Obj(
                layers
                    .into_iter()
                    .map(|(name, (self_us, calls))| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("self_us", Json::Num(self_us)),
                                ("calls", Json::num(calls as i64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("decide_calls", Json::num(decide_calls as i64)),
        ("fuel_steps", Json::num(fuel_steps as i64)),
        ("fuel_bytes", Json::num(fuel_bytes as i64)),
        ("render_bytes", Json::num(render_bytes as i64)),
        ("replays", Json::num(counters.replays as i64)),
        ("fast_removals", Json::num(counters.fast_removals as i64)),
        ("rebuilds", Json::num(counters.rebuilds as i64)),
        ("snapshot_load_ms", Json::Num(snapshot_ms)),
    ]))
}
