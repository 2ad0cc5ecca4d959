//! The three workloads: which requests each one sends, which answers they
//! must get back, and the input files `perfbench prepare` writes for the
//! measuring processes.
//!
//! Every input is a pure function of the seed.  The server only ever sees
//! the generated request lines; the expected answers are computed here, on
//! an engine of the benchmark's own, before any server starts.
//!
//! Files in a workload directory:
//!
//! * `setup.tsv` — requests sent before the clock starts (session opens,
//!   one at a time; warm-up passes and liveness probes, all at once);
//! * `stream.tsv` — the timed requests (`hot-serve`: the request pool the
//!   open-loop schedule draws from);
//! * `expected.txt` — one expected answer fragment per line, referenced by
//!   index from the two request files;
//! * `snapshot.bin` — the warm-start snapshot `hot-serve` boots from.
//!
//! A request file line is `conn \t kind \t expect \t request`: `conn` is a
//! connection index or `*` (any connection), `expect` an index into
//! `expected.txt` or `-`.

use cqdet_core::ConjunctiveQuery;
use cqdet_engine::Json;
use cqdet_query::cq::Atom;
use cqdet_service::{respond_to_line, Engine, Response};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufRead as _, BufReader, BufWriter, Write as _};
use std::path::Path;

/// Connections (and, at most, load-generator threads) a workload uses: two,
/// or fewer on a machine with fewer cores.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Total cache budget of the `decide-mix` server (`ServeOptions::cache_bytes`),
/// well below the stream's working set so the governed caches miss and
/// evict (see `spec.json` for the measured working set).
pub const DECIDE_MIX_CACHE_BYTES: u64 = 4 << 20;

/// Size of the `hot-serve` program pool.
pub const HOT_POOL: usize = 16;

/// One `stats` request in every `HOT_STATS_EVERY` `hot-serve` requests.
pub const HOT_STATS_EVERY: usize = 8;

/// The `hot-serve` rate ladder, lowest first: requests per second and the
/// share of the run each rung gets.  The reference rung gets the most, so
/// its latency rests on many blocks of 1000 requests.
pub const HOT_RUNGS: &[(f64, f64)] = &[(1000.0, 0.6), (2000.0, 0.2), (3000.0, 0.2)];

/// The rung whose latency is the headline on `hot-serve` (an index into
/// [`HOT_RUNGS`]).
pub const HOT_REFERENCE_RUNG: usize = 0;

/// A `hot-serve` rung passes when its p99 latency stays within this limit
/// (and its backlog does not grow).
pub const HOT_P99_LIMIT_MS: f64 = 10.0;

/// Every `CHURN_PIVOT_EVERY` cycles, `session-churn` removes and re-adds an
/// original pivotal view (two cycles: remove, then restore).
pub const CHURN_PIVOT_EVERY: usize = 8;

/// Requests the closed-loop streams hold per second of run time; far above
/// what two connections complete, so a run never drains its stream.
const DECIDE_MIX_PER_SECOND: usize = 3_000;
const CHURN_CYCLES_PER_SECOND: usize = 250;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DecideMix,
    HotServe,
    SessionChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "decide-mix" => Some(Workload::DecideMix),
            "hot-serve" => Some(Workload::HotServe),
            "session-churn" => Some(Workload::SessionChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecideMix => "decide-mix",
            Workload::HotServe => "hot-serve",
            Workload::SessionChurn => "session-churn",
        }
    }

    /// The server's `cache_bytes` (`None`: the per-cache defaults).
    pub fn cache_bytes(self) -> Option<u64> {
        match self {
            Workload::DecideMix => Some(DECIDE_MIX_CACHE_BYTES),
            Workload::HotServe | Workload::SessionChurn => None,
        }
    }
}

/// What a request is, for per-kind latency and for checking its answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A planted (determined) `decide`.
    Decide,
    /// An undetermined `decide` with `"witness":true`.
    Witness,
    /// A `decide` whose answer is known byte for byte (`hot-serve`).
    HotDecide,
    Stats,
    SessionOpen,
    ViewAdd,
    ViewRemove,
    Redecide,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Decide => "decide",
            Kind::Witness => "witness",
            Kind::HotDecide => "hot_decide",
            Kind::Stats => "stats",
            Kind::SessionOpen => "session_open",
            Kind::ViewAdd => "view_add",
            Kind::ViewRemove => "view_remove",
            Kind::Redecide => "redecide",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        [
            Kind::Decide,
            Kind::Witness,
            Kind::HotDecide,
            Kind::Stats,
            Kind::SessionOpen,
            Kind::ViewAdd,
            Kind::ViewRemove,
            Kind::Redecide,
        ]
        .into_iter()
        .find(|k| k.as_str() == s)
    }

    /// The wire `type` of a successful answer.
    pub fn response_type(self) -> &'static str {
        match self {
            Kind::Decide | Kind::Witness | Kind::HotDecide => "decide",
            Kind::Stats => "stats",
            Kind::SessionOpen => "session_open",
            Kind::ViewAdd => "view_add",
            Kind::ViewRemove => "view_remove",
            Kind::Redecide => "redecide",
        }
    }
}

/// One request of a request file.
#[derive(Clone, Debug)]
pub struct Req {
    /// The connection that must send it (`None`: any).
    pub conn: Option<usize>,
    pub kind: Kind,
    /// Index of the expected answer in `expected.txt`.
    pub expect: Option<usize>,
    pub line: String,
}

impl Req {
    pub fn to_tsv(&self) -> String {
        let conn = self.conn.map_or("*".to_string(), |c| c.to_string());
        let expect = self.expect.map_or("-".to_string(), |e| e.to_string());
        format!("{conn}\t{}\t{expect}\t{}", self.kind.as_str(), self.line)
    }

    pub fn from_tsv(text: &str) -> io::Result<Req> {
        let bad = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad request line {text:?}"),
            )
        };
        let mut parts = text.splitn(4, '\t');
        let (Some(conn), Some(kind), Some(expect), Some(line)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad());
        };
        Ok(Req {
            conn: match conn {
                "*" => None,
                c => Some(c.parse().map_err(|_| bad())?),
            },
            kind: Kind::parse(kind).ok_or_else(bad)?,
            expect: match expect {
                "-" => None,
                e => Some(e.parse().map_err(|_| bad())?),
            },
            line: line.to_string(),
        })
    }
}

/// splitmix64 of `seed` mixed with `salt`: the benchmark's only source of
/// randomness.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn program_text(views: &[ConjunctiveQuery], query: &ConjunctiveQuery) -> String {
    views
        .iter()
        .chain(std::iter::once(query))
        .map(ConjunctiveQuery::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

fn decide_line(id: &str, program: &str, query: &str, witness: bool) -> String {
    format!(
        "{{\"id\":{},\"type\":\"decide\",\"program\":{},\"query\":{}{}}}",
        Json::str(id).render(),
        Json::str(program).render(),
        Json::str(query).render(),
        if witness { ",\"witness\":true" } else { "" }
    )
}

/// The T3-WITNESS chain family under seeded renaming: views are the paths
/// of lengths `1..=k`, the query the `(k+1)`-path, so the instance is
/// undetermined with a basis of `k + 1` elements.  The relation, the
/// variables and the view names and order all vary with `h`, so no two
/// requests share a cache key.
fn witness_chain(k: usize, h: u64) -> (Vec<ConjunctiveQuery>, ConjunctiveQuery) {
    let relation = format!("C{}", h % 1_000_000);
    let var = |i: usize| format!("{}{i}", char::from(b'a' + (mix(h, 1) % 26) as u8));
    let path = |name: String, len: usize| {
        let atoms = (0..len)
            .map(|i| Atom {
                relation: relation.clone(),
                vars: vec![var(i), var(i + 1)],
            })
            .collect();
        ConjunctiveQuery::boolean(name, atoms)
    };
    let mut lengths: Vec<usize> = (1..=k).collect();
    for i in (1..lengths.len()).rev() {
        lengths.swap(i, (mix(h, 2 + i as u64) % (i as u64 + 1)) as usize);
    }
    let views = lengths
        .iter()
        .enumerate()
        .map(|(pos, &len)| path(format!("u{pos}"), len))
        .collect();
    (views, path("q".to_string(), k + 1))
}

/// The same query with every atom over `relation` (so two sessions share no
/// isomorphism class, and the seed reaches the session workload).
fn over_relation(cq: &ConjunctiveQuery, relation: &str) -> ConjunctiveQuery {
    let atoms = cq
        .atoms()
        .iter()
        .map(|a| Atom {
            relation: relation.to_string(),
            vars: a.vars.clone(),
        })
        .collect();
    ConjunctiveQuery::boolean(cq.name(), atoms)
}

/// Append-only table of expected answer fragments, deduplicated.
#[derive(Default)]
struct Expected {
    lines: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl Expected {
    fn intern(&mut self, fragment: String) -> usize {
        if let Some(&i) = self.index.get(&fragment) {
            return i;
        }
        self.lines.push(fragment.clone());
        self.index.insert(fragment, self.lines.len() - 1);
        self.lines.len() - 1
    }
}

/// Everything `prepare` produces for one workload.
struct Inputs {
    setup: Vec<Req>,
    stream: Vec<Req>,
    expected: Expected,
    /// Summary members for the run's provenance record.
    facts: Vec<(String, Json)>,
}

/// Write a workload's input files into `dir`.
pub fn prepare(workload: Workload, seed: u64, seconds: f64, dir: &Path) -> io::Result<Json> {
    fs::create_dir_all(dir)?;
    let inputs = match workload {
        Workload::DecideMix => decide_mix(seed, seconds),
        Workload::HotServe => hot_serve(seed, dir)?,
        Workload::SessionChurn => session_churn(seed, seconds)?,
    };
    write_reqs(&dir.join("setup.tsv"), &inputs.setup)?;
    write_reqs(&dir.join("stream.tsv"), &inputs.stream)?;
    let mut out = BufWriter::new(fs::File::create(dir.join("expected.txt"))?);
    for line in &inputs.expected.lines {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    let mut facts = vec![
        ("workload".to_string(), Json::str(workload.name())),
        (
            "stream_requests".to_string(),
            Json::num(inputs.stream.len() as i64),
        ),
    ];
    facts.extend(inputs.facts);
    Ok(Json::Obj(facts))
}

fn write_reqs(path: &Path, reqs: &[Req]) -> io::Result<()> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    for r in reqs {
        writeln!(out, "{}", r.to_tsv())?;
    }
    out.flush()
}

pub fn read_reqs(path: &Path) -> io::Result<Vec<Req>> {
    let file = BufReader::new(fs::File::open(path)?);
    file.lines().map(|l| Req::from_tsv(&l?)).collect()
}

pub fn read_expected(path: &Path) -> io::Result<Vec<String>> {
    BufReader::new(fs::File::open(path)?).lines().collect()
}

fn stats_req(conn: Option<usize>, id: &str) -> Req {
    Req {
        conn,
        kind: Kind::Stats,
        expect: None,
        line: format!("{{\"id\":{},\"type\":\"stats\"}}", Json::str(id).render()),
    }
}

/// `decide-mix`: a stream of distinct decides, half planted 16-view ×
/// 4-atom instances (`decide_workload`, a fresh seed per request), half
/// witness chains with a basis of 4–8 elements.
fn decide_mix(seed: u64, seconds: f64) -> Inputs {
    let count = (seconds * DECIDE_MIX_PER_SECOND as f64).ceil() as usize;
    let stream = (0..count)
        .map(|i| {
            let h = mix(seed, i as u64);
            let id = format!("m{i}");
            if h & 1 == 0 {
                let (views, query) = cqdet_bench::decide_workload(16, 4, true, h >> 1);
                Req {
                    conn: None,
                    kind: Kind::Decide,
                    expect: None,
                    line: decide_line(&id, &program_text(&views, &query), query.name(), false),
                }
            } else {
                let k = 3 + (mix(h, 7) % 5) as usize;
                let (views, query) = witness_chain(k, h >> 1);
                Req {
                    conn: None,
                    kind: Kind::Witness,
                    expect: None,
                    line: decide_line(&id, &program_text(&views, &query), query.name(), true),
                }
            }
        })
        .collect();
    let setup = (0..connections())
        .map(|c| stats_req(Some(c), &format!("probe{c}")))
        .collect();
    Inputs {
        setup,
        stream,
        expected: Expected::default(),
        facts: vec![(
            "cache_bytes".to_string(),
            Json::num(DECIDE_MIX_CACHE_BYTES as i64),
        )],
    }
}

/// The `"id":"@"` placeholder a `hot-serve` pool request carries; the load
/// generator replaces it with the request's id.
pub const ID_PLACEHOLDER: &str = "\"id\":\"@\"";

/// `hot-serve`: a pool of 16 small decides (4 views × 3 atoms, planted and
/// not, witnesses on) whose answers and warm-start snapshot come from an
/// engine of the benchmark's own.
fn hot_serve(seed: u64, dir: &Path) -> io::Result<Inputs> {
    let engine = Engine::new();
    let mut expected = Expected::default();
    let mut stream = Vec::new();
    let mut setup = Vec::new();
    for i in 0..HOT_POOL {
        let planted = i % 2 == 0;
        let (views, query) = cqdet_bench::decide_workload(4, 3, planted, mix(seed, i as u64));
        let line = decide_line("@", &program_text(&views, &query), query.name(), !planted);
        let answer = respond_to_line(&engine, &line)
            .ok_or_else(|| io::Error::other("blank pool request"))?
            .to_json()
            .render();
        let prefix = "{\"version\":1,\"id\":\"@\"";
        let fragment = answer
            .strip_prefix(prefix)
            .ok_or_else(|| io::Error::other(format!("unexpected answer shape {answer:?}")))?;
        if !fragment.starts_with(",\"type\":\"decide\"") {
            return Err(io::Error::other(format!(
                "pool request {i} failed: {answer}"
            )));
        }
        let expect = Some(expected.intern(fragment.to_string()));
        stream.push(Req {
            conn: None,
            kind: Kind::HotDecide,
            expect,
            line: line.clone(),
        });
        setup.push(Req {
            conn: Some(i % connections()),
            kind: Kind::HotDecide,
            expect,
            line: line.replacen(ID_PLACEHOLDER, &format!("\"id\":\"warm{i}\""), 1),
        });
    }
    stream.push(Req {
        conn: None,
        kind: Kind::Stats,
        expect: None,
        line: format!("{{{ID_PLACEHOLDER},\"type\":\"stats\"}}"),
    });
    let entries = engine
        .save_snapshot(&dir.join("snapshot.bin"))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let rungs = Json::Arr(HOT_RUNGS.iter().map(|&(rate, _)| Json::Num(rate)).collect());
    Ok(Inputs {
        setup,
        stream,
        expected,
        facts: vec![
            ("snapshot_entries".to_string(), Json::num(entries as i64)),
            ("rungs_rps".to_string(), rungs),
        ],
    })
}

/// `session-churn`: per connection, one 64-view session over its own
/// relation (`delta_workload`), then cycles of `view_add` → `redecide` →
/// `view_remove` → `redecide`.  Ordinary cycles add and remove a dependent
/// churn view; every [`CHURN_PIVOT_EVERY`] cycles a pair of cycles removes
/// and restores an original pivotal view, so checkpoint replay runs.  Each
/// redecide's expected record is a one-shot `decide` of the same view set.
fn session_churn(seed: u64, seconds: f64) -> io::Result<Inputs> {
    let engine = Engine::new();
    let (views, query, extras) = cqdet_bench::delta_workload(
        cqdet_bench::DELTA_SESSION_VIEWS,
        cqdet_bench::DELTA_CHURN_VIEWS,
    );
    let cycles = (seconds * CHURN_CYCLES_PER_SECOND as f64).ceil() as usize;
    let mut expected = Expected::default();
    let mut records: BTreeMap<String, usize> = BTreeMap::new();
    let mut setup = Vec::new();
    let mut stream = Vec::new();
    let mut pivots = Vec::new();
    for conn in 0..connections() {
        let relation = format!("E{conn}x{}", mix(seed, 100 + conn as u64) % 10_000);
        let originals: Vec<ConjunctiveQuery> =
            views.iter().map(|v| over_relation(v, &relation)).collect();
        let extras: Vec<ConjunctiveQuery> =
            extras.iter().map(|v| over_relation(v, &relation)).collect();
        let query = over_relation(&query, &relation);
        // Sessions open one after another on a fresh server: ids 1, 2, ...
        let session = conn + 1;
        setup.push(Req {
            conn: Some(conn),
            kind: Kind::SessionOpen,
            expect: Some(expected.intern(format!("\"session\":{session},"))),
            line: format!(
                "{{\"id\":\"open{conn}\",\"type\":\"session_open\",\"program\":{}}}",
                Json::str(program_text(&originals, &query)).render()
            ),
        });
        // Pivot j has churn view w_j = P_j ⊕ P_{j+1}, which keeps the query
        // covered while v_j is out, so the removal repairs by replay.
        let pivot = (mix(seed, 200 + conn as u64) % extras.len() as u64) as usize;
        pivots.push(Json::str(originals[pivot].name()));
        let mut current = originals.clone();
        let mut n = 0;
        let mut push = |kind: Kind, expect: usize, body: String| {
            stream.push(Req {
                conn: Some(conn),
                kind,
                expect: Some(expect),
                line: format!("{{\"id\":\"s{conn}-{n}\",\"session\":{session},{body}}}"),
            });
            n += 1;
        };
        for cycle in 0..cycles {
            let (add, remove) = match cycle % CHURN_PIVOT_EVERY {
                6 => (&extras[pivot], originals[pivot].name()),
                7 => (&originals[pivot], extras[pivot].name()),
                _ => {
                    let k =
                        (mix(seed, (conn * cycles + cycle) as u64) % extras.len() as u64) as usize;
                    (&extras[k], extras[k].name())
                }
            };
            current.push(add.clone());
            push(
                Kind::ViewAdd,
                expected.intern(views_fragment(&current)),
                format!(
                    "\"type\":\"view_add\",\"view\":{}",
                    Json::str(add.to_string()).render()
                ),
            );
            let e = expected_record(&engine, &mut expected, &mut records, &current, &query)?;
            push(Kind::Redecide, e, "\"type\":\"redecide\"".to_string());
            current.retain(|v| v.name() != remove);
            push(
                Kind::ViewRemove,
                expected.intern(views_fragment(&current)),
                format!(
                    "\"type\":\"view_remove\",\"view\":{}",
                    Json::str(remove).render()
                ),
            );
            let e = expected_record(&engine, &mut expected, &mut records, &current, &query)?;
            push(Kind::Redecide, e, "\"type\":\"redecide\"".to_string());
        }
    }
    Ok(Inputs {
        setup,
        stream,
        expected,
        facts: vec![
            (
                "cycles_per_connection".to_string(),
                Json::num(cycles as i64),
            ),
            ("pivots".to_string(), Json::Arr(pivots)),
            (
                "distinct_view_sets".to_string(),
                Json::num(records.len() as i64),
            ),
        ],
    })
}

/// The `"views":[...]` member a `view_add`/`view_remove` answer carries.
fn views_fragment(views: &[ConjunctiveQuery]) -> String {
    let names = Json::Arr(views.iter().map(|v| Json::str(v.name())).collect());
    format!("\"views\":{},", names.render())
}

/// The record a one-shot `decide` of `views` gives, as the `"record":...}`
/// tail a `redecide` answer must end with; computed once per view set.
fn expected_record(
    engine: &Engine,
    expected: &mut Expected,
    records: &mut BTreeMap<String, usize>,
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
) -> io::Result<usize> {
    let key = views.iter().fold(String::new(), |mut acc, v| {
        let _ = write!(acc, "{},", v.name());
        acc
    });
    if let Some(&i) = records.get(&key) {
        return Ok(i);
    }
    let line = decide_line("oracle", &program_text(views, query), query.name(), false);
    let Some(Response::Decide { record, .. }) = respond_to_line(engine, &line) else {
        return Err(io::Error::other("one-shot oracle decide failed"));
    };
    let i = expected.intern(format!("\"record\":{}}}", record.to_json().render()));
    records.insert(key, i);
    Ok(i)
}
