//! `perfbench` — the end-to-end benchmark of the cqdet server.
//!
//! `run.py` drives this binary; every subcommand is one fresh process, so
//! the process-global cache ledger, watermark and candidate memo never leak
//! from one measurement into the next.
//!
//! ```text
//! perfbench prepare --workload W --seed N --seconds S --dir D   write the inputs
//! perfbench setup   --workload W --dir D                        time one server set-up
//! perfbench measure --workload W --seed N --seconds S --dir D [--record]
//! perfbench replay  --workload W --dir D --mode whole|traced [--spans FILE]
//! ```
//!
//! Each prints one JSON object on stdout.  Exit status 3 means a wrong
//! answer, 2 any other failure.

mod loadgen;
mod replay;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Why a run stopped.
pub enum Fail {
    /// The server (or the replay) gave a wrong answer.
    Wrong(String),
    /// Anything else: I/O, a dead server, bad arguments.
    Io(String),
}

/// The `q`-quantile of sorted samples (nearest rank); NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: PathBuf,
    record: bool,
    mode: String,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, Fail> {
    let mut it = std::env::args().skip(1);
    let usage = || {
        Fail::Io(
            "usage: perfbench prepare|setup|measure|replay --workload W --dir D [...]".to_string(),
        )
    };
    let command = it.next().ok_or_else(usage)?;
    let (mut workload, mut seed, mut seconds, mut dir) = (None, 0, 10.0, None);
    let (mut record, mut mode, mut spans) = (false, String::new(), None);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(usage)?;
        let bad = |what: &str| Fail::Io(format!("bad {what} {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--dir" => dir = Some(PathBuf::from(&value)),
            "--mode" => mode = value,
            "--spans" => spans = Some(PathBuf::from(&value)),
            _ => return Err(usage()),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        dir: dir.ok_or_else(usage)?,
        record,
        mode,
        spans,
    })
}

fn run() -> Result<cqdet_engine::Json, Fail> {
    let a = parse_args()?;
    match a.command.as_str() {
        "prepare" => workload::prepare(a.workload, a.seed, a.seconds, &a.dir)
            .map_err(|e| Fail::Io(e.to_string())),
        "setup" => loadgen::run(a.workload, a.seed, a.seconds, &a.dir, loadgen::Mode::Setup),
        "measure" => loadgen::run(
            a.workload,
            a.seed,
            a.seconds,
            &a.dir,
            loadgen::Mode::Measure { record: a.record },
        ),
        "replay" => match a.mode.as_str() {
            "whole" => replay::whole(a.workload, &a.dir),
            "traced" => {
                let spans = a.spans.unwrap_or_else(|| a.dir.join("spans.jsonl"));
                replay::traced(a.workload, &a.dir, &spans)
            }
            other => Err(Fail::Io(format!("unknown replay mode {other:?}"))),
        },
        other => Err(Fail::Io(format!("unknown command {other:?}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(json) => {
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(Fail::Wrong(why)) => {
            eprintln!("perfbench: wrong answer: {why}");
            ExitCode::from(3)
        }
        Err(Fail::Io(why)) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(2)
        }
    }
}
