//! The flows benchmark: three closed-loop AMPI workloads, priced end to
//! end (untraced runs) and layer by layer (traced runs).
//!
//! ```text
//! flows-perfbench --workload btmz|migrate_churn|mp_pingpong --seed N
//!                 --seconds S --trace 0|1 [--size full|tiny] [--out DIR]
//! ```
//!
//! A run repeats *episodes* — set up a fresh world, run a fixed number
//! of steps, return from `run_world` — until `--seconds` have passed.
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See README.md for every metric.

mod btmz;
mod churn;
mod episode;
mod ladder;
mod pingpong;
mod probe;
mod report;
mod stats;
mod trace;

use episode::Episode;
use std::path::PathBuf;

/// Workload size: `full` for measurements, `tiny` for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn as_str(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub out: PathBuf,
    /// Child process of a 2-process world: which scenario to join.
    pub child: Option<String>,
    /// Leader subprocess: which episode or ladder row to run, when its
    /// set-up started, whether to trace it, and where to write it.
    pub sub: Option<String>,
    pub t0: u64,
    pub traced_episode: bool,
    pub result: Option<PathBuf>,
}

/// The seed `BENCHMARK.json` runs use when none is given.
pub const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        size: Size::Full,
        out: PathBuf::from("perfbench/out"),
        child: None,
        sub: None,
        t0: 0,
        traced_episode: false,
        result: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = val()?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                args.size = match val()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, not {v}")),
                }
            }
            "--out" => args.out = PathBuf::from(val()?),
            "--child" => args.child = Some(val()?),
            "--sub" => args.sub = Some(val()?),
            "--t0" => args.t0 = val()?.parse().map_err(|e| format!("--t0: {e}"))?,
            "--traced" => args.traced_episode = val()? == "1",
            "--result" => args.result = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The three workloads behind one interface.
enum Workload {
    Btmz(btmz::Btmz),
    Churn(churn::Churn),
    PingPong(pingpong::PingPong),
}

impl Workload {
    fn episode(&self, traced: bool) -> Episode {
        match self {
            Workload::Btmz(w) => w.episode(traced),
            Workload::Churn(w) => w.episode(traced),
            Workload::PingPong(w) => w.episode(traced),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(scenario) = args.child.clone() {
        pingpong::child_main(&args, &scenario);
        return;
    }
    if let Some(what) = args.sub.clone() {
        pingpong::sub_main(&args, &what);
        return;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let workload = match args.workload.as_str() {
        "btmz" => Workload::Btmz(btmz::Btmz::new(args.seed, args.size)),
        "migrate_churn" => Workload::Churn(churn::Churn::new(args.seed, args.size)),
        "mp_pingpong" => Workload::PingPong(pingpong::PingPong::new(&args)),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (btmz, migrate_churn, mp_pingpong)");
            std::process::exit(2);
        }
    };

    // Episodes until the window closes. A traced run alternates untraced
    // and traced episodes, so the tracing overhead is measured on the
    // same host state. An untraced run on a slowed host goes on, for up
    // to EXTEND_S more, until it holds one full p99 block, so its p99 has
    // 10 steps beyond it.
    const EXTEND_S: f64 = 60.0;
    let min_episodes = if args.trace { 4 } else { 3 };
    let min_steps = if args.trace || args.size == Size::Tiny {
        0
    } else {
        report::P99_BLOCK
    };
    let t0 = stats::now_ns();
    let elapsed_s = || (stats::now_ns() - t0) as f64 * 1e-9;
    let mut episodes: Vec<Episode> = Vec::new();
    let mut steps = 0;
    while episodes.len() < min_episodes
        || elapsed_s() < args.seconds
        || (steps < min_steps && elapsed_s() < args.seconds + EXTEND_S)
    {
        let traced = args.trace && episodes.len() % 2 == 1;
        let ep = workload.episode(traced);
        steps += ep.steps_ns.len();
        episodes.push(ep);
    }
    let elapsed_s = elapsed_s();

    let ladder = if args.trace {
        report::ladder(&workload, &args)
    } else {
        report::Ladder::default()
    };
    report::print(&args, &workload, &episodes, &ladder, elapsed_s);
}
