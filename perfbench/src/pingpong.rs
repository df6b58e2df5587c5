//! `mp_pingpong`: two OS processes, one PE and one AMPI rank each, over
//! the shared-memory backend. A step is one `send` plus `recv` round
//! trip from rank 0; rank 1 echoes. Message sizes (64 B-2 KiB, below the
//! 4 KiB ring slot) come from the seed.
//!
//! The same binary is leader and child: the leader launches the child
//! with `--child <scenario>`, and the child runs the matching side and
//! exits. Rank mains are plain `fn`s that read their inputs from a
//! process-global set in both processes from the same arguments.
//!
//! The traced run adds the hop ladder underneath the AMPI round trip:
//! a raw `World::send`/`try_recv` bounce and a converse handler bounce
//! between the same two processes.

use crate::episode::{self, Episode};
use crate::probe;
use crate::stats::{cpu_self_s, now_ns, peak_rss_mib, Rng};
use crate::trace::{self, span, Name};
use crate::{Args, Size};
use flows_ampi::{run_world, Ampi, AmpiOptions};
use flows_converse::{MachineBuilder, NetModel, Payload};
use flows_net::{Backend, Frame, FrameKind, TopologySpec, World};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const TAG: u64 = 5;
/// `Frame::a` of the raw ladder's stop frame.
const STOP: u64 = u64::MAX;
const CHILD_STATS: &str = "child-stats";

#[derive(Debug)]
struct Config {
    seed: u64,
    /// Round trips per episode (and per ladder row).
    steps: usize,
    /// Message size of each step, cycled.
    sizes: Vec<usize>,
}

static CFG: OnceLock<Config> = OnceLock::new();
static ECHO_CHECKS: AtomicU64 = AtomicU64::new(0);
static ECHO_BAD: AtomicU64 = AtomicU64::new(0);

fn cfg() -> &'static Config {
    CFG.get()
        .expect("pingpong inputs set before any world starts")
}

/// Make this process's inputs from the seed. Leader and child call it
/// with the same arguments, so they agree on every step.
fn set_inputs(seed: u64, size: Size) {
    let steps = match size {
        Size::Full => 20_000,
        Size::Tiny => 200,
    };
    let mut rng = Rng::new(seed, 4);
    let sizes = (0..4096).map(|_| rng.range(64, 2048) as usize).collect();
    let _ = CFG.set(Config { seed, steps, sizes });
}

fn payload(step: usize) -> Vec<u8> {
    let c = cfg();
    let len = c.sizes[step % c.sizes.len()];
    let mut rng = Rng::new(c.seed ^ step as u64, 5);
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// The AMPI rank main, identical in both processes.
fn rank_main(ampi: &mut Ampi) {
    let steps = cfg().steps;
    if ampi.rank() == 0 {
        for step in 0..steps {
            let out = payload(step);
            let expect = out.clone();
            probe::step_begin();
            trace::set_step(0, step);
            let ok = span(0, Name::Step, || {
                span(0, Name::AmpiSend, || ampi.send(1, TAG, out));
                let (src, tag, echo) = span(0, Name::AmpiRecv, || ampi.recv(Some(1), Some(TAG)));
                span(0, Name::BenchValidate, || {
                    src == 1 && tag == TAG && echo == expect
                })
            });
            probe::step_end();
            ECHO_CHECKS.fetch_add(1, Ordering::Relaxed);
            if !ok {
                ECHO_BAD.fetch_add(1, Ordering::Relaxed);
            }
        }
    } else {
        // The echoing child is not traced; rank 0's `ampi.recv` prices it.
        for _ in 0..steps {
            probe::step_begin();
            let (_, tag, data) = ampi.recv(Some(0), None);
            ampi.send(0, tag, data);
            probe::step_end();
        }
    }
    probe::rank_finished();
}

pub struct PingPong {
    args: Args,
    launches: AtomicU64,
}

impl PingPong {
    pub fn new(args: &Args) -> PingPong {
        set_inputs(args.seed, args.size);
        PingPong {
            args: args.clone(),
            launches: AtomicU64::new(0),
        }
    }

    /// Run `what` in a fresh leader subprocess and return what it wrote.
    ///
    /// A multi-process machine must map its isomalloc region at a fixed
    /// address, and that mapping is still in place after `run_world`
    /// returns, so a second machine in the same process cannot get the
    /// address and refuses to start. Every episode therefore starts a
    /// new leader process, as a real run would; its launch counts as
    /// set-up.
    fn sub(&self, what: &str, t0: u64, traced: bool) -> Option<String> {
        let n = self.launches.fetch_add(1, Ordering::Relaxed);
        let result = self
            .args
            .out
            .join(format!("{what}-{}-{n}.txt", std::process::id()));
        let mut argv = child_args(&self.args);
        argv.extend([
            "--sub".into(),
            what.into(),
            "--t0".into(),
            t0.to_string(),
            "--traced".into(),
            u8::from(traced).to_string(),
            "--result".into(),
            result.display().to_string(),
        ]);
        let exe = std::env::current_exe().ok()?;
        let status = std::process::Command::new(exe).args(argv).status().ok()?;
        let text = std::fs::read_to_string(&result).ok();
        let _ = std::fs::remove_file(&result);
        if status.success() {
            text
        } else {
            None
        }
    }

    pub fn episode(&self, traced: bool) -> Episode {
        let t0 = now_ns();
        let ep = self
            .sub("ampi", t0, traced)
            .and_then(|t| Episode::from_text(&t));
        ep.unwrap_or_else(|| {
            // The leader died or wrote nothing: every validation failed.
            let n = cfg().steps as u64 + 3;
            Episode {
                traced,
                attempted: n,
                failed: n,
                ..Episode::default()
            }
        })
    }

    /// Raw transport hops (round trip halved), ns, plus validations.
    /// No machine is built, so this runs in the benchmark's process.
    pub fn net_hops(&self) -> (Vec<f64>, u64, u64) {
        let (world, dir) = launch(&self.args, "net");
        let mut hops = Vec::with_capacity(cfg().steps);
        let mut bad = 0;
        for step in 0..cfg().steps {
            let body = payload(step);
            let t0 = now_ns();
            world.send(1, &frame(step as u64, Payload::from_vec(body.clone())));
            let (_, echo) = spin_recv(&world);
            hops.push((now_ns() - t0) as f64 / 2.0);
            bad += u64::from(echo.a != step as u64 || echo.body != body);
        }
        world.send(1, &frame(STOP, Payload::empty()));
        let clean = world.shutdown().is_ok();
        let _ = std::fs::remove_dir_all(&dir);
        (hops, cfg().steps as u64 + 1, bad + u64::from(!clean))
    }

    /// Converse handler hops (round trip halved), ns, from a leader
    /// subprocess (it builds a machine).
    pub fn converse_hops(&self) -> (Vec<f64>, u64, u64) {
        let hops: Vec<f64> = self
            .sub("converse", now_ns(), false)
            .map(|t| {
                t.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let expected = cfg().steps as u64;
        let missing = expected.saturating_sub(hops.len() as u64);
        (hops, expected, missing)
    }
}

/// Launch a 2-process world whose child runs `scenario`.
fn launch(args: &Args, scenario: &str) -> (Arc<World>, PathBuf) {
    let dir = args
        .out
        .join(format!("session-{}-{scenario}", std::process::id()));
    let mut argv = child_args(args);
    argv.extend(["--child".into(), scenario.into()]);
    let world = TopologySpec::new(2, 1)
        .backend(Backend::Shm)
        .session_dir(dir.clone())
        .child_args(argv)
        .launch()
        .expect("launch the 2-process world");
    (world, dir)
}

/// Leader subprocess entry (`--sub`): run one AMPI episode, or the
/// converse hop row, and write the result where the parent asked.
pub fn sub_main(args: &Args, what: &str) {
    set_inputs(args.seed, args.size);
    let result = args.result.clone().expect("--sub needs --result");
    let text = match what {
        "ampi" => leader_episode(args).to_text(),
        "converse" => {
            let (world, dir) = launch(args, "converse");
            let hops = converse_bounce(&world);
            world.shutdown().expect("converse child exited clean");
            let _ = std::fs::remove_dir_all(&dir);
            hops.iter().map(|h| format!("{h:?}\n")).collect()
        }
        other => panic!("unknown --sub {other:?}"),
    };
    std::fs::write(&result, text).expect("write the episode result");
}

fn leader_episode(args: &Args) -> Episode {
    let timer = episode::begin_at(args.t0, 2, cfg().steps, args.traced_episode);
    let (world, dir) = launch(args, "ampi");
    let opts = AmpiOptions::new(2, 2).multiproc(world.clone());
    let report = run_world(opts, rank_main);
    let mut ep = timer.finish(&report);
    ep.check(world.shutdown().is_ok());
    let child = ChildStats::read(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    ep.check(child.is_some());
    let child = child.unwrap_or_default();
    ep.cpu_s += child.cpu_s;
    ep.rss_mib = peak_rss_mib() + child.rss_mib;
    ep.body_copies = flows_net::body_copies() + child.body_copies;
    ep.check(ep.body_copies == 0);
    let expected = cfg().steps as u64;
    let checks = ECHO_CHECKS.load(Ordering::SeqCst);
    let bad = ECHO_BAD.load(Ordering::SeqCst);
    ep.attempted += expected;
    ep.failed += bad + expected.saturating_sub(checks);
    ep
}

/// The arguments that make a subprocess's inputs equal this one's.
fn child_args(args: &Args) -> Vec<String> {
    vec![
        "--seed".into(),
        args.seed.to_string(),
        "--size".into(),
        args.size.as_str().into(),
        "--out".into(),
        args.out.display().to_string(),
    ]
}

fn frame(a: u64, body: Payload) -> Frame {
    Frame {
        kind: FrameKind::Data,
        ctrl: 0,
        src_pe: 0,
        dst_pe: 0,
        a,
        b: 0,
        c: 0,
        body,
    }
}

fn spin_recv(world: &World) -> (usize, Frame) {
    loop {
        if let Some(got) = world.try_recv() {
            return got;
        }
        std::hint::spin_loop();
    }
}

/// Converse-level bounce between PE 0 (leader) and PE 1 (child); the
/// remaining hop count rides in the first 8 bytes of the body.
static BOUNCE: Mutex<(u64, Vec<f64>)> = Mutex::new((0, Vec::new()));

fn converse_bounce(world: &Arc<World>) -> Vec<f64> {
    let steps = cfg().steps as u64;
    let body = |left: u64, step: u64| {
        let mut v = payload(step as usize);
        v[..8].copy_from_slice(&left.to_le_bytes());
        v
    };
    *BOUNCE.lock().expect("bounce log poisoned") = (0, Vec::with_capacity(steps as usize));
    let mut mb = MachineBuilder::new(2)
        .net_model(NetModel::zero())
        .multiproc(world.clone());
    let h = mb.handler(move |pe, msg| {
        let left = u64::from_le_bytes(msg.data[..8].try_into().expect("8-byte counter"));
        if pe.id() == 1 {
            pe.send(0, msg.handler, msg.data);
            return;
        }
        let now = now_ns();
        let mut log = BOUNCE.lock().expect("bounce log poisoned");
        let sent = log.0;
        log.1.push((now - sent) as f64 / 2.0);
        if left > 1 {
            log.0 = now_ns();
            drop(log);
            pe.send(1, msg.handler, body(left - 1, steps - left + 1));
        }
    });
    mb.run(move |pe| {
        if pe.id() == 0 {
            BOUNCE.lock().expect("bounce log poisoned").0 = now_ns();
            pe.send(1, h, body(steps, 0));
        }
    });
    std::mem::take(&mut BOUNCE.lock().expect("bounce log poisoned").1)
}

#[derive(Debug, Default)]
struct ChildStats {
    cpu_s: f64,
    rss_mib: f64,
    body_copies: u64,
}

impl ChildStats {
    fn read(dir: &Path) -> Option<ChildStats> {
        let text = std::fs::read_to_string(dir.join(CHILD_STATS)).ok()?;
        let mut it = text.split_whitespace();
        Some(ChildStats {
            cpu_s: it.next()?.parse().ok()?,
            rss_mib: it.next()?.parse().ok()?,
            body_copies: it.next()?.parse().ok()?,
        })
    }
}

/// Child side of every scenario: attach, run the same SPMD body as the
/// leader, report CPU, memory and body copies, exit.
pub fn child_main(args: &Args, scenario: &str) {
    set_inputs(args.seed, args.size);
    let world = flows_net::attach_from_env().expect("child attach");
    match scenario {
        "ampi" => {
            probe::reset(cfg().steps);
            let opts = AmpiOptions::new(2, 2).multiproc(world.clone());
            run_world(opts, rank_main);
            let cpu_end = cpu_self_s();
            let (log, _) = probe::collect();
            let stats = format!(
                "{} {} {}\n",
                cpu_end - log.cpu_at_first,
                peak_rss_mib(),
                flows_net::body_copies()
            );
            std::fs::write(world.session_dir().join(CHILD_STATS), stats)
                .expect("write child stats");
        }
        "net" => loop {
            let (_, f) = spin_recv(&world);
            if f.a == STOP {
                break;
            }
            world.send(0, &frame(f.a, f.body));
        },
        "converse" => {
            converse_bounce(&world);
        }
        other => panic!("unknown child scenario {other:?}"),
    }
    world.shutdown().expect("child shutdown");
}
