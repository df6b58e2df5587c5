//! Turning episodes into metrics: the end-to-end set (untraced
//! episodes), the per-layer set (traced episodes plus the ladder rows),
//! the attribution check, the host stamp and the final JSON line.

use crate::episode::Episode;
use crate::stats::{self, mean, median, quantile};
use crate::trace::{self, Analysis, Name};
use crate::{ladder, Args, Size, Workload};

/// The attribution check: rank 0's layer self times per step must add
/// up to the untraced step time within this share of it.
pub const ATTRIBUTION_TOL: f64 = 0.10;

/// Every workload runs on 2 PEs.
const PES: usize = 2;

#[derive(Debug, Default)]
pub struct Ladder {
    arch_swap_ns: f64,
    core_switch_ns: f64,
    core_migrate_us: Vec<f64>,
    image_kib: f64,
    net_hops_ns: Vec<f64>,
    converse_hops_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Run the ladder rows that belong to `workload` (traced runs only).
pub fn ladder(workload: &Workload, args: &Args) -> Ladder {
    let tiny = args.size == Size::Tiny;
    let mut l = Ladder::default();
    let core_rows = |l: &mut Ladder| {
        l.arch_swap_ns = ladder::arch_swap_ns(if tiny { 10_000 } else { 1_000_000 }, 5);
        l.core_switch_ns = ladder::core_switch_ns(8, if tiny { 5 } else { 100 }, 5);
    };
    match workload {
        Workload::Btmz(_) => core_rows(&mut l),
        Workload::Churn(w) => {
            core_rows(&mut l);
            let (us, kib) = ladder::core_migrate(&w.heap_bytes, if tiny { 2 } else { 8 });
            l.core_migrate_us = us;
            l.image_kib = kib;
        }
        Workload::PingPong(w) => {
            let (hops, a, f) = w.net_hops();
            l.net_hops_ns = hops;
            l.attempted += a;
            l.failed += f;
            let (hops, a, f) = w.converse_hops();
            l.converse_hops_ns = hops;
            l.attempted += a;
            l.failed += f;
        }
    }
    l
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How many samples the value summarizes, and of what.
    n: u64,
    of: &'static str,
}

fn m(name: &'static str, unit: &'static str, value: f64, n: u64, of: &'static str) -> Metric {
    Metric {
        name,
        unit,
        value,
        n,
        of,
    }
}

fn sum_u64(eps: &[&Episode], f: impl Fn(&Episode) -> u64) -> u64 {
    eps.iter().map(|e| f(e)).sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Fewest steps in a p99 block, so at least 10 lie beyond its p99.
pub const P99_BLOCK: usize = 1000;

/// Consecutive whole episodes grouped into blocks of at least
/// [`P99_BLOCK`] steps; a trailing partial block is dropped unless it
/// is the only one. Whole episodes keep each block's mix of set-up and
/// load-balancing steps the same.
fn p99_blocks(untraced: &[&Episode]) -> Vec<Vec<f64>> {
    let mut blocks = vec![Vec::new()];
    for e in untraced {
        let last = blocks.last_mut().expect("never empty");
        last.extend(e.steps_ns.iter().map(|&s| s as f64 * 1e-3));
        if last.len() >= P99_BLOCK {
            blocks.push(Vec::new());
        }
    }
    if blocks.len() > 1 {
        blocks.pop();
    }
    blocks
}

/// The p99 of each block, median over the blocks: a burst of load from
/// elsewhere on the host moves a few blocks, not the median.
fn block_p99(untraced: &[&Episode]) -> f64 {
    let mut p99s: Vec<f64> = p99_blocks(untraced)
        .iter_mut()
        .map(|b| quantile(b, 0.99))
        .collect();
    median(&mut p99s)
}

/// Every untraced step, in µs, in the order the steps ran.
fn untraced_steps_us(untraced: &[&Episode]) -> Vec<f64> {
    untraced
        .iter()
        .flat_map(|e| e.steps_ns.iter().map(|&s| s as f64 * 1e-3))
        .collect()
}

fn end_to_end(untraced: &[&Episode]) -> Vec<Metric> {
    let n = untraced.len() as u64;
    let col = |f: fn(&Episode) -> f64| untraced.iter().map(|e| f(e)).collect::<Vec<f64>>();
    let steps_us = untraced_steps_us(untraced);
    let nsteps = steps_us.len() as u64;
    vec![
        m(
            "setup_s",
            "s",
            median(&mut col(|e| e.setup_s)),
            n,
            "episodes, median",
        ),
        m(
            "solve_s",
            "s",
            median(&mut col(|e| e.solve_s)),
            n,
            "episodes, median",
        ),
        m(
            "step_p50_us",
            "us",
            quantile(&mut steps_us.clone(), 0.50),
            nsteps,
            "steps",
        ),
        m(
            "step_p99_us",
            "us",
            block_p99(untraced),
            nsteps,
            "steps, median of per-block p99",
        ),
        m(
            "cpu_s",
            "s",
            median(&mut col(|e| e.cpu_s)),
            n,
            "episodes, median",
        ),
        m(
            "peak_rss_mib",
            "MiB",
            median(&mut col(|e| e.rss_mib)),
            n,
            "episodes, median of VmHWM",
        ),
    ]
}

fn per_layer(
    workload: &Workload,
    untraced: &[&Episode],
    traced: &[&Episode],
    a: &Analysis,
    l: &Ladder,
) -> Vec<Metric> {
    let all: Vec<&Episode> = untraced.iter().chain(traced).copied().collect();
    let nt = traced.len() as f64;
    let steps = sum_u64(&all, |e| e.steps_ns.len() as u64) as f64;
    let durs = |name: Name| a.get(name).map(|s| s.durs.clone()).unwrap_or_default();
    let count = |name: Name| a.get(name).map_or(0, |s| s.count);
    let self_s = |name: Name| a.get(name).map_or(0.0, |s| s.self_ns as f64 * 1e-9);
    let q = |mut v: Vec<f64>, p: f64, scale: f64| quantile(&mut v, p) * scale;
    let lb: Vec<_> = traced.iter().flat_map(|e| e.lb.iter().copied()).collect();
    let epochs = lb.len() as u64;
    let lb_col = |f: fn(&crate::probe::LbSample) -> f64| lb.iter().map(f).collect::<Vec<f64>>();

    let (serial_s, cells) = match workload {
        Workload::Btmz(w) => (w.serial_s, w.cells_per_episode() as f64 * nt),
        _ => (0.0, 0.0),
    };
    let sweep_s = self_s(Name::NpbSweep);
    let migrate_ms = a
        .rank0_durs
        .get(&Name::AmpiMigrate)
        .cloned()
        .unwrap_or_default();
    let mut untraced_solve: Vec<f64> = untraced.iter().map(|e| e.solve_s).collect();
    let mut traced_solve: Vec<f64> = traced.iter().map(|e| e.solve_s).collect();
    let hop_us = match workload {
        Workload::PingPong(_) => median(&mut untraced_steps_us(untraced)) / 2.0,
        _ => 0.0,
    };
    let body_copies = sum_u64(&all, |e| e.body_copies) as f64;
    let migrations = sum_u64(&all, |e| e.migrations) as f64;
    let n_all = all.len() as u64;
    let n_steps = steps as u64;
    vec![
        m(
            "npb.sweep_s",
            "s",
            ratio(sweep_s, nt),
            count(Name::NpbSweep),
            "sweep spans, per episode",
        ),
        m(
            "npb.mcells_per_s",
            "Mcell/s",
            ratio(cells, sweep_s) * 1e-6,
            count(Name::NpbSweep),
            "sweep spans",
        ),
        m("npb.serial_s", "s", serial_s, 1, "serial reference run"),
        m(
            "ampi.send_p50_us",
            "us",
            q(durs(Name::AmpiSend), 0.5, 1e-3),
            count(Name::AmpiSend),
            "send spans",
        ),
        m(
            "ampi.send_p99_us",
            "us",
            q(durs(Name::AmpiSend), 0.99, 1e-3),
            count(Name::AmpiSend),
            "send spans",
        ),
        m(
            "ampi.recv_wait_s",
            "s",
            ratio(durs(Name::AmpiRecv).iter().sum::<f64>() * 1e-9, nt),
            count(Name::AmpiRecv),
            "recv spans, per episode",
        ),
        m(
            "ampi.recv_wait_p99_us",
            "us",
            q(durs(Name::AmpiRecv), 0.99, 1e-3),
            count(Name::AmpiRecv),
            "recv spans",
        ),
        m(
            "ampi.migrate_p50_ms",
            "ms",
            q(migrate_ms.clone(), 0.5, 1e-6),
            migrate_ms.len() as u64,
            "LB epochs on rank 0",
        ),
        m(
            "ampi.migrate_p99_ms",
            "ms",
            q(migrate_ms.clone(), 0.99, 1e-6),
            migrate_ms.len() as u64,
            "LB epochs on rank 0",
        ),
        m(
            "ampi.allreduce_us",
            "us",
            q(durs(Name::AmpiAllreduce), 0.5, 1e-3),
            count(Name::AmpiAllreduce),
            "allreduce spans, median",
        ),
        m(
            "ampi.lb_batch_messages",
            "count",
            ratio(
                sum_u64(traced, |e| e.lb_batch_messages) as f64,
                epochs as f64,
            ),
            epochs,
            "LB epochs, per epoch",
        ),
        m(
            "lb.decide_us",
            "us",
            median(&mut lb_col(|s| s.decide_ns as f64 * 1e-3)),
            epochs,
            "decisions, median",
        ),
        m(
            "lb.imbalance_before",
            "ratio",
            median(&mut lb_col(|s| s.imbalance_before)),
            epochs,
            "decisions, median",
        ),
        m(
            "lb.imbalance_after",
            "ratio",
            median(&mut lb_col(|s| s.imbalance_after)),
            epochs,
            "decisions, median",
        ),
        m(
            "lb.migrations_planned",
            "count",
            mean(&lb_col(|s| s.planned as f64)),
            epochs,
            "decisions, mean",
        ),
        m(
            "core.switches_per_step",
            "count",
            ratio(sum_u64(&all, |e| e.switches) as f64, steps),
            n_steps,
            "steps",
        ),
        m(
            "core.migrations_per_step",
            "count",
            ratio(migrations, steps),
            n_steps,
            "steps",
        ),
        m(
            "core.stranded_threads",
            "count",
            sum_u64(&all, |e| e.stranded) as f64,
            n_all,
            "episodes, total",
        ),
        m(
            "arch.swap_ns",
            "ns",
            l.arch_swap_ns,
            5,
            "timed loops, median",
        ),
        m(
            "core.switch_ns",
            "ns",
            l.core_switch_ns,
            5,
            "timed windows, median",
        ),
        m(
            "core.migrate_us",
            "us",
            median(&mut l.core_migrate_us.clone()),
            l.core_migrate_us.len() as u64,
            "migrations, median",
        ),
        m(
            "sys.vm_syscalls_per_migration",
            "count",
            ratio(sum_u64(&all, |e| e.vm_syscalls) as f64, migrations),
            migrations as u64,
            "migrations",
        ),
        m(
            "mem.image_kib",
            "KiB",
            l.image_kib,
            l.core_migrate_us.len() as u64,
            "packed images, mean",
        ),
        m(
            "converse.msgs_per_step",
            "count",
            ratio(sum_u64(&all, |e| e.messages) as f64, steps),
            n_steps,
            "steps",
        ),
        m(
            "converse.pe_busy_frac",
            "ratio",
            mean(&all.iter().map(|e| e.pe_busy_frac).collect::<Vec<_>>()),
            n_all,
            "episodes, mean",
        ),
        m(
            "converse.quiesce_ms",
            "ms",
            median(&mut all.iter().map(|e| e.quiesce_ms).collect::<Vec<_>>()),
            n_all,
            "episodes, median",
        ),
        m(
            "net.hop_p50_us",
            "us",
            q(l.net_hops_ns.clone(), 0.5, 1e-3),
            l.net_hops_ns.len() as u64,
            "raw hops",
        ),
        m(
            "net.hop_p99_us",
            "us",
            q(l.net_hops_ns.clone(), 0.99, 1e-3),
            l.net_hops_ns.len() as u64,
            "raw hops",
        ),
        m(
            "converse.hop_p50_us",
            "us",
            q(l.converse_hops_ns.clone(), 0.5, 1e-3),
            l.converse_hops_ns.len() as u64,
            "handler hops",
        ),
        m(
            "ampi.hop_p50_us",
            "us",
            hop_us,
            n_steps,
            "untraced round trips, halved",
        ),
        m(
            "net.body_copies",
            "count",
            body_copies,
            n_all,
            "episodes, total",
        ),
        m(
            "trace.overhead_frac",
            "ratio",
            ratio(median(&mut traced_solve), median(&mut untraced_solve)) - 1.0,
            n_all,
            "episodes, traced over untraced solve_s",
        ),
        m(
            "trace.unattributed_frac",
            "ratio",
            a.unattributed_frac(),
            a.steps,
            "rank-0 traced steps",
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

pub fn print(args: &Args, workload: &Workload, episodes: &[Episode], l: &Ladder, elapsed_s: f64) {
    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let mut analysis = Analysis::default();
    for e in &traced {
        analysis.add(&e.spans);
    }
    let attempted = episodes.iter().map(|e| e.attempted).sum::<u64>() + l.attempted;
    let failed = episodes.iter().map(|e| e.failed).sum::<u64>() + l.failed;

    println!(
        "perfbench workload={} seed={} trace={} size={} seconds={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.size.as_str(),
        args.seconds
    );
    let stamp = stats::host_stamp();
    println!(
        "host {}",
        stamp
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let steps: usize = untraced.iter().map(|e| e.steps_ns.len()).sum();
    println!(
        "run episodes={} untraced={} traced={} untraced_steps={} elapsed_s={:.3}",
        episodes.len(),
        untraced.len(),
        traced.len(),
        steps,
        elapsed_s
    );

    let e2e = end_to_end(&untraced);
    let mut metrics = Vec::new();
    for x in &e2e {
        println!(
            "end_to_end {} = {:.6} {} (n={} {})",
            x.name, x.value, x.unit, x.n, x.of
        );
    }
    let steps_us = untraced_steps_us(&untraced);
    let blocks = p99_blocks(&untraced);
    println!(
        "end_to_end step_p99_us blocks = {}, smallest {} steps, {} beyond its p99",
        blocks.len(),
        blocks.iter().map(Vec::len).min().unwrap_or(0),
        blocks.iter().map(|b| b.len() / 100).min().unwrap_or(0)
    );
    println!(
        "end_to_end fail_ratio = {} ratio (n={attempted} validations, {failed} failed)",
        ratio(failed as f64, attempted as f64)
    );

    let mut attribution_ok = true;
    if args.trace {
        let layers = per_layer(workload, &untraced, &traced, &analysis, l);
        for x in &layers {
            println!(
                "per_layer {} = {:.6} {} (n={} {})",
                x.name, x.value, x.unit, x.n, x.of
            );
        }
        // Tiny steps are too short for the spans' own cost to vanish, so
        // the check only gates full-size runs.
        attribution_ok = attribution(&analysis, &steps_us) || args.size == Size::Tiny;
        metrics = layers;
        if let Some(first) = traced.first() {
            let path = args
                .out
                .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
            match trace::dump(&path, std::slice::from_ref(&first.spans)) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
        }
    } else {
        metrics.extend(e2e);
    }

    let finite = metrics.iter().all(|x| x.value.is_finite());
    let positive = args.trace || metrics.iter().all(|x| x.value > 0.0);
    let correct = failed == 0 && finite && positive && attribution_ok;
    let body = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"episodes\": {}, \"host\": {{{}}}, \"result\": {line}}}\n",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        episodes.len(),
        stamp
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let path = args.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{line}");
}

/// Print where rank 0's traced step time went, and check that the layer
/// self times add up to the untraced step time.
fn attribution(a: &Analysis, untraced_steps_us: &[f64]) -> bool {
    if a.steps == 0 {
        return true;
    }
    let per_step = |ns: u64| ns as f64 * 1e-3 / a.steps as f64;
    let traced_us = per_step(a.step_ns);
    let layers_us: f64 = a
        .rank0_self_ns
        .iter()
        .filter(|(n, _)| **n != Name::Step)
        .map(|(_, &ns)| per_step(ns))
        .sum();
    for (name, &ns) in &a.rank0_self_ns {
        let label = if *name == Name::Step {
            "unattributed"
        } else {
            name.as_str()
        };
        println!(
            "attribution {label} = {:.3} us/step ({:.1}% of traced step)",
            per_step(ns),
            100.0 * ratio(per_step(ns), traced_us)
        );
    }
    // The machine's view: every rank's self time in the layers that do
    // work rather than wait, against the PE time of a step.
    let pe_us = traced_us * PES as f64;
    for name in [
        Name::NpbSweep,
        Name::NpbGhost,
        Name::AmpiSend,
        Name::BenchValidate,
    ] {
        if let Some(s) = a.get(name) {
            println!(
                "attribution all ranks {} = {:.3} us/step ({:.1}% of PE time)",
                name.as_str(),
                per_step(s.self_ns),
                100.0 * ratio(per_step(s.self_ns), pe_us)
            );
        }
    }
    let untraced_us = mean(untraced_steps_us);
    let remainder = untraced_us - layers_us;
    let ok = ratio(remainder.abs(), untraced_us) <= ATTRIBUTION_TOL;
    println!(
        "attribution check: layer self times {layers_us:.3} us/step vs untraced step {untraced_us:.3} us \
         (traced step {traced_us:.3} us); remainder {remainder:.3} us = {:.1}% (tolerance {:.0}%) {}",
        100.0 * ratio(remainder, untraced_us),
        100.0 * ATTRIBUTION_TOL,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}
