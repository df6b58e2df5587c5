//! One episode: set up a world, run its steps to quiescence, and keep
//! what the probes, the spans and the machine report saw.

use crate::probe::{self, LbSample};
use crate::stats::{self, cpu_self_s, now_ns};
use crate::trace::{self, Span};
use flows_converse::MachineReport;

#[derive(Debug, Default)]
pub struct Episode {
    pub traced: bool,
    /// Start of the workload to rank 0's first step.
    pub setup_s: f64,
    /// Rank 0's first step to the return of `run_world`.
    pub solve_s: f64,
    /// Rank 0's step durations, ns.
    pub steps_ns: Vec<u64>,
    /// CPU seconds over the solve phase, this process plus children.
    pub cpu_s: f64,
    /// The last rank's finish to the return of `run_world`.
    pub quiesce_ms: f64,
    /// Peak resident memory of rank 0's process and its children over
    /// the episode, MiB.
    pub rss_mib: f64,
    pub messages: u64,
    pub switches: u64,
    pub migrations: u64,
    pub stranded: u64,
    pub vm_syscalls: u64,
    pub pe_busy_frac: f64,
    pub lb: Vec<LbSample>,
    pub lb_batch_messages: u64,
    /// Shared-memory body staging copies, this process plus children.
    pub body_copies: u64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Vec<Span>>,
}

impl Episode {
    /// Count one validation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Brackets one `run_world` call. `begin` before any set-up work,
/// `finish` right after `run_world` returns.
pub struct Timer {
    t0: u64,
    traced: bool,
    lb_batches0: u64,
}

pub fn begin(ranks: usize, steps: usize, traced: bool) -> Timer {
    begin_at(now_ns(), ranks, steps, traced)
}

/// [`begin`] for an episode whose set-up started at `t0` ([`now_ns`]
/// clock), possibly in another process.
pub fn begin_at(t0: u64, ranks: usize, steps: usize, traced: bool) -> Timer {
    stats::reset_peak_rss();
    probe::reset(steps);
    if traced {
        trace::enable(ranks);
    }
    Timer {
        t0,
        traced,
        lb_batches0: flows_ampi::lb_batch_messages(),
    }
}

impl Timer {
    pub fn finish(self, report: &MachineReport) -> Episode {
        let t_ret = now_ns();
        let cpu_ret = cpu_self_s();
        let spans = if self.traced {
            trace::take()
        } else {
            Vec::new()
        };
        let (log, last_finish) = probe::collect();
        let first = if log.first_ns == 0 {
            t_ret
        } else {
            log.first_ns
        };
        let vm = |s: &flows_sys::counters::SyscallCounts| {
            s.mmap + s.munmap + s.mprotect + s.madvise + s.remap + s.fallocate
        };
        let busy: f64 = report.pe_busy.iter().map(|&b| b as f64).sum();
        let mut ep = Episode {
            traced: self.traced,
            setup_s: (first - self.t0) as f64 * 1e-9,
            solve_s: (t_ret - first) as f64 * 1e-9,
            steps_ns: log.steps,
            cpu_s: if log.first_ns == 0 {
                0.0
            } else {
                cpu_ret - log.cpu_at_first
            },
            quiesce_ms: t_ret.saturating_sub(last_finish) as f64 * 1e-6,
            messages: report.messages,
            switches: report.sched_stats.iter().map(|s| s.switches).sum(),
            migrations: report.sched_stats.iter().map(|s| s.migrations_in).sum(),
            stranded: report.stranded_threads.iter().map(|&s| s as u64).sum(),
            vm_syscalls: report.syscalls.iter().map(vm).sum(),
            pe_busy_frac: busy
                / (report.pe_busy.len().max(1) as f64 * report.wall_ns.max(1) as f64),
            rss_mib: stats::peak_rss_mib(),
            lb: probe::lb_samples(),
            lb_batch_messages: flows_ampi::lb_batch_messages() - self.lb_batches0,
            spans,
            ..Episode::default()
        };
        ep.check(ep.stranded == 0);
        ep
    }
}

/// Line-oriented text form, for episodes run in a subprocess: one
/// `key value` line per counter, then `steps`, then one `span` line per
/// span.
impl Episode {
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let f = [
            ("setup_s", self.setup_s),
            ("solve_s", self.solve_s),
            ("cpu_s", self.cpu_s),
            ("quiesce_ms", self.quiesce_ms),
            ("rss_mib", self.rss_mib),
            ("pe_busy_frac", self.pe_busy_frac),
        ];
        for (k, v) in f {
            out.push_str(&format!("{k} {v:?}\n"));
        }
        let u = [
            ("traced", u64::from(self.traced)),
            ("messages", self.messages),
            ("switches", self.switches),
            ("migrations", self.migrations),
            ("stranded", self.stranded),
            ("vm_syscalls", self.vm_syscalls),
            ("lb_batch_messages", self.lb_batch_messages),
            ("body_copies", self.body_copies),
            ("attempted", self.attempted),
            ("failed", self.failed),
        ];
        for (k, v) in u {
            out.push_str(&format!("{k} {v}\n"));
        }
        out.push_str("steps");
        for s in &self.steps_ns {
            out.push_str(&format!(" {s}"));
        }
        out.push('\n');
        for (rank, spans) in self.spans.iter().enumerate() {
            for s in spans {
                out.push_str(&format!(
                    "span {rank} {} {} {} {} {}\n",
                    s.name.as_str(),
                    s.step,
                    s.parent,
                    s.start,
                    s.end
                ));
            }
        }
        out
    }

    pub fn from_text(text: &str) -> Option<Episode> {
        let mut ep = Episode::default();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            let key = it.next()?;
            let mut num = || it.next().and_then(|v| v.parse::<f64>().ok());
            match key {
                "setup_s" => ep.setup_s = num()?,
                "solve_s" => ep.solve_s = num()?,
                "cpu_s" => ep.cpu_s = num()?,
                "quiesce_ms" => ep.quiesce_ms = num()?,
                "rss_mib" => ep.rss_mib = num()?,
                "pe_busy_frac" => ep.pe_busy_frac = num()?,
                "steps" => {
                    ep.steps_ns = it.map(|v| v.parse().ok()).collect::<Option<Vec<u64>>>()?;
                }
                "span" => {
                    let rank: usize = it.next()?.parse().ok()?;
                    let name = crate::trace::Name::parse(it.next()?)?;
                    let mut n = || it.next().and_then(|v| v.parse::<u64>().ok());
                    let (step, parent, start, end) = (n()?, n()?, n()?, n()?);
                    if ep.spans.len() <= rank {
                        ep.spans.resize(rank + 1, Vec::new());
                    }
                    ep.spans[rank].push(Span {
                        name,
                        step: step as u32,
                        parent: parent as u32,
                        start,
                        end,
                    });
                }
                _ => {
                    let v = it.next()?.parse::<u64>().ok()?;
                    match key {
                        "traced" => ep.traced = v == 1,
                        "messages" => ep.messages = v,
                        "switches" => ep.switches = v,
                        "migrations" => ep.migrations = v,
                        "stranded" => ep.stranded = v,
                        "vm_syscalls" => ep.vm_syscalls = v,
                        "lb_batch_messages" => ep.lb_batch_messages = v,
                        "body_copies" => ep.body_copies = v,
                        "attempted" => ep.attempted = v,
                        "failed" => ep.failed = v,
                        _ => return None,
                    }
                }
            }
        }
        Some(ep)
    }
}
