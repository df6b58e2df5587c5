//! Spans recorded by the benchmark around each call it makes into a
//! layer of the runtime.
//!
//! Every span carries its name, start, end, parent span and step id.
//! Buffers are per rank and live in a process-global table on the
//! ordinary heap, never in a rank's migratable slot: a rank that opens a
//! span on one PE and closes it on another after `migrate()` still finds
//! its buffer, and no span record travels inside a migration image.
//! When tracing is off a span is one relaxed load and a branch.

use crate::stats::now_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};

/// The span names. Each names the layer whose public call it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// One iteration of a workload's outer loop (root span).
    Step,
    AmpiSend,
    AmpiRecv,
    AmpiMigrate,
    AmpiAllreduce,
    NpbSweep,
    /// `ZoneGrid` edge extraction and ghost installation.
    NpbGhost,
    /// The benchmark's own output checks inside a step.
    BenchValidate,
}

impl Name {
    pub const ALL: [Name; 8] = [
        Name::Step,
        Name::AmpiSend,
        Name::AmpiRecv,
        Name::AmpiMigrate,
        Name::AmpiAllreduce,
        Name::NpbSweep,
        Name::NpbGhost,
        Name::BenchValidate,
    ];

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Step => "step",
            Name::AmpiSend => "ampi.send",
            Name::AmpiRecv => "ampi.recv",
            Name::AmpiMigrate => "ampi.migrate",
            Name::AmpiAllreduce => "ampi.allreduce",
            Name::NpbSweep => "npb.sweep",
            Name::NpbGhost => "npb.ghost",
            Name::BenchValidate => "bench.validate",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub step: u32,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct RankBuf {
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
}

static ON: AtomicBool = AtomicBool::new(false);
static BUFS: RwLock<Vec<Mutex<RankBuf>>> = RwLock::new(Vec::new());

/// Start recording for a world of `ranks` ranks (drops older spans).
pub fn enable(ranks: usize) {
    let mut bufs = BUFS.write().expect("span table poisoned");
    *bufs = (0..ranks).map(|_| Mutex::new(RankBuf::default())).collect();
    ON.store(true, Ordering::SeqCst);
}

/// Stop recording and hand back every rank's spans, indexed by rank.
pub fn take() -> Vec<Vec<Span>> {
    ON.store(false, Ordering::SeqCst);
    let mut bufs = BUFS.write().expect("span table poisoned");
    std::mem::take(&mut *bufs)
        .into_iter()
        .map(|b| b.into_inner().expect("rank buffer poisoned").spans)
        .collect()
}

fn with_buf<R>(rank: usize, f: impl FnOnce(&mut RankBuf) -> R) -> R {
    let bufs = BUFS.read().expect("span table poisoned");
    let mut b = bufs[rank].lock().expect("rank buffer poisoned");
    f(&mut b)
}

/// Set the step id stamped on `rank`'s subsequent spans.
pub fn set_step(rank: usize, step: usize) {
    if ON.load(Ordering::Relaxed) {
        with_buf(rank, |b| b.step = step as u32);
    }
}

/// Run `f` inside a span named `name` on `rank`'s buffer.
#[inline]
pub fn span<R>(rank: usize, name: Name, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = with_buf(rank, |b| {
        let id = b.spans.len() as u32;
        let parent = b.open.last().copied().unwrap_or(NO_PARENT);
        b.spans.push(Span {
            name,
            step: b.step,
            parent,
            start: now_ns(),
            end: 0,
        });
        b.open.push(id);
        id
    });
    let r = f();
    with_buf(rank, |b| {
        b.spans[id as usize].end = now_ns();
        let top = b.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    });
    r
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub self_ns: u64,
    /// Every span's full duration, in ns.
    pub durs: Vec<f64>,
}

/// What the spans of one or more traced episodes add up to.
#[derive(Debug, Default)]
pub struct Analysis {
    pub by_name: BTreeMap<Name, NameStats>,
    /// Rank 0's step spans: summed duration and summed self time (the
    /// part no layer span covers).
    pub step_ns: u64,
    pub step_self_ns: u64,
    pub steps: u64,
    /// Rank 0's self time per name, inside and outside steps.
    pub rank0_self_ns: BTreeMap<Name, u64>,
    /// Rank 0's span durations per name, ns.
    pub rank0_durs: BTreeMap<Name, Vec<f64>>,
}

impl Analysis {
    pub fn add(&mut self, ranks: &[Vec<Span>]) {
        for (rank, spans) in ranks.iter().enumerate() {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.dur();
                }
            }
            for (s, kids) in spans.iter().zip(&child_ns) {
                let self_ns = s.dur().saturating_sub(*kids);
                let e = self.by_name.entry(s.name).or_default();
                e.count += 1;
                e.self_ns += self_ns;
                e.durs.push(s.dur() as f64);
                if rank == 0 {
                    *self.rank0_self_ns.entry(s.name).or_default() += self_ns;
                    self.rank0_durs
                        .entry(s.name)
                        .or_default()
                        .push(s.dur() as f64);
                }
                if rank == 0 && s.name == Name::Step {
                    self.step_ns += s.dur();
                    self.step_self_ns += self_ns;
                    self.steps += 1;
                }
            }
        }
    }

    pub fn get(&self, name: Name) -> Option<&NameStats> {
        self.by_name.get(&name)
    }

    /// Share of rank 0's step time that no layer span accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        if self.step_ns == 0 {
            0.0
        } else {
            self.step_self_ns as f64 / self.step_ns as f64
        }
    }
}

/// Write spans as tab-separated rows: rank, step, name, parent index
/// (-1 = root), start ns, end ns.
pub fn dump(path: &std::path::Path, episodes: &[Vec<Vec<Span>>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "episode\trank\tstep\tname\tparent\tstart_ns\tend_ns")?;
    for (e, ranks) in episodes.iter().enumerate() {
        for (rank, spans) in ranks.iter().enumerate() {
            for s in spans {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                };
                writeln!(
                    out,
                    "{e}\t{rank}\t{}\t{}\t{parent}\t{}\t{}",
                    s.step,
                    s.name.as_str(),
                    s.start,
                    s.end
                )?;
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: Name::Step,
                step: 0,
                parent: NO_PARENT,
                start: 0,
                end: 100,
            },
            Span {
                name: Name::AmpiSend,
                step: 0,
                parent: 0,
                start: 10,
                end: 30,
            },
            Span {
                name: Name::NpbSweep,
                step: 0,
                parent: 0,
                start: 30,
                end: 90,
            },
        ];
        let mut a = Analysis::default();
        a.add(&[spans]);
        assert_eq!(a.step_ns, 100);
        assert_eq!(a.step_self_ns, 20);
        assert_eq!(a.get(Name::NpbSweep).unwrap().self_ns, 60);
        assert!((a.unattributed_frac() - 0.2).abs() < 1e-12);
    }
}
