//! `migrate_churn`: 256 AMPI ranks on 2 threaded PEs, each holding a
//! seeded isomalloc heap of 4-128 KiB filled with a seeded pattern. A
//! step is a one-hop ring exchange of 64 B messages, a heap pattern
//! check, then `migrate()` under RotateLB, so every rank moves every
//! step.

use crate::episode::{self, Episode};
use crate::probe::{self, TimedLb};
use crate::stats::Rng;
use crate::trace::{self, span, Name};
use crate::Size;
use flows_ampi::{run_world, Ampi, AmpiOptions};
use flows_lb::RotateLb;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PES: usize = 2;
const MSG_BYTES: usize = 64;
const RING_TAG: u64 = 11;

pub struct Churn {
    ranks: usize,
    steps: usize,
    seed: u64,
    /// Heap bytes of every rank (multiples of 8).
    pub heap_bytes: Vec<usize>,
}

impl Churn {
    pub fn new(seed: u64, size: Size) -> Churn {
        let (ranks, steps) = match size {
            Size::Full => (256, 50),
            Size::Tiny => (16, 6),
        };
        Churn {
            ranks,
            steps,
            seed,
            heap_bytes: heap_sizes(seed, ranks),
        }
    }

    pub fn episode(&self, traced: bool) -> Episode {
        let timer = episode::begin(self.ranks, self.steps, traced);
        let inputs = Arc::new(RankInputs {
            heap_bytes: heap_sizes(self.seed, self.ranks),
            seed: self.seed,
            steps: self.steps,
            checks: AtomicU64::new(0),
            bad: AtomicU64::new(0),
        });
        let inp = inputs.clone();
        let opts = AmpiOptions::new(self.ranks, PES)
            .threaded(true)
            .with_strategy(Arc::new(TimedLb(RotateLb)));
        let report = run_world(opts, move |ampi| rank_main(ampi, &inp));
        let mut ep = timer.finish(&report);
        let checks = inputs.checks.load(Ordering::SeqCst);
        let bad = inputs.bad.load(Ordering::SeqCst);
        let expected = (self.ranks * (self.steps + 1)) as u64;
        // A check that never ran is a failed one.
        ep.attempted += expected;
        ep.failed += bad + expected.saturating_sub(checks);
        ep
    }
}

/// Heap size per rank: 4-128 KiB, log-uniform (every doubling of size
/// equally common), 8-byte granular. The sizes are fixed quantiles and
/// the seed deals them out to ranks, so every seed moves the same bytes
/// and only who holds what, and so who neighbours whom, changes.
fn heap_sizes(seed: u64, ranks: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..ranks)
        .map(|i| {
            let u = (i as f64 + 0.5) / ranks as f64;
            (4096.0 * 32f64.powf(u)) as usize / 8 * 8
        })
        .collect();
    Rng::new(seed, 2).shuffle(&mut sizes);
    sizes
}

struct RankInputs {
    heap_bytes: Vec<usize>,
    seed: u64,
    steps: usize,
    /// Heap and message checks run, and how many of them failed.
    checks: AtomicU64,
    bad: AtomicU64,
}

/// The pattern word `i` of `rank`'s heap must hold.
fn word(seed: u64, rank: usize, i: usize) -> u64 {
    let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (rank as u64).rotate_left(32);
    base ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

fn message(seed: u64, from: usize, step: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ step as u64, 3 + from as u64);
    (0..MSG_BYTES).map(|_| rng.next_u64() as u8).collect()
}

fn rank_main(ampi: &mut Ampi, inp: &RankInputs) {
    let me = ampi.rank();
    let n = ampi.size();
    let words = inp.heap_bytes[me] / 8;
    let heap = ampi.malloc(words * 8).expect("isomalloc heap") as *mut u64;
    // SAFETY: `heap` is a fresh, 8-byte aligned allocation of `words`
    // u64s in this rank's isomalloc slot; the slot (and so the pointer)
    // keeps its address across every migration.
    let slice = unsafe { std::slice::from_raw_parts_mut(heap, words) };
    for (i, w) in slice.iter_mut().enumerate() {
        *w = word(inp.seed, me, i);
    }
    let slice: &[u64] = slice;
    let check = |slice: &[u64], extra_ok: bool| {
        let ok = extra_ok
            && slice
                .iter()
                .enumerate()
                .all(|(i, &w)| w == word(inp.seed, me, i));
        inp.checks.fetch_add(1, Ordering::Relaxed);
        if !ok {
            inp.bad.fetch_add(1, Ordering::Relaxed);
        }
    };
    let prev = (me + n - 1) % n;
    for step in 0..inp.steps {
        if me == 0 {
            probe::step_begin();
        }
        trace::set_step(me, step);
        span(me, Name::Step, || {
            let out = message(inp.seed, me, step);
            span(me, Name::AmpiSend, || {
                ampi.send((me + 1) % n, RING_TAG, out)
            });
            let (src, _, got) = span(me, Name::AmpiRecv, || ampi.recv(Some(prev), Some(RING_TAG)));
            span(me, Name::BenchValidate, || {
                check(slice, src == prev && got == message(inp.seed, prev, step))
            });
            span(me, Name::AmpiMigrate, || ampi.migrate());
        });
        if me == 0 {
            probe::step_end();
        }
    }
    // The last migration gets its own check.
    check(slice, true);
    ampi.free(heap as *mut u8);
    probe::rank_finished();
}
