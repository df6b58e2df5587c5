//! Ladder rows replayed through public calls, one layer at a time:
//! the `arch` swap, the `core` switch of an isomalloc thread, and a
//! `core` migration of a thread carrying a `migrate_churn` heap.

use crate::stats::{median, now_ns};
use flows_arch::{Context, InitialStack, SwapKind};
use flows_core::{
    iso_free, iso_malloc, suspend, yield_now, SchedConfig, Scheduler, SharedPools, StackFlavor,
};
use flows_mem::IsoConfig;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

const STACK_LEN: usize = 64 * 1024;

struct Pair {
    main: Context,
    flow: Context,
}

extern "C" fn partner(arg: usize) {
    let st = arg as *mut Pair;
    loop {
        // SAFETY: `st` points at the leaked `Pair`; the main flow only
        // runs while this one is switched out, so the two never touch
        // the contexts at the same time.
        unsafe { Context::swap_raw(&raw mut (*st).flow, &raw const (*st).main) };
    }
}

/// `Context::swap` with the minimal register set: ns per swap, median
/// of `reps` timed loops of `iters` round trips.
pub fn arch_swap_ns(iters: u64, reps: usize) -> f64 {
    // The partner never returns, so its stack and contexts are leaked
    // rather than torn down under it (one 64 KiB stack per run).
    let stack: &'static mut [u8] = Box::leak(vec![0u8; STACK_LEN].into_boxed_slice());
    let pair: &'static mut Pair = Box::leak(Box::new(Pair {
        main: Context::new(SwapKind::Minimal),
        flow: Context::new(SwapKind::Minimal),
    }));
    let st: *mut Pair = pair;
    // SAFETY: the leaked stack is committed, owned by this flow alone
    // and never freed; the pair is only switched from this OS thread.
    unsafe {
        let top = stack.as_mut_ptr().add(stack.len());
        (*st).flow = InitialStack::build(SwapKind::Minimal, top, partner, st as usize);
        for _ in 0..1000 {
            Context::swap_raw(&raw mut (*st).main, &raw const (*st).flow);
        }
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = now_ns();
            for _ in 0..iters {
                // SAFETY: as above.
                unsafe { Context::swap_raw(&raw mut (*st).main, &raw const (*st).flow) };
            }
            (now_ns() - t0) as f64 / (2 * iters) as f64
        })
        .collect();
    median(&mut samples)
}

fn pools(pes: usize, slots: usize) -> Arc<SharedPools> {
    let iso = IsoConfig {
        base: 0,
        num_pes: pes,
        slots_per_pe: slots,
        slot_len: 1 << 20,
    };
    SharedPools::new(iso, 256 * 1024).expect("ladder pools")
}

/// Isomalloc threads yielding in a ring on one scheduler: ns per
/// switch, median of `reps` windows of `window_ms`.
pub fn core_switch_ns(flows: usize, window_ms: u64, reps: usize) -> f64 {
    let sched = Scheduler::new(0, pools(1, flows + 2), SchedConfig::default());
    let stop = Rc::new(Cell::new(false));
    for _ in 0..flows {
        let stop = stop.clone();
        sched
            .spawn_with(StackFlavor::Isomalloc, STACK_LEN, move || {
                while !stop.get() {
                    yield_now();
                }
            })
            .expect("spawn ladder thread");
    }
    for _ in 0..flows * 4 {
        sched.step();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let s0 = sched.stats().switches;
            let t0 = now_ns();
            while now_ns() - t0 < window_ms * 1_000_000 {
                for _ in 0..64 {
                    sched.step();
                }
            }
            let dt = now_ns() - t0;
            dt as f64 / (sched.stats().switches - s0).max(1) as f64
        })
        .collect();
    stop.set(true);
    sched.run();
    median(&mut samples)
}

/// Isomalloc threads, each holding one of `heap_bytes`, bounced between
/// two schedulers with `flows_core::migrate`. Returns every migration's
/// time in µs and the mean packed image size in KiB.
pub fn core_migrate(heap_bytes: &[usize], rounds: usize) -> (Vec<f64>, f64) {
    let n = heap_bytes.len();
    let shared = pools(2, n + 2);
    let pe: Vec<Scheduler> = (0..2)
        .map(|i| Scheduler::new(i, shared.clone(), SchedConfig::default()))
        .collect();
    let stop = Rc::new(Cell::new(false));
    let intact = Rc::new(Cell::new(0usize));
    let mut tids = Vec::with_capacity(n);
    for &bytes in heap_bytes {
        let (stop, intact) = (stop.clone(), intact.clone());
        let tid = pe[0]
            .spawn_with(StackFlavor::Isomalloc, STACK_LEN, move || {
                let p = iso_malloc(bytes).expect("ladder heap");
                // SAFETY: `p` is a fresh allocation of `bytes` bytes in
                // this thread's slot, which keeps its address when the
                // thread migrates.
                let heap = unsafe { std::slice::from_raw_parts_mut(p, bytes) };
                heap.fill(0xA5);
                while !stop.get() {
                    suspend();
                }
                if heap.iter().all(|&b| b == 0xA5) {
                    intact.set(intact.get() + 1);
                }
                iso_free(p);
            })
            .expect("spawn ladder thread");
        tids.push(tid);
    }
    pe[0].run();
    // One pack/unpack pass measures the images; then timed migrations.
    let mut image_bytes = 0usize;
    for &tid in &tids {
        let packed = pe[0].pack_thread(tid).expect("pack");
        image_bytes += packed.payload_len();
        pe[1].unpack_thread(packed).expect("unpack");
    }
    let mut at = 1;
    let mut us = Vec::with_capacity(n * rounds);
    for _ in 0..rounds {
        for &tid in &tids {
            let t0 = now_ns();
            flows_core::migrate::migrate(&pe[at], &pe[1 - at], tid).expect("migrate");
            us.push((now_ns() - t0) as f64 * 1e-3);
        }
        at = 1 - at;
    }
    stop.set(true);
    for &tid in &tids {
        pe[at].awaken_tid(tid).expect("awaken");
    }
    pe[at].run();
    assert_eq!(intact.get(), n, "a migrated ladder heap lost its pattern");
    (us, image_bytes as f64 / n.max(1) as f64 / 1024.0)
}
