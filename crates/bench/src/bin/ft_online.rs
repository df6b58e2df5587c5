//! Online-recovery chaos soak: randomized crash/stall schedules healed
//! in place, with detection latency and MTTR measured off the recovery
//! timeline.
//!
//! For each seed a splitmix64 stream derives a fault schedule — one or
//! two PE crashes at randomized virtual times, sometimes a transient
//! stall and a pinch of packet loss on top — and the same ring workload
//! runs once fault-free and once under the schedule with online recovery
//! (in-memory buddy checkpoints, phi-accrual failure detection, in-place
//! rollback/respawn). Every run must finish with bit-identical per-rank
//! checksums, no stranded threads, and only allowed casualties dead.
//!
//! Per seed the table and `BENCH_ft.json` record:
//!
//! * **detect ms** — first `Suspect` of the victim minus the scripted
//!   crash time (phi-accrual detection latency, modeled ms);
//! * **confirm ms** — first `Confirm` minus the crash time;
//! * **mttr ms** — `Resume` minus first `Suspect` of that round (time
//!   from first suspicion to a healed, running machine);
//! * the recovery-round count and the checksum verdict.
//!
//! `--seeds N` soak width (default 12); `--fast` shrinks to 4 seeds;
//! `--json PATH` overrides the output path. Exits non-zero if any run
//! diverges from the fault-free answer or fails to heal.

use flows_ampi::{run_world, AmpiOptions};
use flows_bench::{arg_flag, arg_val, Table};
use flows_converse::{FaultPlan, NetModel, RecoveryPhase};
use flows_lb::GreedyLb;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const RANKS: usize = 8;
const PES: usize = 4;
const ITERS: usize = 10;

/// splitmix64: the per-seed schedule stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

type Results = Arc<Mutex<HashMap<usize, u64>>>;

fn workload(results: Results) -> impl Fn(&mut flows_ampi::Ampi) + Send + Sync {
    move |ampi| {
        let me = ampi.rank();
        let n = ampi.size();
        let mut check: u64 = me as u64 + 1;
        for it in 0..ITERS {
            let next = (me + 1) % n;
            ampi.send(next, 7, check.to_le_bytes().to_vec());
            // Free the received buffer before checkpoint(): heap memory
            // held across the cut is not part of the image.
            let (src, got) = {
                let (src, _, data) = ampi.recv(Some((me + n - 1) % n), Some(7));
                (src, u64::from_le_bytes(data[..8].try_into().unwrap()))
            };
            check = check
                .wrapping_mul(1_000_003)
                .wrapping_add(got)
                .wrapping_add((it * n + src) as u64);
            ampi.charge_ns(50_000 + 20_000 * me as u64);
            ampi.checkpoint();
        }
        let total = ampi.allreduce_u64_sum(&[check]);
        results.lock().unwrap().insert(me, total[0]);
    }
}

fn opts() -> AmpiOptions {
    AmpiOptions::new(RANKS, PES)
        .with_net(NetModel::default())
        .with_strategy(Arc::new(GreedyLb))
        .modeled_time(true)
}

/// One randomized schedule: 1-2 distinct victims at vts spread over the
/// run, degree-2 replication, sometimes a stall and light packet loss.
/// Returns the plan, the scripted crashes, and every PE allowed to die —
/// a long stall may legitimately end in fencing (fail-stop by decree), so
/// the staller is an allowed casualty too.
fn schedule(seed: u64) -> (FaultPlan, Vec<(usize, u64)>, Vec<usize>) {
    let mut s = seed;
    let mut plan = FaultPlan::new(seed).replication(2);
    let n_crashes = 1 + (mix(&mut s) % 2) as usize;
    let first_victim = (mix(&mut s) % PES as u64) as usize;
    let mut crashes = Vec::new();
    let mut vt = 1_500_000 + mix(&mut s) % 3_000_000;
    for i in 0..n_crashes {
        let victim = (first_victim + i * 2) % PES; // distinct by construction
        plan = plan.crash_pe(victim, vt);
        crashes.push((victim, vt));
        // Far enough apart that the second death usually lands after the
        // first heal — and sometimes inside it, exercising supersession.
        vt += 5_000_000 + mix(&mut s) % 6_000_000;
    }
    let mut allowed: Vec<usize> = crashes.iter().map(|&(v, _)| v).collect();
    if mix(&mut s).is_multiple_of(3) {
        let staller = (first_victim + 1) % PES;
        // Short stalls stay transient (suspect, then clear); long ones
        // outlast the confirm window and end in a STONITH fence.
        let steps = 200 + mix(&mut s) % 2_800;
        plan = plan.stall_pe(staller, 1_000_000 + mix(&mut s) % 2_000_000, steps);
        allowed.push(staller);
    }
    if mix(&mut s).is_multiple_of(2) {
        plan = plan.drop_prob(0.01);
    }
    (plan, crashes, allowed)
}

struct Row {
    seed: u64,
    crashes: Vec<(usize, u64)>,
    healed: usize,
    recoveries: usize,
    detect_ns: Vec<u64>,
    confirm_ns: Vec<u64>,
    mttr_ns: Vec<u64>,
    equal: bool,
}

fn mean_ms(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e6
}

fn main() {
    let fast = arg_flag("fast");
    let seeds: u64 = arg_val("seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 4 } else { 12 });
    let json_path = arg_val("json").unwrap_or_else(|| "BENCH_ft.json".into());

    let clean: Results = Arc::new(Mutex::new(HashMap::new()));
    run_world(opts(), workload(clean.clone()));
    let clean = clean.lock().unwrap().clone();
    assert_eq!(clean.len(), RANKS);

    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;
    for i in 0..seeds {
        let seed = 0xC0FFEE ^ (i.wrapping_mul(0x9E3779B97F4A7C15));
        let (plan, crashes, allowed) = schedule(seed);
        let results: Results = Arc::new(Mutex::new(HashMap::new()));
        let report = run_world(opts().with_faults(plan), workload(results.clone()));
        let got = results.lock().unwrap().clone();

        let equal = got.len() == RANKS && (0..RANKS).all(|r| got[&r] == clean[&r]);
        let healed_ok = report.stranded_threads.iter().sum::<usize>() == 0
            && report.dead_pes.iter().all(|pe| allowed.contains(pe));
        ok &= equal && healed_ok;

        // Detection latency / MTTR off the recovery timeline. A crash
        // scripted at vt X fires when the victim's clock crosses X, so
        // use the recorded Crash event as the anchor.
        let ev = &report.recovery;
        let mut detect_ns = Vec::new();
        let mut confirm_ns = Vec::new();
        let mut mttr_ns = Vec::new();
        for c in ev.iter().filter(|e| e.phase == RecoveryPhase::Crash) {
            let suspect = ev
                .iter()
                .find(|e| e.phase == RecoveryPhase::Suspect && e.dead == c.dead && e.vt >= c.vt);
            let confirm = ev
                .iter()
                .find(|e| e.phase == RecoveryPhase::Confirm && e.dead == c.dead && e.vt >= c.vt);
            if let Some(s) = suspect {
                detect_ns.push(s.vt - c.vt);
                if let Some(r) = ev
                    .iter()
                    .find(|e| e.phase == RecoveryPhase::Resume && e.vt >= s.vt)
                {
                    mttr_ns.push(r.vt - s.vt);
                }
            }
            if let Some(cf) = confirm {
                confirm_ns.push(cf.vt - c.vt);
            }
        }

        rows.push(Row {
            seed,
            crashes,
            healed: report.dead_pes.len(),
            recoveries: report.recoveries(),
            detect_ns,
            confirm_ns,
            mttr_ns,
            equal,
        });
    }

    let mut t = Table::new(&[
        "seed",
        "schedule",
        "healed",
        "rounds",
        "detect ms",
        "confirm ms",
        "mttr ms",
        "checksum equal",
    ]);
    for r in &rows {
        let sched = r
            .crashes
            .iter()
            .map(|(pe, vt)| format!("PE{pe}@{:.1}ms", *vt as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            format!("{:#x}", r.seed),
            sched,
            r.healed.to_string(),
            r.recoveries.to_string(),
            format!("{:.2}", mean_ms(&r.detect_ns)),
            format!("{:.2}", mean_ms(&r.confirm_ns)),
            format!("{:.2}", mean_ms(&r.mttr_ns)),
            r.equal.to_string(),
        ]);
    }
    t.print(&format!(
        "Chaos soak: {seeds} randomized fault schedules, online recovery (ring {RANKS} ranks / {PES} PEs, k=2 buddies)"
    ));

    let all_detect: Vec<u64> = rows.iter().flat_map(|r| r.detect_ns.clone()).collect();
    let all_mttr: Vec<u64> = rows.iter().flat_map(|r| r.mttr_ns.clone()).collect();
    println!(
        "\nexpected shape: every schedule heals in place with \
         the fault-free checksums; detection latency is set by the phi \
         threshold over a {:.1}ms heartbeat, and MTTR adds the rollback + \
         respawn + re-replication round.",
        0.1
    );

    let mut json = String::from("{\n  \"bench\": \"ft_online\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"seed\": \"{:#x}\", \"crashes\": {}, \"healed\": {}, \"recovery_rounds\": {}, \"detect_ms\": {:.3}, \"confirm_ms\": {:.3}, \"mttr_ms\": {:.3}, \"checksum_equal\": {}}}{}\n",
            r.seed,
            r.crashes.len(),
            r.healed,
            r.recoveries,
            mean_ms(&r.detect_ns),
            mean_ms(&r.confirm_ns),
            mean_ms(&r.mttr_ns),
            r.equal,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"summary\": {{\"seeds\": {}, \"mean_detect_ms\": {:.3}, \"mean_mttr_ms\": {:.3}}}\n}}\n",
        seeds,
        mean_ms(&all_detect),
        mean_ms(&all_mttr)
    ));
    std::fs::write(&json_path, json).expect("write bench json");
    println!("wrote {json_path}");

    if !ok {
        eprintln!("FAIL: a chaos run diverged from the fault-free checksum or failed to heal");
        std::process::exit(1);
    }
}
