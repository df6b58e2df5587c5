//! Fault-tolerant AMPI: coordinated checkpointing, PE-crash recovery that
//! continues on fewer live PEs, and determinism of the whole story under
//! the seeded fault plan.

use flows_ampi::{run_world, AmpiOptions};
use flows_converse::{FaultPlan, MachineReport, NetModel};
use flows_lb::GreedyLb;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Per-rank result store. Insert-overwrite keyed by rank, so a rank that
/// re-executes its tail after a rollback records the same value instead of
/// double-counting — the idempotency rule `checkpoint()` documents.
type Results = Arc<Mutex<HashMap<usize, (u64, usize)>>>;

/// An iterative ring exchange with per-iteration work and a checkpoint at
/// every iteration boundary (a matched communication boundary: every rank
/// has received the one message sent to it before it can pass the
/// checkpoint collective).
fn ring_workload(iters: usize, results: Results) -> impl Fn(&mut flows_ampi::Ampi) + Send + Sync {
    move |ampi| {
        let me = ampi.rank();
        let n = ampi.size();
        let mut check: u64 = me as u64 + 1;
        for it in 0..iters {
            let next = (me + 1) % n;
            ampi.send(next, 7, check.to_le_bytes().to_vec());
            let (src, _, data) = ampi.recv(Some((me + n - 1) % n), Some(7));
            let got = u64::from_le_bytes(data[..8].try_into().unwrap());
            check = check
                .wrapping_mul(1_000_003)
                .wrapping_add(got)
                .wrapping_add((it * n + src) as u64);
            // Skewed modeled work so the post-crash rebalance has a real
            // load picture to act on.
            ampi.charge_ns(50_000 + 20_000 * me as u64);
            ampi.checkpoint();
        }
        let total = ampi.allreduce_u64_sum(&[check]);
        results
            .lock()
            .unwrap()
            .insert(me, (total[0], ampi.current_pe()));
    }
}

fn opts(ranks: usize, pes: usize) -> AmpiOptions {
    AmpiOptions::new(ranks, pes)
        .with_net(NetModel::default())
        .with_strategy(Arc::new(GreedyLb))
        // Virtual time from modeled costs only, so the scripted crash
        // lands at the same schedule point every run.
        .modeled_time(true)
}

const RANKS: usize = 8;
const PES: usize = 4;
const ITERS: usize = 10;

fn fault_free_run() -> (MachineReport, HashMap<usize, (u64, usize)>) {
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    let report = run_world(opts(RANKS, PES), ring_workload(ITERS, results.clone()));
    // Clone out rather than try_unwrap: threads killed by a crash are
    // reclaimed without unwinding, so their Arc clones never drop.
    let map = results.lock().unwrap().clone();
    (report, map)
}

fn fault_free_results() -> HashMap<usize, (u64, usize)> {
    fault_free_run().1
}

fn faulty_run(plan: FaultPlan) -> (MachineReport, HashMap<usize, (u64, usize)>) {
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    let report = run_world(
        opts(RANKS, PES).with_faults(plan),
        ring_workload(ITERS, results.clone()),
    );
    let map = results.lock().unwrap().clone();
    (report, map)
}

/// PEs still alive at the end of a run.
fn live_pes(report: &MachineReport) -> usize {
    PES - report.dead_pes.len()
}

#[test]
fn crash_recovers_from_checkpoint_and_rebalances() {
    let (clean_report, clean) = fault_free_run();
    assert_eq!(clean.len(), RANKS);

    // Lossy links plus a PE death mid-run.
    let plan = FaultPlan::new(0xFA17)
        .drop_prob(0.02)
        .dup_prob(0.02)
        .crash_pe(2, 400_000);
    let (report, got) = faulty_run(plan);

    assert_eq!(report.dead_pes, vec![2]);
    assert!(report.recoveries() >= 1, "the crash was healed");
    assert_eq!(live_pes(&report), PES - 1, "the run finished on fewer PEs");
    let faults = report.faults.unwrap();
    assert!(faults.dropped > 0, "the plan actually dropped packets");
    assert!(
        faults.retransmits >= faults.dropped,
        "every drop was repaired"
    );
    assert!(
        report.messages > clean_report.messages,
        "the rollback re-executed work the fault-free run did once: {} vs {}",
        report.messages,
        clean_report.messages
    );

    // Results identical to the fault-free run, for every rank.
    for r in 0..RANKS {
        assert_eq!(
            got[&r].0, clean[&r].0,
            "rank {r} checksum differs after recovery"
        );
    }
    // Every rank finished on a surviving PE, and all survivors host work.
    let mut pes_seen = [0usize; PES];
    for r in 0..RANKS {
        let pe = got[&r].1;
        assert!(
            !report.dead_pes.contains(&pe),
            "rank {r} finished on dead PE {pe}"
        );
        pes_seen[pe] += 1;
    }
    assert!(
        (0..PES)
            .filter(|pe| !report.dead_pes.contains(pe))
            .all(|pe| pes_seen[pe] > 0),
        "restored ranks spread over all survivors: {pes_seen:?}"
    );
}

#[test]
fn recovery_is_deterministic() {
    let plan = || {
        FaultPlan::new(0xFA17)
            .drop_prob(0.02)
            .dup_prob(0.02)
            .crash_pe(2, 400_000)
    };
    let (r1, got1) = faulty_run(plan());
    let (r2, got2) = faulty_run(plan());
    assert_eq!(got1, got2, "rank results must replay exactly");
    assert_eq!(r1.recoveries(), r2.recoveries());
    assert_eq!(r1.dead_pes, r2.dead_pes);
    assert_eq!(r1.messages, r2.messages);
    assert_eq!(r1.pe_vtimes, r2.pe_vtimes);
    let (f1, f2) = (r1.faults.unwrap(), r2.faults.unwrap());
    assert_eq!(f1.dropped, f2.dropped);
    assert_eq!(f1.retransmits, f2.retransmits);
}

#[test]
fn crash_before_any_checkpoint_restarts_from_scratch() {
    let clean = fault_free_results();
    // PE 1 dies almost immediately — before the first generation commits.
    let plan = FaultPlan::new(7).crash_pe(1, 1_000);
    let (report, got) = faulty_run(plan);
    assert_eq!(report.dead_pes, vec![1]);
    assert!(report.recoveries() >= 1);
    assert_eq!(live_pes(&report), PES - 1);
    for r in 0..RANKS {
        assert_eq!(got[&r].0, clean[&r].0, "rank {r} checksum differs");
    }
}

#[test]
fn two_crashes_degrade_twice() {
    let clean = fault_free_results();
    let plan = FaultPlan::new(99)
        .crash_pe(3, 300_000)
        .crash_pe(1, 700_000);
    let (report, got) = faulty_run(plan);
    assert_eq!(report.dead_pes, vec![1, 3], "both scripted victims died");
    assert!(report.recoveries() >= 1);
    assert_eq!(live_pes(&report), PES - 2);
    for r in 0..RANKS {
        assert_eq!(got[&r].0, clean[&r].0, "rank {r} checksum differs");
    }
}

#[test]
fn checkpoint_without_faults_is_transparent() {
    // checkpoint() without a fault plan: snapshots are taken and never
    // read back; results match a run that never checkpoints.
    let with_ckpt = fault_free_results();
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    run_world(opts(RANKS, PES), {
        let results = results.clone();
        move |ampi| {
            let me = ampi.rank();
            let n = ampi.size();
            let mut check: u64 = me as u64 + 1;
            for it in 0..ITERS {
                let next = (me + 1) % n;
                ampi.send(next, 7, check.to_le_bytes().to_vec());
                let (src, _, data) = ampi.recv(Some((me + n - 1) % n), Some(7));
                let got = u64::from_le_bytes(data[..8].try_into().unwrap());
                check = check
                    .wrapping_mul(1_000_003)
                    .wrapping_add(got)
                    .wrapping_add((it * n + src) as u64);
                ampi.charge_ns(50_000 + 20_000 * me as u64);
                ampi.barrier(); // same collective count, no snapshot
            }
            let total = ampi.allreduce_u64_sum(&[check]);
            results.lock().unwrap().insert(me, (total[0], 0));
        }
    });
    let without = Arc::try_unwrap(results).unwrap().into_inner().unwrap();
    for r in 0..RANKS {
        assert_eq!(with_ckpt[&r].0, without[&r].0);
    }
}
