//! Online recovery: buddy-replicated in-memory checkpoints, phi-accrual
//! failure detection, and in-place rollback/respawn — the machine heals a
//! PE death WITHOUT tearing the world down and restarting.

use flows_ampi::{run_world, AmpiOptions};
use flows_converse::{FaultPlan, MachineReport, NetModel, RecoveryPhase};
use flows_lb::GreedyLb;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Per-rank result store (insert-overwrite keyed by rank, idempotent under
/// post-rollback re-execution).
type Results = Arc<Mutex<HashMap<usize, (u64, usize)>>>;

/// Same iterative ring exchange as the offline fault tests: per-iteration
/// work, a checkpoint at every matched communication boundary.
fn ring_workload(iters: usize, results: Results) -> impl Fn(&mut flows_ampi::Ampi) + Send + Sync {
    move |ampi| {
        let me = ampi.rank();
        let n = ampi.size();
        let mut check: u64 = me as u64 + 1;
        for it in 0..iters {
            let next = (me + 1) % n;
            ampi.send(next, 7, check.to_le_bytes().to_vec());
            // Scope the received buffer so it is freed before checkpoint():
            // heap allocations held across the cut are not part of the
            // image, and a rollback would replay their drop.
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
        .modeled_time(true)
}

const RANKS: usize = 8;
const PES: usize = 4;
const ITERS: usize = 10;

fn fault_free_results() -> HashMap<usize, (u64, usize)> {
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    run_world(opts(RANKS, PES), ring_workload(ITERS, results.clone()));
    let map = results.lock().unwrap().clone();
    map
}

fn online_run(plan: FaultPlan) -> (MachineReport, HashMap<usize, (u64, usize)>) {
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    let report = run_world(
        opts(RANKS, PES).with_faults(plan),
        ring_workload(ITERS, results.clone()),
    );
    let map = results.lock().unwrap().clone();
    (report, map)
}

fn phases_of(report: &MachineReport) -> Vec<RecoveryPhase> {
    report.recovery.iter().map(|e| e.phase).collect()
}

#[test]
fn single_crash_heals_in_place() {
    let clean = fault_free_results();
    assert_eq!(clean.len(), RANKS);

    // vt 2_000_000 lands after generations 1 and 2 have committed (one
    // checkpoint round trip is ~1M ns of modeled time), so the rollback
    // exercises the buddy shelf rather than a from-scratch restart.
    let plan = FaultPlan::new(0x0F11)
        .replication(1)
        .crash_pe(2, 2_000_000);
    let (ft, got) = online_run(plan);

    // The machine was never torn down: the dead PE's scheduler simply went
    // quiet — survivors kept theirs.
    assert_eq!(ft.recoveries(), 1, "one crash, one recovery round");
    assert_eq!(ft.dead_pes, vec![2]);

    // Bit-identical results vs the fault-free run, for every rank.
    for r in 0..RANKS {
        assert_eq!(
            got[&r].0, clean[&r].0,
            "rank {r} checksum differs after online recovery"
        );
        assert_ne!(got[&r].1, 2, "rank {r} finished on the dead PE");
    }

    // The timeline walks the protocol: detection, confirmation, rollback,
    // respawn of the dead PE's ranks, resume.
    let phases = phases_of(&ft);
    for want in [
        RecoveryPhase::Crash,
        RecoveryPhase::Suspect,
        RecoveryPhase::Confirm,
        RecoveryPhase::Rollback,
        RecoveryPhase::Respawn,
        RecoveryPhase::Resume,
    ] {
        assert!(phases.contains(&want), "missing {want:?} in {phases:?}");
    }
    // Every decisive phase concerns the scripted victim. (Survivors may be
    // transiently *suspected* while they are busy replaying — the detector
    // must clear those without ever confirming them.)
    for e in &ft.recovery {
        if !matches!(e.phase, RecoveryPhase::Suspect | RecoveryPhase::Clear) {
            assert_eq!(e.dead, 2, "{:?} names PE {}, not the victim", e.phase, e.dead);
        }
    }
    let confirmed: Vec<usize> = ft
        .recovery
        .iter()
        .filter(|e| e.phase == RecoveryPhase::Confirm)
        .map(|e| e.dead)
        .collect();
    assert_eq!(confirmed, vec![2], "only the victim is ever confirmed dead");
    // Any suspicion of a live PE was withdrawn by a matching Clear.
    for e in ft.recovery.iter().filter(|e| e.phase == RecoveryPhase::Suspect) {
        if e.dead != 2 {
            assert!(
                ft.recovery
                    .iter()
                    .any(|c| c.phase == RecoveryPhase::Clear && c.pe == e.pe && c.dead == e.dead),
                "suspicion of live PE {} on PE {} was never cleared",
                e.dead,
                e.pe
            );
        }
    }
    // Rollbacks on every survivor.
    let rollback_pes: Vec<usize> = ft
        .recovery
        .iter()
        .filter(|e| e.phase == RecoveryPhase::Rollback)
        .map(|e| e.pe)
        .collect();
    assert_eq!(rollback_pes.len(), PES - 1, "all survivors rolled back");
    // MTTR is well-defined: resume strictly after the first suspicion.
    let suspect_vt = ft
        .recovery
        .iter()
        .find(|e| e.phase == RecoveryPhase::Suspect)
        .unwrap()
        .vt;
    let resume_vt = ft
        .recovery
        .iter()
        .rev()
        .find(|e| e.phase == RecoveryPhase::Resume)
        .unwrap()
        .vt;
    assert!(resume_vt > suspect_vt);
}

#[test]
fn two_sequential_crashes_heal_with_degree_two_replication() {
    let clean = fault_free_results();
    // The second death is scripted well after the first recovery resumes
    // (~8.5M), mid-replay: two full, non-overlapping recovery rounds, the
    // second served by images re-replicated during the first.
    let plan = FaultPlan::new(0x0F22)
        .replication(2)
        .crash_pe(3, 2_000_000)
        .crash_pe(1, 10_000_000);
    let (ft, got) = online_run(plan);

    assert_eq!(ft.recoveries(), 2, "two crashes, two recovery rounds");
    let mut dead = ft.dead_pes.clone();
    dead.sort_unstable();
    assert_eq!(dead, vec![1, 3]);

    for r in 0..RANKS {
        assert_eq!(
            got[&r].0, clean[&r].0,
            "rank {r} checksum differs after two online recoveries"
        );
        assert!(
            got[&r].1 != 1 && got[&r].1 != 3,
            "rank {r} finished on a dead PE"
        );
    }
}

#[test]
fn crash_during_recovery_is_superseded_and_healed() {
    let clean = fault_free_results();

    // Calibrate: run the single-crash scenario once and read the recovery
    // window off the timeline, then script a second death inside it.
    let probe = FaultPlan::new(0x0F33)
        .replication(2)
        .crash_pe(2, 2_000_000);
    let (ft0, _) = online_run(probe);
    let suspect_vt = ft0
        .recovery
        .iter()
        .find(|e| e.phase == RecoveryPhase::Suspect)
        .unwrap()
        .vt;
    let resume_vt = ft0
        .recovery
        .iter()
        .find(|e| e.phase == RecoveryPhase::Resume)
        .unwrap()
        .vt;
    assert!(resume_vt > suspect_vt);
    let mid = suspect_vt + (resume_vt - suspect_vt) / 2;

    let plan = FaultPlan::new(0x0F33)
        .replication(2)
        .crash_pe(2, 2_000_000)
        .crash_pe(0, mid);
    let (ft, got) = online_run(plan);

    let mut dead = ft.dead_pes.clone();
    dead.sort_unstable();
    assert_eq!(dead, vec![0, 2]);
    assert!(
        ft.recoveries() >= 1,
        "at least one completed recovery round healed both deaths"
    );
    for r in 0..RANKS {
        assert_eq!(
            got[&r].0, clean[&r].0,
            "rank {r} checksum differs after crash-during-recovery"
        );
        assert!(
            got[&r].1 != 0 && got[&r].1 != 2,
            "rank {r} finished on a dead PE"
        );
    }
}

#[test]
fn stall_is_suspected_then_cleared_without_rollback() {
    let clean = fault_free_results();
    // A long-but-finite stall: phi crosses the suspect threshold, then the
    // heartbeats resume before confirmation — a slow PE, not a dead one.
    let plan = FaultPlan::new(0x0F44)
        .replication(1)
        .phi_thresholds(2.0, 1e9)
        .stall_pe(1, 300_000, 4_000);
    let (ft, got) = online_run(plan);

    assert_eq!(ft.recoveries(), 0, "a stall must not trigger recovery");
    assert!(ft.dead_pes.is_empty());
    let phases = phases_of(&ft);
    assert!(
        phases.contains(&RecoveryPhase::Suspect),
        "the stall was long enough to raise suspicion: {phases:?}"
    );
    assert!(
        phases.contains(&RecoveryPhase::Clear),
        "suspicion was withdrawn when heartbeats resumed: {phases:?}"
    );
    assert!(
        !phases.contains(&RecoveryPhase::Rollback),
        "no rollback for a slow PE: {phases:?}"
    );
    for r in 0..RANKS {
        assert_eq!(got[&r].0, clean[&r].0, "rank {r} checksum differs");
    }
}

#[test]
fn online_recovery_is_deterministic() {
    let plan = || {
        FaultPlan::new(0x0F55)
            .replication(2)
            .drop_prob(0.02)
            .crash_pe(3, 300_000)
            .crash_pe(1, 900_000)
    };
    let (ft1, got1) = online_run(plan());
    let (ft2, got2) = online_run(plan());
    assert_eq!(got1, got2, "rank results must replay exactly");
    assert_eq!(ft1.recoveries(), ft2.recoveries());
    assert_eq!(ft1.dead_pes, ft2.dead_pes);
    assert_eq!(ft1.pe_vtimes, ft2.pe_vtimes);
    assert_eq!(ft1.recovery, ft2.recovery);
    assert_eq!(ft1.messages, ft2.messages);
}

#[test]
fn recovery_phases_appear_in_chrome_trace() {
    let plan = FaultPlan::new(0x0F66)
        .replication(1)
        .crash_pe(2, 2_000_000);
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    let ft = run_world(
        opts(RANKS, PES).tracing(true).with_faults(plan),
        ring_workload(ITERS, results.clone()),
    );
    let json = flows_trace::chrome::chrome_trace_json(&ft.trace_rings);
    // Recovery phases are first-class trace events...
    for name in ["ft_rollback", "ft_respawn", "ft_resume"] {
        assert!(json.contains(name), "missing {name} in chrome trace");
    }
    assert!(json.contains("recovery"), "recovery category missing");
    // ...and the pre-crash history survived in the same rings (the world
    // was never torn down): checkpoint events from before the crash are
    // still present alongside the recovery timeline.
    assert!(
        json.contains("checkpoint"),
        "pre-crash checkpoint events lost from trace rings"
    );
}
