//! Fault-recovery harness: completion time and message overhead vs fault
//! rate on BT-MZ, plus a PE-crash scenario recovered from coordinated
//! checkpoints.
//!
//! Two tables:
//!
//! 1. A transport-fault sweep (drop = dup = the listed rate) at a fixed
//!    seed. Columns give the modeled completion time, logical messages,
//!    physical packets on the wire (data + retransmits + acks), the
//!    overhead ratio vs the fault-free run, and whether the checksum is
//!    bit-identical to fault-free — it must always be.
//! 2. The crash scenario: lossy links plus one scripted PE death mid-run,
//!    checkpointing every iteration. The survivors roll back to the last
//!    committed checkpoint generation, respawn the dead PE's ranks among
//!    themselves, and must still reproduce the fault-free checksum. The
//!    crash run uses modeled time, so its time column is the virtual
//!    critical path.
//!
//! `--iters N` outer iterations (default 8); `--sweeps N` work per
//! iteration; `--seed H` fault seed (hex).
//!
//! The harness exits non-zero if any faulty checksum deviates.

use flows_bench::{arg_val, Table};
use flows_converse::FaultPlan;
use flows_npb::{MzBench, MzClass, MzConfig};

const RANKS: usize = 8;
const PES: usize = 4;

fn base(iters: usize, sweeps: usize) -> MzConfig {
    let mut cfg = MzConfig::new(MzBench::BtMz, MzClass::A, RANKS, PES);
    cfg.iterations = iters;
    cfg.sweeps = sweeps;
    cfg
}

fn main() {
    let iters: usize = arg_val("iters").and_then(|v| v.parse().ok()).unwrap_or(8);
    let sweeps: usize = arg_val("sweeps").and_then(|v| v.parse().ok()).unwrap_or(50);
    let seed: u64 = arg_val("seed")
        .and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok())
        .unwrap_or(0xFA17);

    let clean = flows_npb::run(&base(iters, sweeps));
    let mut ok = true;

    let mut t = Table::new(&[
        "fault rate",
        "time s",
        "messages",
        "packets",
        "retransmits",
        "overhead",
        "checksum equal",
    ]);
    // The 0% row (a plan that never fires) is the packet-overhead
    // baseline: same instrumentation, no injected faults.
    let mut baseline_packets = 0u64;
    for &rate in &[0.0, 0.01, 0.05, 0.10] {
        let plan = FaultPlan::new(seed).drop_prob(rate).dup_prob(rate);
        // checkpoint_every = 0: the sweep measures pure transport-fault
        // overhead; recovery is exercised by the crash scenario below.
        let r = flows_npb::run(&base(iters, sweeps).with_faults(plan, 0));
        let f = r.faults.expect("fault-instrumented run reports counters");
        if rate == 0.0 {
            baseline_packets = f.physical_packets();
        }
        let equal = r.checksum == clean.checksum;
        ok &= equal;
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            format!("{:.4}", r.modeled_time_s),
            r.messages.to_string(),
            f.physical_packets().to_string(),
            f.retransmits.to_string(),
            format!(
                "{:.2}x",
                f.physical_packets() as f64 / baseline_packets.max(1) as f64
            ),
            equal.to_string(),
        ]);
    }
    t.print("Fault sweep: BT-MZ A.8,4PE under seeded transport faults (drop = dup = rate)");

    let plan = FaultPlan::new(seed)
        .drop_prob(0.02)
        .dup_prob(0.02)
        .crash_pe(1, 150_000);
    let r = flows_npb::run(&base(iters, sweeps).with_faults(plan, 1));
    let equal = r.checksum == clean.checksum;
    ok &= equal;
    let mut c = Table::new(&[
        "scenario",
        "critical path s",
        "messages",
        "recoveries",
        "live PEs",
        "checksum equal",
    ]);
    c.row(vec![
        "drop 2% + dup 2% + crash PE1".into(),
        format!("{:.4}", r.critical_path_s),
        r.messages.to_string(),
        r.recoveries.to_string(),
        r.live_pes.to_string(),
        equal.to_string(),
    ]);
    c.print("Crash recovery: checkpoint every iteration, heal in place on the surviving PEs");

    println!(
        "\nexpected shape: overhead grows with the fault rate (every drop \
         costs a timeout + retransmit) while the checksum column stays \
         true throughout; the crash scenario heals in 1 recovery and \
         completes on {} live PEs with the fault-free answer.",
        PES - 1
    );
    if !ok {
        eprintln!("FAIL: a faulty run diverged from the fault-free checksum");
        std::process::exit(1);
    }
}
