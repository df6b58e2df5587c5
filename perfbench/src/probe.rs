//! Probes the rank mains write into while an episode runs: rank 0's
//! step clock, the finish time of the last rank, and a timed wrapper
//! around the load balancer. All of it is process-global heap state,
//! outside every migratable rank image.

use crate::stats::{cpu_self_s, now_ns};
use flows_lb::{LbStats, LbStrategy, Migration};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Rank 0's view of one episode.
#[derive(Debug, Default, Clone)]
pub struct StepLog {
    /// When the first step began (ns, [`now_ns`] clock), or 0.
    pub first_ns: u64,
    /// Process CPU seconds when the first step began.
    pub cpu_at_first: f64,
    /// Duration of every step, in ns.
    pub steps: Vec<u64>,
    /// Start of the step in flight.
    open: u64,
}

static LOG: Mutex<StepLog> = Mutex::new(StepLog {
    first_ns: 0,
    cpu_at_first: 0.0,
    steps: Vec::new(),
    open: 0,
});
static LAST_FINISH_NS: AtomicU64 = AtomicU64::new(0);

/// Reset the probes before an episode; `steps` sizes the step log.
pub fn reset(steps: usize) {
    let mut log = LOG.lock().expect("step log poisoned");
    *log = StepLog::default();
    log.steps.reserve(steps);
    LAST_FINISH_NS.store(0, Ordering::SeqCst);
    LB_LOG.lock().expect("lb log poisoned").clear();
}

/// Rank 0 calls this at the top of every step.
pub fn step_begin() {
    let now = now_ns();
    let mut log = LOG.lock().expect("step log poisoned");
    if log.first_ns == 0 {
        log.first_ns = now;
        log.cpu_at_first = cpu_self_s();
    }
    log.open = now;
}

/// Rank 0 calls this at the bottom of every step.
pub fn step_end() {
    let now = now_ns();
    let mut log = LOG.lock().expect("step log poisoned");
    let d = now - log.open;
    log.steps.push(d);
}

/// Every rank calls this as its main returns.
pub fn rank_finished() {
    LAST_FINISH_NS.fetch_max(now_ns(), Ordering::SeqCst);
}

/// The episode's step log and the last rank's finish time.
pub fn collect() -> (StepLog, u64) {
    let log = std::mem::take(&mut *LOG.lock().expect("step log poisoned"));
    (log, LAST_FINISH_NS.load(Ordering::SeqCst))
}

/// One load-balancing decision, as seen by [`TimedLb`].
#[derive(Debug, Clone, Copy)]
pub struct LbSample {
    pub decide_ns: u64,
    pub imbalance_before: f64,
    pub imbalance_after: f64,
    pub planned: usize,
}

static LB_LOG: Mutex<Vec<LbSample>> = Mutex::new(Vec::new());

pub fn lb_samples() -> Vec<LbSample> {
    std::mem::take(&mut *LB_LOG.lock().expect("lb log poisoned"))
}

/// Delegates to a real strategy and records how long `decide` took and
/// the max/mean PE load before and after its plan.
#[derive(Debug, Clone, Copy)]
pub struct TimedLb<S>(pub S);

impl<S: LbStrategy> LbStrategy for TimedLb<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(&self, stats: &LbStats) -> Vec<Migration> {
        let t0 = now_ns();
        let plan = self.0.decide(stats);
        let decide_ns = now_ns() - t0;
        let after = stats.loads_after(&plan);
        let total: f64 = after.iter().sum();
        let imbalance_after = if total > 0.0 {
            after.iter().copied().fold(0.0, f64::max) * after.len() as f64 / total
        } else {
            1.0
        };
        LB_LOG.lock().expect("lb log poisoned").push(LbSample {
            decide_ns,
            imbalance_before: stats.imbalance(),
            imbalance_after,
            planned: plan.len(),
        });
        plan
    }
}
