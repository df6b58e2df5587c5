//! Small measurement helpers: a seeded generator, quantiles, process CPU
//! and memory readings, and the host/build stamp printed with every run.

/// SplitMix64: the only randomness in the benchmark, and it only makes
/// inputs. The same seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (sorted in place);
/// 0 for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `CLOCK_MONOTONIC` nanoseconds: one clock for every process on the
/// host, so an episode run in a subprocess can be timed from its
/// parent's start.
pub fn now_ns() -> u64 {
    flows_sys::time::monotonic_ns()
}

/// User + system CPU seconds consumed so far by every thread of this
/// process (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn cpu_self_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: libc::clockid_t = 2;
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime only writes into the timespec we provide.
    unsafe { libc::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restart the VmHWM count from the current resident set, so the next
/// [`peak_rss_mib`] covers only what ran since (Linux `clear_refs` 5).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Host and build identity, printed with every result so a number can
/// be traced to the machine and source that produced it.
pub fn host_stamp() -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("cpus", cpus.to_string()),
        ("cpu_model", model),
        ("kernel", kernel),
        ("rustc", env_or_unknown("PERFBENCH_RUSTC")),
        ("commit", env_or_unknown("PERFBENCH_COMMIT")),
        ("source_sha256", env_or_unknown("PERFBENCH_SOURCE")),
    ]
}

/// Build facts the launcher (`run.py`) measured and passed down.
fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn rng_is_reproducible() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
    }
}
