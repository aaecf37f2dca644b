//! Host-speed probe: a fixed, memory-bound kernel sampled between tasks.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of per
//! cent over minutes as neighbours contend for caches and memory
//! bandwidth. CPU time does not remove that drift (the process is not
//! descheduled, it runs slower), and a pure-ALU kernel barely sees it.
//! A hash-table build and lookup over ~1 MiB does: over windows of 10–30
//! tasks its slowdown correlated 0.8–0.95 with the tasks' own on every
//! workload (2-core Xeon VM, 2.1 GHz).
//!
//! The kernel is benchmark code, so a change to the program never moves
//! it. A run divides each time it measures by the host factor
//! `(probe time / NOMINAL_PROBE_S) ^ sensitivity`, with the probe time
//! the median of the samples nearest to the measurement: at equal host
//! load the factor is the same for the parent and the change, and when
//! the load differs it cancels most of the difference.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// Probe time the figures are scaled to: a round figure near the
/// probe's median on the 2-core host the bounds were set on (2.4–2.9 ms).
const NOMINAL_PROBE_S: f64 = 0.003;
/// Keys the probe inserts and then looks up (a table of about 1 MiB).
const PROBE_KEYS: u32 = 40_000;
/// A run samples the probe at most this often.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Samples whose median gives the probe time at one moment.
const NEAREST: usize = 11;

/// One run of the kernel; returns its wall time in seconds.
fn probe() -> f64 {
    let t0 = Instant::now();
    let mut table: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 99u64;
    for i in 0..PROBE_KEYS {
        x = lcg(x);
        table.insert(x >> 3, i);
    }
    let mut sum = 0u64;
    let mut y = 99u64;
    for _ in 0..PROBE_KEYS {
        y = lcg(y);
        sum += u64::from(table.get(&(y >> 3)).copied().unwrap_or(0));
    }
    std::hint::black_box(sum);
    t0.elapsed().as_secs_f64()
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// The probe samples of one run, each with the moment it ended.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<(Instant, f64)>,
    /// Wall time spent probing, which the loop rate leaves out.
    pub probe_s: f64,
    last: Option<Instant>,
}

impl HostSpeed {
    /// Take a sample.
    pub fn sample(&mut self) {
        let secs = probe();
        let now = Instant::now();
        self.samples.push((now, secs));
        self.probe_s += secs;
        self.last = Some(now);
    }

    /// Take a sample if [`PROBE_EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.sample();
        }
    }

    /// Median probe time of the run, in seconds.
    pub fn median_probe_s(&self) -> f64 {
        crate::median(&mut self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The factor by which this run's host is slower than the nominal
    /// one, for a workload with the given sensitivity: the exponent of
    /// a log-log fit of task slowdown on probe slowdown.
    pub fn factor(&self, sensitivity: f64) -> f64 {
        (self.median_probe_s() / NOMINAL_PROBE_S).powf(sensitivity)
    }

    /// The host factor at moment `at`, from the [`NEAREST`] samples
    /// around it (samples are in time order).
    pub fn factor_at(&self, at: Instant, sensitivity: f64) -> f64 {
        let split = self.samples.partition_point(|s| s.0 < at);
        let lo = split.saturating_sub(NEAREST / 2);
        let hi = (lo + NEAREST).min(self.samples.len());
        let lo = hi.saturating_sub(NEAREST);
        let mut near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        (crate::median(&mut near) / NOMINAL_PROBE_S).powf(sensitivity)
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }
}
