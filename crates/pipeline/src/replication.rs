//! Replicated experiments: independent-seed runs with confidence
//! intervals.
//!
//! "Traditionally, simulation experiments are performed to obtain
//! accurate performance estimates" (§4.2). A single seeded run gives a
//! point estimate; the standard methodology is independent replications:
//! run the same model under `n` seeds and report mean, standard
//! deviation, and a t-distribution confidence interval for each derived
//! metric.

use crate::config::ThreeStageConfig;
use crate::metrics::PipelineMetrics;
use crate::run_experiment;
use pnut_stat::t_quantile_975;
use std::fmt;

/// Mean, deviation, and 95% confidence half-width of one metric across
/// replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95_half_width: f64,
}

impl Estimate {
    fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        let t = t_quantile_975(samples.len().saturating_sub(1));
        Estimate {
            mean,
            std_dev,
            ci95_half_width: t * std_dev / n.sqrt(),
        }
    }

    /// The interval as `(low, high)`.
    pub fn interval(&self) -> (f64, f64) {
        (
            self.mean - self.ci95_half_width,
            self.mean + self.ci95_half_width,
        )
    }

    /// Whether `value` lies within the 95% interval.
    pub fn contains(&self, value: f64) -> bool {
        let (lo, hi) = self.interval();
        (lo..=hi).contains(&value)
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.ci95_half_width)
    }
}

/// Aggregated replication results for the three-stage model.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedMetrics {
    /// Number of replications.
    pub replications: usize,
    /// Cycles simulated per replication.
    pub cycles: u64,
    /// Instructions per cycle.
    pub instructions_per_cycle: Estimate,
    /// Bus utilization.
    pub bus_utilization: Estimate,
    /// Execution-unit busy fraction.
    pub exec_busy: Estimate,
    /// Decoder idle fraction.
    pub decoder_idle: Estimate,
    /// Per-replication metrics for further analysis.
    pub runs: Vec<PipelineMetrics>,
}

impl fmt::Display for ReplicatedMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "REPLICATED EXPERIMENT ({} runs x {} cycles, 95% CI)",
            self.replications, self.cycles
        )?;
        writeln!(f, "instructions / cycle  {}", self.instructions_per_cycle)?;
        writeln!(f, "bus utilization       {}", self.bus_utilization)?;
        writeln!(f, "execution unit busy   {}", self.exec_busy)?;
        writeln!(f, "decoder idle          {}", self.decoder_idle)?;
        Ok(())
    }
}

/// Run `replications` independent experiments (seeds `0..replications`)
/// of `cycles` each and aggregate.
///
/// # Errors
///
/// Propagates the first model/simulation error, boxed.
///
/// # Example
///
/// ```
/// use pnut_pipeline::{replicate, ThreeStageConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let r = replicate(&ThreeStageConfig::default(), 5, 3_000)?;
/// let (lo, hi) = r.instructions_per_cycle.interval();
/// assert!(lo > 0.0 && hi < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn replicate(
    config: &ThreeStageConfig,
    replications: usize,
    cycles: u64,
) -> Result<ReplicatedMetrics, Box<dyn std::error::Error>> {
    assert!(replications > 0, "need at least one replication");
    let mut runs = Vec::with_capacity(replications);
    for seed in 0..replications as u64 {
        runs.push(run_experiment(config, seed, cycles)?.metrics);
    }
    let collect = |f: &dyn Fn(&PipelineMetrics) -> f64| -> Estimate {
        let samples: Vec<f64> = runs.iter().map(f).collect();
        Estimate::from_samples(&samples)
    };
    Ok(ReplicatedMetrics {
        replications,
        cycles,
        instructions_per_cycle: collect(&|m| m.instructions_per_cycle),
        bus_utilization: collect(&|m| m.bus_utilization),
        exec_busy: collect(&|m| m.exec_busy_total()),
        decoder_idle: collect(&|m| m.decoder_idle),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_from_known_samples() {
        let e = Estimate::from_samples(&[1.0, 2.0, 3.0]);
        assert!((e.mean - 2.0).abs() < 1e-12);
        assert!((e.std_dev - 1.0).abs() < 1e-12);
        // t(2 df) = 4.303; half-width = 4.303 / sqrt(3).
        assert!((e.ci95_half_width - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        assert!(e.contains(2.0));
        assert!(!e.contains(100.0));
    }

    #[test]
    fn single_sample_has_infinite_interval() {
        let e = Estimate::from_samples(&[5.0]);
        assert_eq!(e.mean, 5.0);
        assert_eq!(e.std_dev, 0.0);
        // 0 * inf = NaN guarded: std_dev 0 with infinite t gives NaN;
        // document the degenerate case by checking it is not finite
        // usable — callers should replicate at least twice.
        assert!(e.ci95_half_width.is_nan() || e.ci95_half_width == 0.0);
    }

    #[test]
    fn replications_bracket_the_long_run() {
        let r = replicate(&ThreeStageConfig::default(), 6, 4_000).unwrap();
        assert_eq!(r.runs.len(), 6);
        // The replication mean should be close to a long single run.
        let long = crate::run_experiment(&ThreeStageConfig::default(), 99, 40_000)
            .unwrap()
            .metrics
            .instructions_per_cycle;
        let (lo, hi) = r.instructions_per_cycle.interval();
        // Allow slack: 6 runs of 4k cycles are noisy; just require the
        // long-run value within a widened interval.
        let w = (hi - lo).max(0.02);
        assert!(
            long > lo - w && long < hi + w,
            "long-run {long} vs CI [{lo}, {hi}]"
        );
        let shown = r.to_string();
        assert!(shown.contains("95% CI"));
    }

    #[test]
    fn t_table_monotone_toward_asymptote() {
        assert!(t_quantile_975(1) > t_quantile_975(5));
        assert!(t_quantile_975(5) > t_quantile_975(30));
        assert!((t_quantile_975(200) - 1.96).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let _ = replicate(&ThreeStageConfig::default(), 0, 100);
    }
}
