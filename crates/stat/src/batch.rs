//! Batch-means analysis: confidence intervals from a *single* run.
//!
//! Replication (`pnut-pipeline::replicate`) pays for independence with
//! repeated warm-ups. The classical alternative for steady-state
//! estimation is *batch means*: split one long run into contiguous
//! batches, compute the metric per batch, and treat the batch means as
//! (approximately) independent samples. This module provides a
//! [`BatchMeans`] sink that segments the observation of one place's
//! time-weighted token average into fixed-width batches.

use crate::TraceSink;
use pnut_core::{PlaceId, Time};
use pnut_trace::{Delta, DeltaKind, TraceHeader};
use std::fmt;

/// Per-batch time-weighted averages of one place's token count.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMeans {
    place_name: String,
    batch_ticks: u64,
    // Resolved at begin.
    place: Option<PlaceId>,
    start: u64,
    current: i64,
    last_change: u64,
    batch_end: u64,
    acc: f64,
    batches: Vec<f64>,
}

impl BatchMeans {
    /// Track `place_name` with batches of `batch_ticks` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `batch_ticks` is zero.
    pub fn new(place_name: impl Into<String>, batch_ticks: u64) -> Self {
        assert!(batch_ticks > 0, "batch width must be positive");
        BatchMeans {
            place_name: place_name.into(),
            batch_ticks,
            place: None,
            start: 0,
            current: 0,
            last_change: 0,
            batch_end: 0,
            acc: 0.0,
            batches: Vec::new(),
        }
    }

    fn advance_to(&mut self, mut now: u64) {
        // Close any batch boundaries crossed between last_change and now.
        while now >= self.batch_end {
            let dt = self.batch_end - self.last_change;
            self.acc += self.current as f64 * dt as f64;
            self.batches.push(self.acc / self.batch_ticks as f64);
            self.acc = 0.0;
            self.last_change = self.batch_end;
            self.batch_end += self.batch_ticks;
        }
        if now < self.last_change {
            now = self.last_change;
        }
        let dt = now - self.last_change;
        self.acc += self.current as f64 * dt as f64;
        self.last_change = now;
    }

    /// The completed batch means (partial final batches are discarded —
    /// they would bias the estimate).
    pub fn batches(&self) -> &[f64] {
        &self.batches
    }

    /// Mean of batch means.
    pub fn mean(&self) -> f64 {
        if self.batches.is_empty() {
            0.0
        } else {
            self.batches.iter().sum::<f64>() / self.batches.len() as f64
        }
    }

    /// Half-width of a 95% confidence interval over the batch means:
    /// Student's t with n − 1 degrees of freedom times the standard
    /// error (≥ 2 batches required, otherwise 0).
    pub fn ci95_half_width(&self) -> f64 {
        let n = self.batches.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.batches.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        t_quantile_975(n - 1) * (var / n as f64).sqrt()
    }
}

/// Two-sided 97.5% quantile of Student's t for `df` degrees of freedom
/// (table lookup, asymptote 1.96; infinite at 0).
pub fn t_quantile_975(df: usize) -> f64 {
    const TABLE: [f64; 31] = [
        f64::INFINITY,
        12.706,
        4.303,
        3.182,
        2.776,
        2.571,
        2.447,
        2.365,
        2.306,
        2.262,
        2.228,
        2.201,
        2.179,
        2.160,
        2.145,
        2.131,
        2.120,
        2.110,
        2.101,
        2.093,
        2.086,
        2.080,
        2.074,
        2.069,
        2.064,
        2.060,
        2.056,
        2.052,
        2.048,
        2.045,
        2.042,
    ];
    match df {
        d if d < TABLE.len() => TABLE[d],
        d if d < 60 => 2.01,
        d if d < 120 => 1.98,
        _ => 1.96,
    }
}

impl fmt::Display for BatchMeans {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.4} ± {:.4} ({} batches of {} ticks)",
            self.place_name,
            self.mean(),
            self.ci95_half_width(),
            self.batches.len(),
            self.batch_ticks
        )
    }
}

impl TraceSink for BatchMeans {
    fn begin(&mut self, header: &TraceHeader) {
        self.place = header.place_id(&self.place_name);
        self.start = header.start_time.ticks();
        self.current = self
            .place
            .map(|p| i64::from(header.initial_marking[p.index()]))
            .unwrap_or(0);
        self.last_change = self.start;
        self.batch_end = self.start + self.batch_ticks;
        self.acc = 0.0;
        self.batches.clear();
    }

    fn delta(&mut self, delta: &Delta) {
        let Some(place) = self.place else { return };
        if let DeltaKind::PlaceDelta { place: p, delta: d } = delta.kind {
            if p == place {
                self.advance_to(delta.time.ticks());
                self.current += d;
            }
        }
    }

    fn end(&mut self, end_time: Time) {
        if self.place.is_some() {
            // Close batches up to the horizon; advance_to pushes every
            // complete batch and leaves the partial accumulation, which
            // is then dropped.
            self.advance_to(end_time.ticks());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;

    #[test]
    fn deterministic_square_wave_batches() {
        // busy 2 of every 5 ticks; any batch width that is a multiple of
        // the 5-tick period gives exactly 0.4 per batch.
        let mut b = NetBuilder::new("bus");
        b.place("Bus_free", 1);
        b.place("Bus_busy", 0);
        b.transition("seize")
            .input("Bus_free")
            .output("Bus_busy")
            .enabling(3)
            .add();
        b.transition("release")
            .input("Bus_busy")
            .output("Bus_free")
            .enabling(2)
            .add();
        let net = b.build().unwrap();
        let mut sim = pnut_sim::Simulator::new(&net, 0).unwrap();
        let mut bm = BatchMeans::new("Bus_busy", 50);
        sim.run(Time::from_ticks(500), &mut bm).unwrap();
        assert_eq!(bm.batches().len(), 10);
        for (i, batch) in bm.batches().iter().enumerate() {
            assert!((batch - 0.4).abs() < 1e-9, "batch {i}: {batch}");
        }
        assert!((bm.mean() - 0.4).abs() < 1e-9);
        assert!(bm.ci95_half_width() < 1e-9, "no variance in a square wave");
        assert!(bm.to_string().contains("10 batches"));
    }

    #[test]
    fn stochastic_batches_bracket_the_global_average() {
        let net = pnut_pipeline_build_helper();
        let mut sim = pnut_sim::Simulator::new(&net, 3).unwrap();
        let mut sinks = pnut_trace::Tee::new(
            BatchMeans::new("Bus_busy", 1_000),
            crate::StatCollector::new(),
        );
        sim.run(Time::from_ticks(20_000), &mut sinks).unwrap();
        let (bm, collector) = sinks.into_parts();
        let global = collector
            .into_report()
            .unwrap()
            .place("Bus_busy")
            .unwrap()
            .avg_tokens;
        assert_eq!(bm.batches().len(), 20);
        let half = bm.ci95_half_width();
        assert!(half > 0.0, "stochastic run must show variance");
        assert!(
            (bm.mean() - global).abs() < 0.05,
            "batch mean {} vs global {global}",
            bm.mean()
        );
    }

    /// A miniature stochastic bus workload (avoids a dev-dependency on
    /// pnut-pipeline from within pnut-stat).
    fn pnut_pipeline_build_helper() -> pnut_core::Net {
        let mut b = NetBuilder::new("load");
        b.place("Bus_free", 1);
        b.place("Bus_busy", 0);
        b.place("think", 1);
        b.transition("request")
            .input("think")
            .input("Bus_free")
            .output("Bus_busy")
            .enabling(1)
            .add();
        b.transition("short_use")
            .input("Bus_busy")
            .output("Bus_free")
            .output("think")
            .enabling(2)
            .frequency(0.7)
            .add();
        b.transition("long_use")
            .input("Bus_busy")
            .output("Bus_free")
            .output("think")
            .enabling(9)
            .frequency(0.3)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn half_width_uses_students_t() {
        // Batches of 10 ticks with means 0, 1, 3 and 2 (p = 0 then 4
        // for five ticks each): n = 4, sample variance 5/3, t(3) = 3.182.
        let mut bm = BatchMeans::new("p", 10);
        let header = TraceHeader::new("n", vec!["p".into()], vec![]).with_initial_marking(vec![0]);
        bm.begin(&header);
        for (step, (time, delta)) in [(10, 1), (20, 2), (30, -3), (35, 4)]
            .into_iter()
            .enumerate()
        {
            let kind = DeltaKind::PlaceDelta {
                place: PlaceId::new(0),
                delta,
            };
            bm.delta(&Delta::new(Time::from_ticks(time), step as u64, kind));
        }
        bm.end(Time::from_ticks(40));
        assert_eq!(bm.batches(), &[0.0, 1.0, 3.0, 2.0]);
        let expected = 3.182 * (5.0f64 / 3.0).sqrt() / 4.0f64.sqrt();
        assert!((bm.ci95_half_width() - expected).abs() < 1e-12);
    }

    #[test]
    fn unknown_place_yields_empty_batches() {
        let mut bm = BatchMeans::new("nope", 10);
        let header = TraceHeader::new("n", vec!["p".into()], vec![]).with_initial_marking(vec![1]);
        bm.begin(&header);
        bm.end(Time::from_ticks(100));
        assert!(bm.batches().is_empty());
        assert_eq!(bm.mean(), 0.0);
    }

    #[test]
    fn partial_final_batch_discarded() {
        let mut bm = BatchMeans::new("p", 10);
        let header = TraceHeader::new("n", vec!["p".into()], vec![]).with_initial_marking(vec![2]);
        bm.begin(&header);
        bm.end(Time::from_ticks(25));
        assert_eq!(
            bm.batches(),
            &[2.0, 2.0],
            "two full batches, 5 ticks dropped"
        );
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn zero_width_panics() {
        let _ = BatchMeans::new("p", 0);
    }
}
