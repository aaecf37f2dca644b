#![forbid(unsafe_code)]

//! # pnut-stat — statistical analysis of simulation traces
//!
//! Reproduction of the P-NUT `stat` tool (paper §4.2 and Figure 5): a
//! [`TraceSink`] that extracts performance-related information from
//! simulation traces, reporting
//!
//! * per **place**: min / max / time-weighted average / standard
//!   deviation of the token count — for 0/1 "resource" places like
//!   `Bus_busy` the average *is* the utilization;
//! * per **transition**: min / max / time-weighted average / standard
//!   deviation of the number of *concurrent firings*, the start/end
//!   counts, and the **throughput** ("the number of times it finished
//!   firing divided by the simulation time");
//! * per **run**: initial clock, length, events started / finished.
//!
//! "The mapping between this information and higher-level concepts such
//! as processor utilization is left up to the user" (§4.2) — the
//! `pnut-pipeline` crate performs exactly that mapping for the paper's
//! processor model.
//!
//! # Example
//!
//! ```
//! use pnut_core::{NetBuilder, Time};
//! use pnut_stat::analyze;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetBuilder::new("n");
//! b.place("busy", 0);
//! b.place("free", 1);
//! b.transition("acquire").input("free").output("busy").add();
//! // Enabling time keeps the token *on* `busy` for 3 ticks, so the
//! // average token count of `busy` measures the busy fraction.
//! b.transition("release").input("busy").output("free").enabling(3).add();
//! let net = b.build()?;
//! let trace = pnut_sim::simulate(&net, 1, Time::from_ticks(100))?;
//! let report = analyze(&trace);
//! let busy = report.place("busy").expect("place exists");
//! assert!(busy.avg_tokens > 0.0 && busy.avg_tokens <= 1.0);
//! # Ok(())
//! # }
//! ```

mod batch;
mod collect;
mod report;

pub use batch::{t_quantile_975, BatchMeans};
pub use collect::StatCollector;
pub use report::{PlaceStats, StatReport, TransitionStats};

use pnut_trace::RecordedTrace;

/// Analyze a recorded trace in one call (replays it through a
/// [`StatCollector`]).
pub fn analyze(trace: &RecordedTrace) -> StatReport {
    let mut c = StatCollector::new();
    trace.replay(&mut c);
    c.into_report()
        .expect("replay of a recorded trace always begins and ends")
}

// Re-exported so `analyze` users can stream too.
pub use pnut_trace::TraceSink;

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::{NetBuilder, Time};

    #[test]
    fn analyze_matches_streaming_collection() {
        let mut b = NetBuilder::new("n");
        b.place("p", 1);
        b.transition("t").input("p").output("p").firing(2).add();
        let net = b.build().unwrap();

        let trace = pnut_sim::simulate(&net, 3, Time::from_ticks(50)).unwrap();
        let from_replay = analyze(&trace);

        let mut sim = pnut_sim::Simulator::new(&net, 3).unwrap();
        let mut collector = StatCollector::new();
        sim.run(Time::from_ticks(50), &mut collector).unwrap();
        let streamed = collector.into_report().unwrap();

        assert_eq!(format!("{from_replay}"), format!("{streamed}"));
    }
}
