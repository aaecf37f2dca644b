//! Running one task: the library calls behind each CLI verb, each
//! wrapped in a [`Tracer`] span named after its layer.

use crate::gen::{Task, Workload};
use crate::trace::Tracer;
use pnut_analytic::markov::{self, MarkovOptions};
use pnut_core::Time;
use pnut_reach::graph::{build_timed, build_untimed};
use pnut_reach::{ctl, Formula, ReachOptions, ReachabilityGraph};
use pnut_trace::DeltaKind;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One field of a task's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    Int(u64),
    Ints(Vec<u64>),
    /// Compared within [`FLOAT_TOLERANCE`] against the reference.
    Floats(Vec<f64>),
    Text(String),
}

/// Agreement required of floating-point answers (the markov item's own
/// bound), relative to `max(1, |reference|)`.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// A task's answer: named fields in a fixed order. Rendered one line per
/// task in the reference files (`key=t:value`, `t` the field type), with
/// floats in Rust's shortest round-trip form, so a re-run of the same
/// task must render the identical line.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer(pub Vec<(String, Field)>);

impl Answer {
    fn push(&mut self, key: &str, field: Field) {
        self.0.push((key.to_string(), field));
    }

    pub fn get(&self, key: &str) -> Option<&Field> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, f)| f)
    }

    pub fn int(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Field::Int(v)) => *v,
            _ => panic!("answer field `{key}` is not an integer"),
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, field) in &self.0 {
            if !out.is_empty() {
                out.push(' ');
            }
            let join = |v: Vec<String>| v.join(",");
            let _ = match field {
                Field::Int(v) => write!(out, "{key}=i:{v}"),
                Field::Ints(v) => write!(
                    out,
                    "{key}=I:{}",
                    join(v.iter().map(u64::to_string).collect())
                ),
                Field::Floats(v) => write!(
                    out,
                    "{key}=F:{}",
                    join(v.iter().map(|x| format!("{x:?}")).collect())
                ),
                Field::Text(v) => write!(out, "{key}=s:{v}"),
            };
        }
        out
    }

    pub fn parse(line: &str) -> Result<Self, String> {
        let mut answer = Answer(Vec::new());
        for token in line.split_whitespace() {
            let bad = || format!("malformed answer field `{token}`");
            let (key, rest) = token.split_once('=').ok_or_else(bad)?;
            let (ty, value) = rest.split_once(':').ok_or_else(bad)?;
            let list = || value.split(',').filter(|s| !s.is_empty());
            let field = match ty {
                "i" => Field::Int(value.parse().map_err(|_| bad())?),
                "I" => Field::Ints(
                    list()
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad())?,
                ),
                "F" => Field::Floats(
                    list()
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad())?,
                ),
                "s" => Field::Text(value.to_string()),
                _ => return Err(bad()),
            };
            answer.push(key, field);
        }
        Ok(answer)
    }

    /// First difference from `reference`, or `None` when they agree.
    pub fn diff(&self, reference: &Answer) -> Option<String> {
        if self.0.len() != reference.0.len() {
            return Some(format!(
                "{} fields, reference has {}",
                self.0.len(),
                reference.0.len()
            ));
        }
        for ((key, got), (ref_key, want)) in self.0.iter().zip(&reference.0) {
            if key != ref_key {
                return Some(format!("field `{key}` where the reference has `{ref_key}`"));
            }
            let same = match (got, want) {
                (Field::Floats(a), Field::Floats(b)) => {
                    a.len() == b.len()
                        && a.iter()
                            .zip(b)
                            .all(|(x, y)| (x - y).abs() <= FLOAT_TOLERANCE * y.abs().max(1.0))
                }
                _ => got == want,
            };
            if !same {
                return Some(format!("`{key}` differs from the reference"));
            }
        }
        None
    }
}

/// What a task produced: its answer plus the work it did.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub answer: Answer,
    /// Distinct states built (sum of `state_count()`).
    pub states: u64,
    /// Transition firings recorded in the simulation trace.
    pub sim_events: u64,
    /// The graph's resident-arena high-water mark, in bytes.
    pub peak_resident: u64,
    /// Structural place bounds from lint (verify), for the
    /// self-consistency check.
    pub lint_bounds: Vec<Option<i64>>,
}

impl Outcome {
    fn new(answer: Answer) -> Self {
        Outcome {
            answer,
            states: 0,
            sim_events: 0,
            peak_resident: 0,
            lint_bounds: Vec::new(),
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run one task of `workload`.
pub fn run(workload: Workload, task: &Task, tr: &mut Tracer) -> Result<Outcome, String> {
    let net = tr
        .call("lang.parse", || pnut_lang::parse(&task.text))
        .map_err(err)?;
    match workload {
        Workload::Verify => verify(&net, task, tr),
        Workload::Evaluate => evaluate(&net, tr),
        Workload::Paged => paged(&net, task, tr),
        Workload::Simulate => simulate(&net, task, tr),
    }
}

/// Where budgeted builds spill: inside the benchmark's checkout, which
/// is the only place a run may write.
pub fn spill_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("spill")
}

fn build(net: &pnut_core::Net, task: &Task, tr: &mut Tracer) -> Result<ReachabilityGraph, String> {
    let options = ReachOptions {
        jobs: task.jobs,
        mem_budget: task.budget,
        spill_dir: Some(spill_dir()),
        ..ReachOptions::default()
    };
    tr.call("reach.build", || {
        if task.timed {
            build_timed(net, &options)
        } else {
            build_untimed(net, &options)
        }
    })
    .map_err(err)
}

/// Graph shape, deadlocks, place bounds and one CTL verdict.
fn graph_answer(
    net: &pnut_core::Net,
    task: &Task,
    g: &mut ReachabilityGraph,
    tr: &mut Tracer,
) -> Result<Answer, String> {
    let (deadlocks, bounds) = tr
        .call("reach.report", || {
            Ok::<_, pnut_reach::ReachError>((g.deadlocks()?, g.place_bounds()?))
        })
        .map_err(err)?;
    let outcome = tr
        .call("reach.ctl", || {
            let formula = Formula::parse(&task.ctl)?;
            ctl::check(g, net, &formula)
        })
        .map_err(err)?;
    let mut a = Answer(Vec::new());
    a.push("states", Field::Int(g.state_count() as u64));
    a.push("edges", Field::Int(g.edge_count() as u64));
    a.push("deadlocks", Field::Int(deadlocks.len() as u64));
    a.push(
        "bounds",
        Field::Ints(bounds.iter().map(|&b| u64::from(b)).collect()),
    );
    a.push("ctl_holds", Field::Int(u64::from(outcome.holds_initially)));
    a.push("ctl_states", Field::Int(outcome.count() as u64));
    Ok(a)
}

/// parse → lint → build → deadlocks + bounds → CTL.
fn verify(net: &pnut_core::Net, task: &Task, tr: &mut Tracer) -> Result<Outcome, String> {
    let lint = tr.call("analysis.lint", || pnut_analysis::lint(net));
    let mut g = build(net, task, tr)?;
    let mut answer = graph_answer(net, task, &mut g, tr)?;
    answer.push(
        "lint",
        Field::Ints(vec![
            lint.errors() as u64,
            lint.warnings() as u64,
            lint.infos() as u64,
        ]),
    );
    let mut out = Outcome::new(answer);
    out.states = g.state_count() as u64;
    out.peak_resident = g.peak_resident_bytes() as u64;
    out.lint_bounds = lint.bounds;
    Ok(out)
}

/// parse → markov steady state (which builds the timed graph itself).
fn evaluate(net: &pnut_core::Net, tr: &mut Tracer) -> Result<Outcome, String> {
    let ss = tr
        .call("analytic.steady_state", || {
            markov::steady_state(net, &MarkovOptions::default())
        })
        .map_err(err)?;
    let mut a = Answer(Vec::new());
    a.push("states", Field::Int(ss.state_fraction.len() as u64));
    a.push(
        "throughput",
        Field::Floats(ss.transition_throughput.clone()),
    );
    a.push("avg_tokens", Field::Floats(ss.place_average_tokens.clone()));
    a.push("mean_sojourn", Field::Floats(vec![ss.mean_sojourn]));
    a.push(
        "fraction_sum",
        Field::Floats(vec![ss.state_fraction.iter().sum()]),
    );
    let mut out = Outcome::new(a);
    out.states = ss.state_fraction.len() as u64;
    Ok(out)
}

/// parse → budgeted build → deadlocks + bounds → P-invariant sweep →
/// one CTL `AG` sweep.
fn paged(net: &pnut_core::Net, task: &Task, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut g = build(net, task, tr)?;
    let mut answer = graph_answer(net, task, &mut g, tr)?;
    let inv = tr
        .call("analysis.check_invariants", || {
            pnut_analysis::check_invariants(net, &mut g)
        })
        .map_err(err)?;
    answer.push(
        "invariants",
        Field::Ints(vec![
            inv.invariants as u64,
            inv.states_checked,
            inv.states_skipped,
        ]),
    );
    let mut out = Outcome::new(answer);
    out.states = g.state_count() as u64;
    out.peak_resident = g.peak_resident_bytes() as u64;
    Ok(out)
}

/// 64-bit FNV-1a, for bit-identity digests of simulation reports.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// parse → simulate (trace recorded) → stat.
fn simulate(net: &pnut_core::Net, task: &Task, tr: &mut Tracer) -> Result<Outcome, String> {
    let trace = tr
        .call("sim.simulate", || {
            pnut_sim::simulate(net, task.sim_seed, Time::from_ticks(task.horizon))
        })
        .map_err(err)?;
    let report = tr.call("stat.analyze", || pnut_stat::analyze(&trace));
    let events = trace
        .deltas()
        .iter()
        .filter(|d| matches!(d.kind, DeltaKind::Start { .. }))
        .count() as u64;
    // `{:?}` prints every f64 in round-trip form, so equal digests mean
    // a bit-identical report.
    let digest = fnv1a(format!("{report:?}").as_bytes());
    let mut a = Answer(Vec::new());
    a.push("trace_starts", Field::Int(events));
    a.push("events_started", Field::Int(report.events_started));
    a.push("events_finished", Field::Int(report.events_finished));
    a.push("length", Field::Int(report.length.ticks()));
    a.push("report_fnv", Field::Text(format!("{digest:016x}")));
    let mut out = Outcome::new(a);
    out.sim_events = events;
    if !report.places.iter().all(|p| {
        f64::from(p.min_tokens) <= p.avg_tokens + 1e-9
            && p.avg_tokens <= f64::from(p.max_tokens) + 1e-9
    }) {
        return Err("stat report has a place average outside its min..max".into());
    }
    Ok(out)
}
