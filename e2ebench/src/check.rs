//! Answer checks, applied to every task of every run.
//!
//! * On the reference seeds the answer must match the committed
//!   reference file (`reference/<workload>-seed<N>.txt`, one rendered
//!   [`Answer`] per task of the list): counts, bounds, verdicts and
//!   digests exactly, floats within [`crate::tasks::FLOAT_TOLERANCE`].
//! * On every seed the answer must pass the workload's
//!   self-consistency checks, and a task that runs again in the same
//!   run must render the identical answer. In `paged`, every budget ×
//!   jobs variant of one graph must give the identical answer too.

use crate::gen::{Task, Workload};
use crate::tasks::{Answer, Field, Outcome};
use std::collections::HashMap;
use std::path::PathBuf;

/// Seeds with committed reference answers: the default seed, used while
/// the benchmark was developed, and a held-out seed that was not.
pub const REFERENCE_SEEDS: [(u64, &str); 2] = [(1, "default"), (424_242, "held-out")];

pub fn reference_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}-seed{seed}.txt", workload.name()))
}

pub struct Checker {
    workload: Workload,
    reference: Option<(&'static str, Vec<Answer>)>,
    /// First rendered answer per task index.
    first: HashMap<usize, String>,
    /// First rendered answer per graph (paged).
    by_model: HashMap<String, String>,
}

impl Checker {
    /// A checker for `workload` at `seed`; loads the reference answers
    /// when `seed` is a reference seed and `use_reference` is set.
    pub fn new(
        workload: Workload,
        seed: u64,
        tasks: usize,
        use_reference: bool,
    ) -> Result<Self, String> {
        let mut reference = None;
        if let Some(&(_, kind)) = REFERENCE_SEEDS
            .iter()
            .find(|(s, _)| *s == seed)
            .filter(|_| use_reference)
        {
            let path = reference_path(workload, seed);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read reference answers {}: {e}", path.display()))?;
            let answers = text
                .lines()
                .map(Answer::parse)
                .collect::<Result<Vec<_>, _>>()?;
            if answers.len() != tasks {
                return Err(format!(
                    "{} holds {} answers for a list of {tasks} tasks",
                    path.display(),
                    answers.len()
                ));
            }
            reference = Some((kind, answers));
        }
        Ok(Checker {
            workload,
            reference,
            first: HashMap::new(),
            by_model: HashMap::new(),
        })
    }

    /// What this run's answers are checked against, for the report.
    pub fn mode(&self, seed: u64) -> String {
        match &self.reference {
            Some((kind, _)) => {
                format!("committed reference answers ({kind} seed {seed}) + self-consistency")
            }
            None => format!(
                "self-consistency checks only (seed {seed} has no committed reference answers)"
            ),
        }
    }

    pub fn check(&mut self, index: usize, task: &Task, outcome: &Outcome) -> Result<(), String> {
        let answer = &outcome.answer;
        if let Some((_, reference)) = &self.reference {
            if let Some(diff) = answer.diff(&reference[index]) {
                return Err(diff);
            }
        }
        self_consistent(self.workload, task, outcome)?;
        let rendered = answer.render();
        let first = self.first.entry(index).or_insert_with(|| rendered.clone());
        if *first != rendered {
            return Err("answer differs from this task's earlier answer in the same run".into());
        }
        if self.workload == Workload::Paged {
            let first = self
                .by_model
                .entry(task.model_key())
                .or_insert_with(|| rendered.clone());
            if *first != rendered {
                return Err(format!(
                    "answer at budget {} / jobs {} differs from another budget or job count",
                    task.budget, task.jobs
                ));
            }
        }
        Ok(())
    }
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("self-consistency: {what}"))
    }
}

fn floats<'a>(a: &'a Answer, key: &str) -> &'a [f64] {
    match a.get(key) {
        Some(Field::Floats(v)) => v,
        _ => &[],
    }
}

fn ints<'a>(a: &'a Answer, key: &str) -> &'a [u64] {
    match a.get(key) {
        Some(Field::Ints(v)) => v,
        _ => &[],
    }
}

fn self_consistent(workload: Workload, task: &Task, outcome: &Outcome) -> Result<(), String> {
    let a = &outcome.answer;
    match workload {
        Workload::Verify | Workload::Paged => {
            let states = a.int("states");
            ensure(states >= 1, "a graph has its initial state")?;
            ensure(
                a.int("edges") + 1 >= states,
                "every non-initial state has an incoming edge",
            )?;
            ensure(a.int("deadlocks") <= states, "deadlocks are states")?;
            ensure(
                a.int("ctl_states") <= states,
                "satisfying states are states",
            )?;
            ensure(
                a.int("ctl_holds") == 0 || a.int("ctl_states") >= 1,
                "a formula that holds has a satisfying state",
            )?;
            let bounds = ints(a, "bounds");
            for (p, lint) in outcome.lint_bounds.iter().enumerate() {
                if let (Some(lint), Some(&exact)) = (lint, bounds.get(p)) {
                    ensure(
                        exact as i64 <= *lint,
                        "an exact place bound exceeds lint's structural bound",
                    )?;
                }
            }
            if workload == Workload::Paged {
                let inv = ints(a, "invariants");
                ensure(
                    inv.len() == 3 && inv[1] + inv[2] == states,
                    "the invariant sweep covers every state",
                )?;
            }
            if let Some(cells) = task.label.strip_prefix("wide_toggle(") {
                let cells: u32 = cells
                    .trim_end_matches(')')
                    .parse()
                    .map_err(|_| "bad label")?;
                ensure(states == 1 << cells, "wide_toggle(n) has 2^n states")?;
                ensure(
                    a.int("edges") == u64::from(cells) << (cells - 1),
                    "wide_toggle(n) has n·2^(n-1) edges",
                )?;
                ensure(a.int("deadlocks") == 1, "wide_toggle has one deadlock")?;
                ensure(
                    a.int("ctl_holds") == 1,
                    "each toggle cell conserves its token",
                )?;
            }
        }
        Workload::Evaluate => {
            let sum = floats(a, "fraction_sum")
                .first()
                .copied()
                .unwrap_or(f64::NAN);
            ensure((sum - 1.0).abs() <= 1e-9, "state time fractions sum to 1")?;
            let tput = floats(a, "throughput");
            ensure(
                tput.iter().all(|x| x.is_finite() && *x >= 0.0),
                "throughputs are finite and non-negative",
            )?;
            ensure(tput.iter().any(|x| *x > 0.0), "some transition fires")?;
            let avg = floats(a, "avg_tokens");
            ensure(
                avg.iter().all(|x| x.is_finite() && *x >= 0.0),
                "average token counts are finite and non-negative",
            )?;
            ensure(
                floats(a, "mean_sojourn").iter().all(|x| *x > 0.0),
                "time advances",
            )?;
        }
        Workload::Simulate => {
            ensure(
                a.int("trace_starts") == a.int("events_started"),
                "the trace and the stat report count the same firings",
            )?;
            ensure(
                a.int("events_finished") <= a.int("events_started"),
                "no firing finishes before it starts",
            )?;
            ensure(
                a.int("length") == task.horizon,
                "the simulation runs to its horizon",
            )?;
        }
    }
    Ok(())
}
