//! Seeded task generation: every input of a run comes from the workload
//! seed through [`Rng`], and the program under test only ever sees the
//! generated `.pn` text plus the task's options.
//!
//! Each workload has a fixed grid of strata (model family × size ×
//! mode). A task list is several rounds over the grid; the seed shuffles
//! each round and draws the per-task choices (CTL formula, cache hit
//! ratio, simulation seed and horizon) inside their stratum. Because
//! every round holds every stratum once, two seeds give the same mix of
//! work, and a run's figures move with the program rather than with the
//! seed.

use pnut_bench::workloads::wide_toggle;
use pnut_core::Net;
use pnut_pipeline::interpreted::{self, InterpretedConfig};
use pnut_pipeline::{three_stage, CacheConfig, ThreeStageConfig};

/// The four workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Verify,
    Evaluate,
    Paged,
    Simulate,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "verify" => Some(Workload::Verify),
            "evaluate" => Some(Workload::Evaluate),
            "paged" => Some(Workload::Paged),
            "simulate" => Some(Workload::Simulate),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Verify => "verify",
            Workload::Evaluate => "evaluate",
            Workload::Paged => "paged",
            Workload::Simulate => "simulate",
        }
    }
}

/// splitmix64: tiny, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_0FE2_EB3C_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A model family; the warm-up runs one task of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// §2 three-stage pipeline (`pnut_pipeline::three_stage`).
    ThreeStage,
    /// §3 table-driven pipeline (`pnut_pipeline::interpreted`).
    Interpreted,
    /// `cells` independent one-shot toggles: a `2^cells` lattice with
    /// wide BFS levels.
    WideToggle,
}

/// One closed-loop task: a generated model text plus its options.
#[derive(Debug, Clone)]
pub struct Task {
    /// Human-readable stratum, e.g. `three_stage(ibuf=8,cache=0.9)`.
    pub label: String,
    /// The `.pn` model text handed to `pnut_lang::parse`.
    pub text: String,
    /// Timed (`build_timed`) rather than untimed reachability.
    pub timed: bool,
    /// CTL formula (verify, paged).
    pub ctl: String,
    /// Pager budget in bytes (`usize::MAX` = resident).
    pub budget: usize,
    /// Builder worker threads.
    pub jobs: usize,
    /// Simulation seed and horizon in ticks (simulate).
    pub sim_seed: u64,
    pub horizon: u64,
}

impl Task {
    fn new(label: String, net: &Net) -> Self {
        Task {
            label,
            text: pnut_lang::print(net),
            timed: false,
            ctl: String::new(),
            budget: usize::MAX,
            jobs: 1,
            sim_seed: 0,
            horizon: 0,
        }
    }

    /// Key of the graph this task builds: tasks with equal keys must
    /// give equal answers whatever their budget and job count.
    pub fn model_key(&self) -> String {
        format!(
            "{}/{}",
            self.label,
            if self.timed { "timed" } else { "untimed" }
        )
    }
}

/// A generated stratum, before the seed fills in its per-task choices.
struct Stratum {
    family: Family,
    label: String,
    /// `None`: a §2 model whose cache hit ratio is drawn per task.
    net: Option<Net>,
    timed: bool,
    budget: usize,
    jobs: usize,
}

pub const KIB: usize = 1024;
pub const MIB: usize = 1024 * 1024;

/// Rounds over the grid in one task list: enough for at least 100
/// tasks, so the 90th percentile of one pass has ten samples beyond it,
/// and no more, so a run makes several passes over the list.
fn rounds(workload: Workload) -> usize {
    match workload {
        Workload::Verify => 3,
        Workload::Evaluate => 4,
        Workload::Paged => 5,
        Workload::Simulate => 13,
    }
}

fn three_stage_net(ibuf: u32, hit_ratio: Option<f64>) -> Net {
    let config = ThreeStageConfig {
        ibuf_words: ibuf,
        cache: hit_ratio.map(|hit_ratio| CacheConfig {
            hit_ratio,
            hit_cycles: 1,
        }),
        ..ThreeStageConfig::default()
    };
    three_stage::build(&config).expect("benchmark three_stage configs are valid")
}

fn three_stage_label(ibuf: u32, hit_ratio: Option<f64>) -> String {
    match hit_ratio {
        None => format!("three_stage(ibuf={ibuf})"),
        Some(h) => format!("three_stage(ibuf={ibuf},cache={h})"),
    }
}

fn interpreted_net(ibuf: u32, for_analysis: bool) -> Net {
    let config = InterpretedConfig {
        ibuf_words: ibuf,
        for_analysis,
        ..InterpretedConfig::default()
    };
    interpreted::build(&config).expect("benchmark interpreted configs are valid")
}

/// CTL formulas for the verify workload: the `tests/verification.rs`
/// pool for §2 (buffer size substituted), analogous ones for §3.
fn ctl_pool(family: Family, ibuf: u32) -> Vec<String> {
    match family {
        Family::ThreeStage => vec![
            "AG (Bus_free + Bus_busy = 1)".into(),
            format!("AG (Empty_I_buffers + Full_I_buffers <= {ibuf})"),
            format!("EF (Full_I_buffers = {ibuf})"),
            "AG EF (Decoded_instruction = 1)".into(),
            "AG (Bus_busy = 1 -> EF (Bus_free = 1))".into(),
            "AG (Issued_instruction + Executed <= 1)".into(),
            "AG (Bus_busy = 0)".into(),
            format!("EF (Full_I_buffers = {})", ibuf + 1),
        ],
        Family::Interpreted => vec![
            "AG (Bus_free + Bus_busy = 1)".into(),
            format!("AG (Empty_I_buffers + Full_I_buffers <= {ibuf})"),
            format!("EF (Full_I_buffers = {ibuf})"),
            "AG EF (Issued_instruction = 1)".into(),
            "AG (Bus_busy = 1 -> EF (Bus_free = 1))".into(),
            "AG (Flushing = 1 -> EF (Flushing = 0))".into(),
            "AG (Bus_busy = 0)".into(),
            format!("EF (Full_I_buffers = {})", ibuf + 1),
        ],
        Family::WideToggle => Vec::new(),
    }
}

/// The grid of one workload, in a fixed order, lightest first within a
/// family: the last stratum of each family is that family's warm-up, so
/// set-up reaches the family's largest working set before timing. Of
/// that stratum's tasks the warm-up is the one drawn from the top of
/// the stratified ranges, so its cost barely depends on the seed.
fn grid(workload: Workload) -> Vec<Stratum> {
    let mut g = Vec::new();
    let mut push = |family, label: String, net: Option<Net>, timed, budget, jobs| {
        g.push(Stratum {
            family,
            label,
            net,
            timed,
            budget,
            jobs,
        })
    };
    match workload {
        // Designer's inner loop: 600–12k states, resident, one worker.
        Workload::Verify => {
            for ibuf in 6..=16 {
                for cache in [None, Some(0.9)] {
                    let label = three_stage_label(ibuf, cache);
                    push(
                        Family::ThreeStage,
                        label,
                        Some(three_stage_net(ibuf, cache)),
                        false,
                        usize::MAX,
                        1,
                    );
                }
                let label = three_stage_label(ibuf, None);
                push(
                    Family::ThreeStage,
                    label,
                    Some(three_stage_net(ibuf, None)),
                    true,
                    usize::MAX,
                    1,
                );
            }
            for ibuf in 6..=12 {
                for timed in [true, false] {
                    let label = format!("interpreted_analysis(ibuf={ibuf})");
                    push(
                        Family::Interpreted,
                        label,
                        Some(interpreted_net(ibuf, true)),
                        timed,
                        usize::MAX,
                        1,
                    );
                }
            }
        }
        // Timed chains inside the default 20 000-state cap; the cache
        // strata get their hit ratio per task (see `tasks`).
        Workload::Evaluate => {
            for ibuf in 6..=12 {
                let label = three_stage_label(ibuf, None);
                push(
                    Family::ThreeStage,
                    label,
                    Some(three_stage_net(ibuf, None)),
                    true,
                    usize::MAX,
                    1,
                );
                for _ in 0..2 {
                    let label = format!("three_stage(ibuf={ibuf},cache=*)");
                    push(Family::ThreeStage, label, None, true, usize::MAX, 1);
                }
                let label = format!("interpreted_analysis(ibuf={ibuf})");
                push(
                    Family::Interpreted,
                    label,
                    Some(interpreted_net(ibuf, true)),
                    true,
                    usize::MAX,
                    1,
                );
            }
        }
        // Large graphs under a byte budget: {64 KiB, 1 MiB} × jobs {1, 2}.
        Workload::Paged => {
            let combos = [(64 * KIB, 1), (MIB, 1), (64 * KIB, 2), (MIB, 2)];
            for cells in 13..=15 {
                for (budget, jobs) in combos {
                    let label = format!("wide_toggle({cells})");
                    push(
                        Family::WideToggle,
                        label,
                        Some(wide_toggle(cells)),
                        false,
                        budget,
                        jobs,
                    );
                }
            }
            for ibuf in [16, 24, 32] {
                for (budget, jobs) in combos {
                    let label = three_stage_label(ibuf, None);
                    push(
                        Family::ThreeStage,
                        label,
                        Some(three_stage_net(ibuf, None)),
                        true,
                        budget,
                        jobs,
                    );
                }
            }
        }
        // The `irand`/frequency simulation models.
        Workload::Simulate => {
            for ibuf in [6, 12] {
                for cache in [None, Some(0.9)] {
                    let label = three_stage_label(ibuf, cache);
                    push(
                        Family::ThreeStage,
                        label,
                        Some(three_stage_net(ibuf, cache)),
                        true,
                        usize::MAX,
                        1,
                    );
                }
            }
            for ibuf in [6, 8, 10, 12] {
                let label = format!("interpreted(ibuf={ibuf})");
                push(
                    Family::Interpreted,
                    label,
                    Some(interpreted_net(ibuf, false)),
                    true,
                    usize::MAX,
                    1,
                );
            }
        }
    }
    g
}

/// A seeded task list plus the index of one warm-up task per family.
pub struct TaskList {
    pub tasks: Vec<Task>,
    pub warmups: Vec<usize>,
}

/// The seeded task list of `workload`.
///
/// Per-task draws that change a task's cost are stratified: in round
/// `r`, stratum `i` takes quantile `(r + offset_i) % rounds` of the
/// range (jittered inside it), so every list spans each range evenly.
pub fn tasks(workload: Workload, seed: u64) -> TaskList {
    let mut rng = Rng::new(seed);
    let strata = grid(workload);
    let rounds = rounds(workload);
    let offsets: Vec<usize> = strata
        .iter()
        .map(|_| rng.below(rounds as u64) as usize)
        .collect();
    let formula_offsets: Vec<usize> = strata.iter().map(|_| rng.below(8) as usize).collect();
    // Paged: one formula per model, shared by its budget × jobs strata,
    // so equal graphs must give equal answers.
    let mut paged_formula = std::collections::BTreeMap::new();
    // Evaluate: the cache tasks of one buffer size draw one seeded hit
    // ratio in each half of the range, so each cache input appears four
    // times per list.
    let mut hit_jitter = std::collections::BTreeMap::new();
    let mut tasks = Vec::new();
    // (stratum, stratified quantile) of every task.
    let mut stratum_of = Vec::new();
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..strata.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let s = &strata[i];
            let q = (round + offsets[i]) % rounds;
            let quantile = (q as f64 + rng.unit()) / rounds as f64;
            let mut t = match &s.net {
                Some(net) => Task::new(s.label.clone(), net),
                None => {
                    // Hit ratio in 0.7–0.95, stratified by halves.
                    let half = q % 2;
                    let jitter = *hit_jitter
                        .entry((&s.label, half))
                        .or_insert_with(|| rng.unit());
                    let hit = 0.7 + 0.25 * (half as f64 + jitter) / 2.0;
                    let ibuf = ibuf_of(&s.label);
                    Task::new(
                        three_stage_label(ibuf, Some(hit)),
                        &three_stage_net(ibuf, Some(hit)),
                    )
                }
            };
            t.timed = s.timed;
            t.budget = s.budget;
            t.jobs = s.jobs;
            match workload {
                Workload::Verify => {
                    let pool = ctl_pool(s.family, ibuf_of(&s.label));
                    t.ctl = pool[(round + formula_offsets[i]) % pool.len()].clone();
                }
                Workload::Paged => {
                    let key = t.model_key();
                    let pick = *paged_formula.entry(key).or_insert_with(|| rng.next());
                    t.ctl = paged_ctl(&t.label, pick);
                }
                Workload::Simulate => {
                    // Horizon in 3 000–6 000 ticks, stratified: short
                    // enough that a trace stays cache-sized and a run
                    // makes many passes over the list.
                    t.horizon = 3_000 + (3_000.0 * quantile) as u64;
                    t.sim_seed = rng.next();
                }
                Workload::Evaluate => {}
            }
            tasks.push(t);
            stratum_of.push((i, q));
        }
    }
    let mut families: Vec<Family> = strata.iter().map(|s| s.family).collect();
    families.sort();
    families.dedup();
    let warmups = families
        .into_iter()
        .map(|f| {
            let last = strata
                .iter()
                .rposition(|s| s.family == f)
                .expect("family has a stratum");
            stratum_of
                .iter()
                .position(|&s| s == (last, rounds - 1))
                .expect("every round holds every stratum")
        })
        .collect();
    TaskList { tasks, warmups }
}

/// The `ibuf=N` parameter of a label (0 if absent).
fn ibuf_of(label: &str) -> u32 {
    label
        .split_once("ibuf=")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// One `AG` formula per paged model: a conservation law over one
/// seed-chosen toggle cell, or one of two §2 pipeline invariants.
fn paged_ctl(label: &str, pick: u64) -> String {
    if let Some(cells) = label.strip_prefix("wide_toggle(") {
        let cells: u64 = cells.trim_end_matches(')').parse().expect("cell count");
        let k = pick % cells;
        format!("AG (u{k} + d{k} = 1)")
    } else if pick.is_multiple_of(2) {
        "AG (Bus_free + Bus_busy <= 1)".into()
    } else {
        format!(
            "AG (Empty_I_buffers + Full_I_buffers <= {})",
            ibuf_of(label)
        )
    }
}
