//! Budget-envelope harness for *paged analyses*: verification — not
//! just graph construction — must run inside `--mem-budget`.
//!
//! Two properties are locked in for every analysis (CTL model
//! checking, deadlock detection, place bounds, L1-liveness, Markov
//! steady state) on the paper pipelines and the wide toggle lattice.
//!
//! **Bit-identical results** across `budget ∈ {unlimited, 64 KiB}` ×
//! `jobs ∈ {1, 4}`: paging and parallelism change where rows live and
//! how fast they are found, never what any analysis computes.
//!
//! **The analysis-phase resident envelope**: with the peak probe reset
//! after the build, the segment-ordered sweeps — every analysis reads
//! the graph through `ReachabilityGraph::sweep`, the one pin → scan →
//! maintain loop — keep peak resident arena bytes ≤ budget + one
//! pinned guard (state segment + edge segment) + one segment of slack. Sweeping under `&self` the old way
//! would fault the whole store resident; this harness is what keeps
//! that regression from coming back.

use pnut::core::Net;
use pnut::reach::ctl;
use pnut::reach::graph::{build_timed, build_untimed, ReachError, ReachOptions, ReachabilityGraph};
use pnut_bench::workloads::wide_toggle;
use pnut_pipeline::{interpreted, three_stage, ThreeStageConfig};

/// Far below every workload's combined state + edge arenas, so sweeps
/// must evict and refault throughout.
const TINY_BUDGET: usize = 64 * 1024;

fn options(jobs: usize, mem_budget: usize) -> ReachOptions {
    ReachOptions {
        jobs,
        mem_budget,
        ..ReachOptions::default()
    }
}

/// Everything the analyses under test compute, for cross-configuration
/// equality.
#[derive(Debug, PartialEq)]
struct AnalysisResults {
    states: usize,
    edges: usize,
    bounds: Vec<u32>,
    deadlocks: Vec<usize>,
    /// Per-transition L1-liveness.
    fires: Vec<bool>,
    /// Full per-state satisfaction sets, one per formula (stronger
    /// than comparing `holds_initially`).
    ctl: Vec<Vec<bool>>,
}

/// Build `net` under `(jobs, budget)` and run the whole analysis
/// battery with the peak probe scoped to the analysis phase; when the
/// budget is finite, assert the envelope.
fn run_battery(
    net: &Net,
    timed: bool,
    jobs: usize,
    budget: usize,
    formulas: &[&str],
) -> AnalysisResults {
    let build = if timed { build_timed } else { build_untimed };
    let mut g: ReachabilityGraph = build(net, &options(jobs, budget)).expect("bounded build");
    // Scope the high-water probe to the analysis phase: everything the
    // build faulted in is the build's business, already covered by the
    // construction envelope tests in `reach_golden.rs`.
    g.reset_peak_resident_bytes();

    let bounds = g.place_bounds().expect("paged sweep");
    let deadlocks = g.deadlocks().expect("paged sweep");
    let fires: Vec<bool> = net
        .transitions()
        .map(|(tid, _)| g.ever_fires(tid).expect("paged sweep"))
        .collect();
    let ctl: Vec<Vec<bool>> = formulas
        .iter()
        .map(|f| {
            let formula = ctl::Formula::parse(f).expect("formula parses");
            ctl::check(&mut g, net, &formula)
                .expect("names resolve")
                .satisfying
        })
        .collect();

    if budget != usize::MAX {
        let guard = g.max_state_segment_bytes() + g.max_edge_segment_bytes();
        let slack = guard + g.max_state_segment_bytes().max(g.max_edge_segment_bytes());
        assert!(
            g.peak_resident_bytes() <= budget + slack,
            "`{}` (timed={timed}, jobs={jobs}): analysis phase peaked at {} resident \
             bytes, exceeding budget {budget} + guard {guard} + one-segment slack",
            net.name(),
            g.peak_resident_bytes(),
        );
    }

    AnalysisResults {
        states: g.state_count(),
        edges: g.edge_count(),
        bounds,
        deadlocks,
        fires,
        ctl,
    }
}

/// The harness proper: the reference run (unlimited budget, one job)
/// must match every other configuration bit for bit, and the budgeted
/// runs must actually exercise paging when the graph outgrows the
/// budget.
fn assert_battery_invariant(net: &Net, timed: bool, formulas: &[&str], expect_spill: bool) {
    let reference = run_battery(net, timed, 1, usize::MAX, formulas);
    for jobs in [1, 4] {
        for budget in [usize::MAX, TINY_BUDGET] {
            if (jobs, budget) == (1, usize::MAX) {
                continue;
            }
            let got = run_battery(net, timed, jobs, budget, formulas);
            assert_eq!(
                got,
                reference,
                "`{}` (timed={timed}) diverged at jobs={jobs}, budget={budget:#x}",
                net.name()
            );
        }
    }
    if expect_spill {
        // Double-check the budgeted configuration is not vacuous: the
        // build alone must already have spilled.
        let g = (if timed { build_timed } else { build_untimed })(net, &options(1, TINY_BUDGET))
            .expect("bounded build");
        assert!(
            g.spilled_bytes() > 0,
            "`{}` never spilled at 64 KiB — the envelope assertions are vacuous",
            net.name()
        );
    }
}

fn interpreted_analysis_net() -> Net {
    interpreted::build(&interpreted::InterpretedConfig {
        for_analysis: true,
        ..interpreted::InterpretedConfig::default()
    })
    .expect("analysis config builds")
}

#[test]
fn three_stage_analyses_are_budget_invariant() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let formulas = [
        "AG (Bus_free + Bus_busy = 1)",
        "EF (Full_I_buffers = 6)",
        "AG (Bus_busy = 1 -> AF (Bus_free = 1))",
    ];
    // Untimed: 614 states — fits 64 KiB, so only result-equality is
    // interesting. Timed: 3391 states — the arenas outgrow the budget
    // and the envelope assertion has teeth.
    assert_battery_invariant(&net, false, &formulas, false);
    assert_battery_invariant(&net, true, &formulas, true);
}

#[test]
fn interpreted_analyses_are_budget_invariant() {
    let net = interpreted_analysis_net();
    let formulas = [
        "AG (Bus_free + Bus_busy = 1)",
        "AG EF (ready_to_issue_instruction = 0)",
    ];
    // Untimed: 3383 states over a wide marking — spills at 64 KiB.
    assert_battery_invariant(&net, false, &formulas, true);
    assert_battery_invariant(&net, true, &formulas, false);
}

#[test]
fn wide_toggle_analyses_are_budget_invariant() {
    // 8192 states × 26 places plus a ~190 KiB edge arena: both arena
    // families are far past the budget, so every sweep — including
    // each CTL fixpoint iteration — must stream segments through the
    // 64 KiB window.
    let net = wide_toggle(13);
    let formulas = [
        "AG (u0 + d0 = 1)",
        "EF (d0 = 1 and d12 = 1)",
        "AG EF (d12 = 1)",
    ];
    assert_battery_invariant(&net, false, &formulas, true);
}

/// `ReachabilityGraph::sweep` is the one segment-ordered pass every
/// analysis goes through, and the entry point for callers that need
/// states *and* edges together (they get the pin → scan → maintain
/// discipline without being able to hand-roll the loop): it must visit
/// every state exactly once in index order, agree with the specialized
/// analyses, and stay inside the same envelope.
#[test]
fn for_each_state_in_segments_agrees_with_the_analyses() {
    let net = wide_toggle(13);
    let mut g = build_untimed(&net, &options(1, TINY_BUDGET)).expect("bounded build");
    g.reset_peak_resident_bytes();

    let mut visited = Vec::new();
    let mut bounds = vec![0u32; net.place_count()];
    let mut deadlocks = Vec::new();
    let mut edge_total = 0usize;
    g.sweep(|i, guard| -> Result<(), ReachError> {
        let state = guard.state(i)?;
        let succs = guard.successors(i)?;
        visited.push(i);
        for (b, &t) in bounds.iter_mut().zip(state.marking.as_slice()) {
            *b = (*b).max(t);
        }
        if succs.is_empty() {
            deadlocks.push(i);
        }
        edge_total += succs.len();
        Ok(())
    })
    .expect("sweep completes");

    let guard = g.max_state_segment_bytes() + g.max_edge_segment_bytes();
    let slack = guard + g.max_state_segment_bytes().max(g.max_edge_segment_bytes());
    assert!(
        g.peak_resident_bytes() <= TINY_BUDGET + slack,
        "sweep peaked at {} resident bytes (budget {TINY_BUDGET} + slack {slack})",
        g.peak_resident_bytes()
    );
    assert_eq!(visited, (0..g.state_count()).collect::<Vec<_>>());
    assert_eq!(edge_total, g.edge_count());
    assert_eq!(bounds, g.place_bounds().expect("paged sweep"));
    assert_eq!(deadlocks, g.deadlocks().expect("paged sweep"));
}

/// Deterministic random-net agreement sweep — the always-on analogue
/// of the `paged_analyses_agree_with_unpaged` property in
/// `tests/props.rs` (which needs the `proptest` crate and is gated
/// behind the `proptest-tests` feature the offline build cannot
/// enable): a 1-byte budget forces maximum eviction churn, and every
/// analysis must agree with the fully resident run on dozens of
/// generated nets.
#[test]
fn random_nets_paged_analyses_agree_with_unpaged() {
    use pnut::core::NetBuilder;

    // xorshift64*: tiny, deterministic, good enough to vary structure.
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut checked = 0;
    for case in 0..40u32 {
        let places = 1 + (rng() % 4) as usize;
        let transitions = 1 + (rng() % 4) as usize;
        let mut b = NetBuilder::new(format!("rand{case}"));
        for p in 0..places {
            b.place(format!("p{p}"), (rng() % 3) as u32);
        }
        for t in 0..transitions {
            let mut tb = b.transition(format!("t{t}"));
            for _ in 0..rng() % 3 {
                tb = tb.input_weighted(
                    format!("p{}", rng() as usize % places),
                    1 + (rng() % 2) as u32,
                );
            }
            for _ in 0..rng() % 3 {
                tb = tb.output_weighted(
                    format!("p{}", rng() as usize % places),
                    1 + (rng() % 2) as u32,
                );
            }
            tb.firing(rng() % 3).enabling(rng() % 3).add();
        }
        let net = b.build().expect("generated nets are well-formed");
        for timed in [false, true] {
            let build = if timed { build_timed } else { build_untimed };
            let capped = ReachOptions {
                max_states: 2000,
                ..ReachOptions::default()
            };
            let Ok(mut resident) = build(&net, &capped) else {
                continue; // unbounded: StateLimit, nothing to compare
            };
            let mut paged = build(
                &net,
                &ReachOptions {
                    mem_budget: 1,
                    ..capped.clone()
                },
            )
            .expect("the budget never changes whether a net fits the cap");
            assert_eq!(paged, resident, "case {case} (timed={timed}) diverged");
            assert_eq!(paged.deadlocks(), resident.deadlocks(), "case {case}");
            assert_eq!(paged.place_bounds(), resident.place_bounds(), "case {case}");
            for (tid, _) in net.transitions() {
                assert_eq!(
                    paged.ever_fires(tid),
                    resident.ever_fires(tid),
                    "case {case} liveness of t{}",
                    tid.index()
                );
            }
            let f = ctl::Formula::parse("EF (p0 = 0)").expect("parses");
            assert_eq!(
                ctl::check(&mut paged, &net, &f).expect("checks"),
                ctl::check(&mut resident, &net, &f).expect("checks"),
                "case {case} CTL diverged"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 20,
        "too few bounded cases ({checked}) — generator drifted"
    );
}

#[test]
fn markov_steady_state_is_budget_invariant() {
    use pnut::analytic::markov::{steady_state, MarkovOptions};
    // The Markov path builds its own timed graph and sweeps it twice
    // (chain extraction, place averages); `steady_state` additionally
    // self-asserts the analysis-phase envelope in debug builds whenever
    // a finite budget is set, so running it at 64 KiB *is* the
    // envelope test. Here: results must also be bit-identical across
    // budget × jobs.
    for net in [
        three_stage::build(&ThreeStageConfig::default()).expect("builds"),
        interpreted_analysis_net(),
    ] {
        let reference = steady_state(&net, &MarkovOptions::default()).expect("analyzable");
        for jobs in [1, 4] {
            for budget in [usize::MAX, TINY_BUDGET] {
                if (jobs, budget) == (1, usize::MAX) {
                    continue;
                }
                let mut opts = MarkovOptions::default();
                opts.reach.jobs = jobs;
                opts.reach.mem_budget = budget;
                let got = steady_state(&net, &opts).expect("analyzable");
                assert_eq!(
                    got,
                    reference,
                    "`{}` markov diverged at jobs={jobs}, budget={budget:#x}",
                    net.name()
                );
            }
        }
    }
}
