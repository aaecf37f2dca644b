//! Golden equivalence tests for the interned reachability engine.
//!
//! The zero-copy `StateStore` + CSR construction in `pnut_reach` must be
//! *semantically identical* to the seed construction it replaced — same
//! states, same discovery order, same edges. The seed implementation is
//! kept frozen in [`pnut_bench::legacy_reach`]; these tests run both on
//! the paper's models and compare state-by-state and edge-by-edge, and
//! pin the expected state/edge counts as golden numbers so a regression
//! in either implementation is caught even if both drift together.

use pnut::reach::graph::{build_timed, build_untimed, EdgeLabel, ReachOptions, ReachabilityGraph};
use pnut_bench::legacy_reach::{self, LegacyGraph};
use pnut_bench::workloads::{timed_fragment, wide_toggle};
use pnut_core::Net;
use pnut_pipeline::{interpreted, sequential, three_stage, ThreeStageConfig};

fn with_jobs(jobs: usize) -> ReachOptions {
    ReachOptions {
        jobs,
        ..ReachOptions::default()
    }
}

/// A 64 KiB resident-arena budget: far below the golden models' state
/// arenas, so the pager must seal, evict, and refault segments
/// throughout the build.
const TINY_BUDGET: usize = 64 * 1024;

fn with_budget(jobs: usize, mem_budget: usize) -> ReachOptions {
    ReachOptions {
        jobs,
        mem_budget,
        ..ReachOptions::default()
    }
}

fn assert_equivalent(g: &ReachabilityGraph, l: &LegacyGraph) {
    assert_eq!(g.state_count(), l.state_count(), "state counts differ");
    assert_eq!(g.edge_count(), l.edge_count(), "edge counts differ");
    for i in 0..g.state_count() {
        let a = g.state(i).expect("resident graph");
        let b = l.state(i);
        assert_eq!(
            a.marking.as_slice(),
            b.marking.as_slice(),
            "marking of state {i} differs"
        );
        assert_eq!(a.env, &b.env, "environment of state {i} differs");
        assert_eq!(
            a.in_flight,
            &b.in_flight[..],
            "in-flight of state {i} differs"
        );
        let got: Vec<(EdgeLabel, usize)> = g
            .successors(i)
            .expect("resident graph")
            .iter()
            .map(|&(label, target)| (label, target as usize))
            .collect();
        assert_eq!(got, l.successors(i), "edges of state {i} differ");
    }
}

fn untimed_pair(net: &Net) -> (ReachabilityGraph, LegacyGraph) {
    let options = ReachOptions::default();
    (
        build_untimed(net, &options).expect("interned build"),
        legacy_reach::build_untimed(net, &options).expect("legacy build"),
    )
}

#[test]
fn three_stage_untimed_matches_seed_construction() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let (g, l) = untimed_pair(&net);
    assert_equivalent(&g, &l);
    assert_eq!((g.state_count(), g.edge_count()), (614, 1988));
}

#[test]
fn sequential_untimed_matches_seed_construction() {
    let net = sequential::build(&ThreeStageConfig::default()).expect("builds");
    let (g, l) = untimed_pair(&net);
    assert_equivalent(&g, &l);
    assert_eq!((g.state_count(), g.edge_count()), (19, 26));
}

#[test]
fn interpreted_untimed_matches_seed_construction() {
    // The analysis variant: round-robin dispatch, serialized branch
    // resolution (the simulation variant uses `irand`, which
    // reachability rejects, and has an unbounded untimed state space).
    let config = interpreted::InterpretedConfig {
        for_analysis: true,
        ..interpreted::InterpretedConfig::default()
    };
    let net = interpreted::build(&config).expect("builds");
    let (g, l) = untimed_pair(&net);
    assert_equivalent(&g, &l);
    assert_eq!((g.state_count(), g.edge_count()), (3383, 8887));
    // Round-robin decode cycles `ty` through the five types, so the
    // interner sees a bounded set of distinct environments.
    assert_eq!(g.store().env_count(), 20);
}

/// Golden timed state/edge counts for the full paper pipelines — the
/// graphs the enabling-clock state extension unlocked (the seed
/// construction rejects every one of these nets because their
/// memory-completion transitions use enabling delays). Each build is
/// also asserted bit-identical across `jobs ∈ {1, 4}` ×
/// `mem_budget ∈ {unlimited, 64 KiB}`.
#[test]
fn timed_pipelines_have_golden_counts_and_deterministic_builds() {
    let cases: [(Net, (usize, usize)); 3] = [
        (
            three_stage::build(&ThreeStageConfig::default()).expect("builds"),
            (3391, 4876),
        ),
        (
            interpreted::build(&interpreted::InterpretedConfig {
                for_analysis: true,
                ..interpreted::InterpretedConfig::default()
            })
            .expect("builds"),
            (638, 984),
        ),
        (
            sequential::build(&ThreeStageConfig::default()).expect("builds"),
            (32, 39),
        ),
    ];
    for (net, (states, edges)) in &cases {
        let reference = build_timed(net, &ReachOptions::default()).expect("timed build");
        assert_eq!(
            (reference.state_count(), reference.edge_count()),
            (*states, *edges),
            "timed golden counts of `{}`",
            net.name()
        );
        // The whole point of the extension: enabling clocks really are
        // part of the reachable state space of these models.
        assert!(
            (0..reference.state_count()).any(|i| !reference
                .state(i)
                .expect("resident graph")
                .enabling
                .is_empty()),
            "`{}` should carry enabling clocks",
            net.name()
        );
        // The frozen seed construction still rejects these nets — the
        // golden counts above cannot be cross-checked against it.
        assert!(
            legacy_reach::build_timed(net, &ReachOptions::default()).is_err(),
            "seed construction unexpectedly accepts `{}`",
            net.name()
        );
        for jobs in [1, 4] {
            for budget in [usize::MAX, TINY_BUDGET] {
                let g = build_timed(net, &with_budget(jobs, budget)).expect("timed build");
                assert_eq!(
                    g,
                    reference,
                    "timed build of `{}` diverged at jobs = {jobs}, budget = {budget:#x}",
                    net.name()
                );
            }
        }
    }
}

#[test]
fn timed_fragment_matches_seed_construction() {
    let net = timed_fragment(3);
    let options = ReachOptions::default();
    let g = build_timed(&net, &options).expect("interned build");
    let l = legacy_reach::build_timed(&net, &options).expect("legacy build");
    assert_equivalent(&g, &l);
    println!(
        "timed fragment: {} states, {} edges",
        g.state_count(),
        g.edge_count()
    );
}

#[test]
fn parallel_untimed_builds_are_bit_identical_on_the_golden_models() {
    let nets = [
        three_stage::build(&ThreeStageConfig::default()).expect("builds"),
        sequential::build(&ThreeStageConfig::default()).expect("builds"),
        interpreted::build(&interpreted::InterpretedConfig {
            for_analysis: true,
            ..interpreted::InterpretedConfig::default()
        })
        .expect("builds"),
    ];
    for net in &nets {
        let seq = build_untimed(net, &ReachOptions::default()).expect("sequential build");
        for jobs in [2, 4, 8] {
            let par = build_untimed(net, &with_jobs(jobs)).expect("parallel build");
            assert_eq!(
                par,
                seq,
                "parallel build (jobs = {jobs}) diverged on `{}`",
                net.name()
            );
        }
    }
}

#[test]
fn parallel_timed_build_is_bit_identical_on_the_fragment() {
    let net = timed_fragment(3);
    let seq = build_timed(&net, &ReachOptions::default()).expect("sequential build");
    for jobs in [2, 4, 8] {
        let par = build_timed(&net, &with_jobs(jobs)).expect("parallel build");
        assert_eq!(par, seq, "timed parallel build (jobs = {jobs}) diverged");
    }
}

#[test]
fn parallel_build_is_bit_identical_on_wide_frontiers() {
    // The paper pipelines never grow a frontier past a few dozen states,
    // so their parallel builds run the level machinery without spawning.
    // The toggle lattice has levels thousands of states wide, forcing
    // real cross-thread interning through the sharded pending tables.
    let net = wide_toggle(13); // 8192 states, max level width C(13,6) = 1716
    let seq = build_untimed(&net, &ReachOptions::default()).expect("sequential build");
    assert_eq!(seq.state_count(), 1 << 13);
    for jobs in [2, 4, 8] {
        let par = build_untimed(&net, &with_jobs(jobs)).expect("parallel build");
        assert_eq!(par, seq, "wide parallel build (jobs = {jobs}) diverged");
    }
}

#[test]
fn parallel_interpreted_stress_is_stable_across_repeats() {
    // Run the 3383-state interpreted build repeatedly at several worker
    // counts to shake out interleaving bugs in the shard/splice path:
    // any racy key reduction or splice ordering would show up as a
    // store/edge mismatch in some repetition.
    let net = interpreted::build(&interpreted::InterpretedConfig {
        for_analysis: true,
        ..interpreted::InterpretedConfig::default()
    })
    .expect("builds");
    let seq = build_untimed(&net, &ReachOptions::default()).expect("sequential build");
    for round in 0..6 {
        for jobs in [2, 4, 8] {
            let par = build_untimed(&net, &with_jobs(jobs)).expect("parallel build");
            assert_eq!(par, seq, "round {round}, jobs = {jobs} diverged");
        }
    }
}

#[test]
fn paged_builds_are_bit_identical_at_any_budget_and_job_count() {
    // The disk-backed pager must never change results: (jobs ∈ {1, 4})
    // × (budget ∈ {unlimited, 64 KiB}) on the golden models and the
    // wide-toggle lattice, all equal to the plain in-memory build.
    let nets = [
        three_stage::build(&ThreeStageConfig::default()).expect("builds"),
        interpreted::build(&interpreted::InterpretedConfig {
            for_analysis: true,
            ..interpreted::InterpretedConfig::default()
        })
        .expect("builds"),
        wide_toggle(13),
    ];
    for net in &nets {
        let reference = build_untimed(net, &ReachOptions::default()).expect("reference build");
        for jobs in [1, 4] {
            for budget in [usize::MAX, TINY_BUDGET] {
                let g = build_untimed(net, &with_budget(jobs, budget)).expect("paged build");
                assert_eq!(
                    g,
                    reference,
                    "jobs = {jobs}, budget = {budget:#x} diverged on `{}`",
                    net.name()
                );
                if budget == TINY_BUDGET && net.name() == "wide_toggle" {
                    assert!(
                        g.store().spilled_bytes() > 0,
                        "64 KiB must actually force eviction on the lattice (jobs = {jobs})"
                    );
                }
            }
        }
    }
    // Timed graphs page their in-flight arenas through the same path.
    let net = timed_fragment(3);
    let reference = build_timed(&net, &ReachOptions::default()).expect("reference build");
    for jobs in [1, 4] {
        let g = build_timed(&net, &with_budget(jobs, TINY_BUDGET)).expect("paged timed build");
        assert_eq!(g, reference, "timed paged build (jobs = {jobs}) diverged");
    }
}

#[test]
fn paged_build_stays_inside_the_budget_envelope() {
    // A workload whose arenas far exceed the budget must complete with
    // peak resident arena bytes ≤ budget + one state segment + one
    // edge segment (the documented envelope of the sequential build:
    // probe hits fault at most one state segment in, and the edge
    // arena — which shares the byte ledger since the CSR rows page —
    // grows by at most one segment's rows before its own `&mut` point
    // evicts back down).
    let net = wide_toggle(13); // 8192 states × 26 places ≫ 64 KiB
    let g = build_untimed(&net, &with_budget(1, TINY_BUDGET)).expect("paged build");
    assert!(g.spilled_bytes() > 0, "the budget must force spilling");
    let slack = g.max_state_segment_bytes() + g.max_edge_segment_bytes();
    assert!(
        g.resident_bytes() <= TINY_BUDGET + slack,
        "resident {} exceeds budget {} + segments {}",
        g.resident_bytes(),
        TINY_BUDGET,
        slack
    );
    assert!(
        g.peak_resident_bytes() <= TINY_BUDGET + slack,
        "peak {} exceeds budget {} + segments {}",
        g.peak_resident_bytes(),
        TINY_BUDGET,
        slack
    );
    // The edge arena really is paged: the 8192-row CSR (~190 KiB of
    // edges) cannot have stayed resident under a 64 KiB budget.
    assert!(
        g.max_edge_segment_bytes() > 0,
        "edge segments must have sealed"
    );
}

#[test]
fn state_limit_is_deterministic_and_consistent_on_a_paged_store() {
    // The cap must surface the same deterministic error whether or not
    // the store is paging (and regardless of worker count), and the
    // build must fail cleanly rather than leave a half-spilled store.
    use pnut_core::NetBuilder;
    let mut b = NetBuilder::new("unbounded");
    b.place("p", 0);
    b.transition("gen").output("p").add();
    let net = b.build().expect("builds");
    let reference = build_untimed(&net, &with_jobs(1)).expect_err("unbounded");
    for jobs in [1, 4] {
        let e = build_untimed(&net, &with_budget(jobs, 4 * 1024)).expect_err("unbounded");
        assert_eq!(e, reference, "jobs = {jobs} reported a different limit");
    }
    // A capped build that *fits* must agree with the uncapped one even
    // when the cap bites exactly at a segment boundary's worth of
    // states under a tiny budget.
    let lattice = wide_toggle(13);
    let full = build_untimed(&lattice, &ReachOptions::default()).expect("reference");
    for jobs in [1, 4] {
        let opts = ReachOptions {
            max_states: full.state_count(),
            ..with_budget(jobs, TINY_BUDGET)
        };
        let g = build_untimed(&lattice, &opts).expect("exactly at the cap");
        assert_eq!(g, full, "jobs = {jobs} diverged at the exact cap");
        let opts = ReachOptions {
            max_states: full.state_count() - 1,
            ..with_budget(jobs, TINY_BUDGET)
        };
        let e = build_untimed(&lattice, &opts).expect_err("one below the cap");
        assert_eq!(
            e,
            pnut::reach::graph::ReachError::StateLimit {
                limit: full.state_count() - 1
            },
            "jobs = {jobs}"
        );
    }
}

#[test]
fn spill_io_failures_are_reported_not_panicked() {
    // An unusable spill directory must surface as ReachError::Spill
    // from the first forced eviction — no expect/panic on file ops.
    let mut missing = std::env::temp_dir();
    missing.push(format!("pnut-golden-no-such-dir-{}", std::process::id()));
    missing.push("nested");
    let options = ReachOptions {
        spill_dir: Some(missing),
        ..with_budget(1, TINY_BUDGET)
    };
    let err = build_untimed(&wide_toggle(13), &options).expect_err("spill dir is unusable");
    assert!(
        matches!(err, pnut::reach::graph::ReachError::Spill(_)),
        "expected a spill error, got {err:?}"
    );
}

#[test]
fn rebuilds_are_deterministic_on_the_paper_models() {
    let three = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let seq = sequential::build(&ThreeStageConfig::default()).expect("builds");
    let options = ReachOptions::default();
    for net in [&three, &seq, &timed_fragment(3)] {
        let a = build_untimed(net, &options).expect("first build");
        let b = build_untimed(net, &options).expect("second build");
        assert_eq!(a, b, "untimed rebuild of `{}` differs", net.name());
    }
    let a = build_timed(&timed_fragment(3), &options).expect("first build");
    let b = build_timed(&timed_fragment(3), &options).expect("second build");
    assert_eq!(a, b, "timed rebuild differs");
}

/// Build `src` capped at `max_states`, untimed and timed at jobs
/// {1, 2, 4} × budget {∞, 64 KiB}, and return the one error every
/// configuration must agree on.
fn same_error_everywhere(src: &str, max_states: usize) -> pnut::reach::graph::ReachError {
    let net = pnut::lang::parse(src).expect("parses");
    let capped = |options: ReachOptions| ReachOptions {
        max_states,
        ..options
    };
    let reference = build_untimed(&net, &capped(with_jobs(1))).expect_err("the build fails");
    for timed in [false, true] {
        for jobs in [1, 2, 4] {
            for budget in [usize::MAX, TINY_BUDGET] {
                let options = capped(with_budget(jobs, budget));
                let e = if timed {
                    build_timed(&net, &options)
                } else {
                    build_untimed(&net, &options)
                }
                .expect_err("the build fails");
                assert_eq!(
                    e, reference,
                    "timed = {timed}, jobs = {jobs}, budget = {budget}"
                );
            }
        }
    }
    reference
}

#[test]
fn the_action_runs_before_the_token_movement_at_every_job_count() {
    // Firing `t` would overflow `p`, but its action fails first: the
    // action runs before the tokens move (as in the simulator), so every
    // build reports the division by zero, never the overflow.
    let e = same_error_everywhere(
        "net order\n\
         var z = 0\n\
         var x = 1\n\
         place q = 1\n\
         place p = 4294967295\n\
         trans t\n  in q\n  out p\n  act x = x / z;\nend\n",
        ReachOptions::default().max_states,
    );
    assert_eq!(
        e,
        pnut::reach::graph::ReachError::Eval {
            transition: "t".into(),
            source: pnut_core::EvalError::DivisionByZero,
        }
    );
}

#[test]
fn an_eval_error_deep_in_the_build_reports_the_earliest_discovery() {
    // Ten independent cells; switching one on bumps a counter and reads
    // `tab[n]`, which runs out of range on the fifth cell. Every source
    // of the 210-state fourth level fails, each on the first off cell
    // it can switch, and the level is wide enough to be split across
    // workers. The reported error must be the one met first in
    // breadth-first order, at any job count and budget.
    let mut src = String::from("net deep\nvar n = 0\nvar y = 0\ntable tab = 0 1 2 3 4\n");
    for i in 0..10 {
        src += &format!("place off{i} = 1\nplace on{i} = 0\n");
        src +=
            &format!("trans up{i}\n  in off{i}\n  out on{i}\n  act n = n + 1; y = tab[n];\nend\n");
        src += &format!("trans down{i}\n  in on{i}\n  out off{i}\n  act n = n - 1;\nend\n");
    }
    let e = same_error_everywhere(&src, ReachOptions::default().max_states);
    assert_eq!(
        e,
        pnut::reach::graph::ReachError::Eval {
            transition: "up4".into(),
            source: pnut_core::EvalError::IndexOutOfBounds {
                table: "tab".into(),
                index: 5,
                len: 5,
            },
        }
    );
}

/// Ten cells that only switch on, counted by `n`, plus a `probe` that
/// runs while cells 2–5 are all on and reads `tab[n]`, which is out of
/// range from n = 4. Level 4 lists the 4-subsets of the cells in
/// lexicographic order: 210 sources, wide enough to split at jobs 2
/// and 4. The probe fails at exactly one of them, {2, 3, 4, 5} at
/// index 140 (after the 140 sources holding cell 0 or 1), once that
/// source's own successors are interned. That is in the second of two
/// chunks and the third of four; later sources keep discovering new
/// states. The 386 states of levels 0–4 always fit under the caps
/// below.
fn capped_probe_net() -> String {
    let mut src = String::from("net capped\nvar n = 0\nvar y = 0\ntable tab = 0 0 0 0\n");
    for i in 0..10 {
        src += &format!("place off{i} = 1\nplace on{i} = 0\n");
        src += &format!("trans up{i}\n  in off{i}\n  out on{i}\n  act n = n + 1;\nend\n");
    }
    src += "trans probe\n  in on2 on3 on4 on5\n  out on2 on3 on4 on5\n  act y = tab[n];\nend\n";
    src
}

#[test]
fn a_cap_crossed_before_the_first_eval_error_wins_in_a_split_level() {
    // Source 0 of level 4 discovers six new states; the fourth crosses
    // the cap, in the first chunk whenever the level is split, long
    // before the probe fails in a later chunk.
    let e = same_error_everywhere(&capped_probe_net(), 386 + 3);
    assert_eq!(e, pnut::reach::graph::ReachError::StateLimit { limit: 389 });
    // Inside the failing chunk too: source 140 discovers new states
    // 197–200 before its probe fails, so a cap of 198 new states wins.
    let e = same_error_everywhere(&capped_probe_net(), 386 + 198);
    assert_eq!(e, pnut::reach::graph::ReachError::StateLimit { limit: 584 });
}

#[test]
fn an_eval_error_before_the_cap_is_crossed_wins_in_a_split_level() {
    // Sources 0..=140 of level 4 discover 200 new states, then the probe
    // fails. The 211th new state, which the last chunk at jobs 4 reaches
    // on its own, must never be reported.
    let e = same_error_everywhere(&capped_probe_net(), 386 + 210);
    assert_eq!(
        e,
        pnut::reach::graph::ReachError::Eval {
            transition: "probe".into(),
            source: pnut_core::EvalError::IndexOutOfBounds {
                table: "tab".into(),
                index: 4,
                len: 4,
            },
        }
    );
}
