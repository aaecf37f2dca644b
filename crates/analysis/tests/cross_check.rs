//! Static-vs-dynamic cross-check battery: the left-curve discipline.
//!
//! On the golden paper models and a 40-seed `random_net` sweep, the
//! static analyzer and the reachability engine must agree:
//! every structural bound is `>=` the exact dynamic bound, every
//! lint-dead transition really never fires, and no firing transition
//! is ever called dead.

use pnut_analysis::lint;
use pnut_bench::workloads;
use pnut_core::Net;
use pnut_pipeline::{sequential, ThreeStageConfig};
use pnut_reach::{graph, ReachOptions};

/// Assert the agreement contract on one fully-explored net.
fn cross_check(net: &Net, max_states: usize) -> bool {
    let report = lint(net);
    let options = ReachOptions {
        max_states,
        ..ReachOptions::default()
    };
    let Ok(mut g) = graph::build_untimed(net, &options) else {
        // State-limit or evaluation failure: the exact bounds are
        // unknowable, nothing to compare (the generator's contract —
        // see `workloads::random_net`).
        return false;
    };

    let exact = g.place_bounds().expect("paged sweep");
    for (p, bound) in report.bounds.iter().enumerate() {
        if let Some(b) = bound {
            assert!(
                *b >= i64::from(exact[p]),
                "{}: static bound {b} for `{}` below exact bound {}",
                net.name(),
                report.place_names[p],
                exact[p]
            );
        }
    }

    for &t in &report.dead_transitions {
        assert!(
            !g.ever_fires(t).expect("paged sweep"),
            "{}: lint called `{}` dead but it fires",
            net.name(),
            net.transition(t).name()
        );
    }
    // The other direction of "no false dead verdicts": every
    // dynamically firing transition must be absent from the dead list.
    for (tid, tr) in net.transitions() {
        if g.ever_fires(tid).expect("paged sweep") {
            assert!(
                !report.dead_transitions.contains(&tid),
                "{}: `{}` fires yet was reported dead",
                net.name(),
                tr.name()
            );
        }
    }
    true
}

#[test]
fn golden_models_agree() {
    let three_stage = workloads::three_stage_net();
    let interpreted = workloads::interpreted_net();
    let sequential = sequential::build(&ThreeStageConfig::default()).expect("paper config builds");
    for net in [&three_stage, &interpreted, &sequential] {
        assert!(
            cross_check(net, 200_000),
            "{} hit the state cap",
            net.name()
        );
        // The paper models are live: zero error findings.
        assert_eq!(lint(net).errors(), 0, "{}", net.name());
    }
}

/// The paper's three-stage and sequential pipelines are closed
/// systems: every place is both produced and consumed, and every
/// transition has an input.
#[test]
fn paper_models_have_no_structural_dead_ends() {
    let three_stage = workloads::three_stage_net();
    let sequential = sequential::build(&ThreeStageConfig::default()).expect("paper config builds");
    for net in [&three_stage, &sequential] {
        let dead_ends: Vec<_> = lint(net)
            .findings
            .into_iter()
            .filter(|f| {
                matches!(
                    f.code,
                    "isolated-place"
                        | "never-produced-place"
                        | "never-consumed-place"
                        | "input-free-transition"
                )
            })
            .collect();
        assert!(dead_ends.is_empty(), "{}: {dead_ends:?}", net.name());
    }
}

#[test]
fn random_net_sweep_agrees() {
    let mut checked = 0;
    for seed in 0..40 {
        let net = workloads::random_net(seed);
        if cross_check(&net, 2_000) {
            checked += 1;
        }
    }
    // Guard against generator drift starving the sweep.
    assert!(
        checked >= 20,
        "only {checked}/40 random nets were explorable"
    );
}
