//! Reachability-based verification of the pipeline models: boundedness,
//! absence of deadlock, and CTL properties — the paper's §4 "other
//! tools" exercised on the §2 system.

use pnut::core::NetBuilder;
use pnut::pipeline::{three_stage, ThreeStageConfig};
use pnut::reach::{ctl, graph};

fn untimed(net: &pnut::core::Net) -> graph::ReachabilityGraph {
    graph::build_untimed(net, &graph::ReachOptions::default()).expect("bounded")
}

#[test]
fn full_pipeline_model_is_bounded_and_deadlock_free() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let mut g = untimed(&net);
    assert!(g.state_count() > 10, "nontrivial state space");
    assert!(
        g.deadlocks().expect("paged sweep").is_empty(),
        "the pipeline must never deadlock: {:?}",
        g.deadlocks()
    );
    // Boundedness facts: the bus is 1-safe, the buffer 6-bounded.
    let bounds = g.place_bounds().expect("paged sweep");
    let bound_of = |name: &str| bounds[net.place_id(name).expect("exists").index()];
    assert_eq!(bound_of("Bus_busy"), 1);
    assert_eq!(bound_of("Bus_free"), 1);
    assert_eq!(bound_of("Full_I_buffers"), 6);
    assert_eq!(bound_of("Empty_I_buffers"), 6);
    assert_eq!(bound_of("Execution_unit"), 1);
    assert_eq!(bound_of("Decoder_ready"), 1);
}

#[test]
fn every_transition_of_the_pipeline_can_fire() {
    // L1-liveness: the model contains no dead transitions.
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let mut g = untimed(&net);
    for (tid, t) in net.transitions() {
        assert!(
            g.ever_fires(tid).expect("paged sweep"),
            "transition `{}` can never fire",
            t.name()
        );
    }
}

#[test]
fn ctl_invariants_of_the_pipeline() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let mut g = untimed(&net);
    for (formula, expect) in [
        // The §4.4 invariant, proved over *all* behaviours here, not
        // just one trace.
        ("AG (Bus_free + Bus_busy = 1)", true),
        ("AG (Empty_I_buffers + Full_I_buffers <= 6)", true),
        // The buffer can fill completely...
        ("EF (Full_I_buffers = 6)", true),
        // ...and the decoder can always eventually get a new instruction.
        ("AG EF (Decoded_instruction = 1)", true),
        // The bus is always eventually freed, over all behaviours
        // (AG AF would be false only with an execution starving the bus).
        ("AG (Bus_busy = 1 -> EF (Bus_free = 1))", true),
        // At most one instruction is ever in the execution unit.
        ("AG (Issued_instruction + Executed <= 1)", true),
        // Sanity: something that must be false.
        ("AG (Bus_busy = 0)", false),
        ("EF (Full_I_buffers = 7)", false),
    ] {
        let f = ctl::Formula::parse(formula).expect("parses");
        let outcome = ctl::check(&mut g, &net, &f).expect("checks");
        assert_eq!(
            outcome.holds_initially, expect,
            "CTL formula `{formula}` expected {expect}"
        );
    }
}

#[test]
fn timed_reachability_of_a_pipeline_fragment() {
    // The decode/issue fragment with constant firing times admits a
    // timed graph; check that in-flight decoding is visible as state.
    let mut b = NetBuilder::new("fragment");
    b.place("Full_I_buffers", 2);
    b.place("Decoder_ready", 1);
    b.place("Decoded", 0);
    b.place("Done", 0);
    b.transition("Decode")
        .input("Full_I_buffers")
        .input("Decoder_ready")
        .output("Decoded")
        .firing(1)
        .add();
    b.transition("Issue")
        .input("Decoded")
        .output("Decoder_ready")
        .output("Done")
        .add();
    let net = b.build().expect("builds");
    let mut g = graph::build_timed(&net, &graph::ReachOptions::default()).expect("bounded");
    assert!(
        (4..=16).contains(&g.state_count()),
        "small timed graph, got {}",
        g.state_count()
    );
    // Some state has Decode in flight.
    let decode = net.transition_id("Decode").expect("exists");
    assert!((0..g.state_count()).any(|i| {
        g.state(i)
            .expect("resident graph")
            .in_flight
            .iter()
            .any(|&(t, _)| t == decode)
    }));
    // Terminal state: both instructions done.
    let done = net.place_id("Done").expect("exists");
    let deadlocks = g.deadlocks().expect("paged sweep");
    assert_eq!(deadlocks.len(), 1);
    assert_eq!(
        g.state(deadlocks[0])
            .expect("resident graph")
            .marking
            .tokens(done),
        2
    );
}

#[test]
fn interpreted_model_reachability_is_rejected_randomness() {
    // The §3 model uses irand in its decode action: reachability must
    // refuse it rather than silently linearize the distribution.
    let net = pnut::pipeline::interpreted::build(
        &pnut::pipeline::interpreted::InterpretedConfig::default(),
    )
    .expect("builds");
    assert_eq!(
        graph::build_untimed(&net, &graph::ReachOptions::default()).unwrap_err(),
        graph::ReachError::UsesRandom
    );
}

#[test]
fn structural_and_reachability_bounds_agree_on_the_bus() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    // Structural: the bus group is conservative.
    let group = [
        net.place_id("Bus_free").expect("exists"),
        net.place_id("Bus_busy").expect("exists"),
    ];
    assert!(pnut::core::invariant::conservation_violations(&net, &group).is_empty());
    // Reachability: therefore the group sum is the initial sum in every
    // state.
    let g = untimed(&net);
    for i in 0..g.state_count() {
        let s = g.state(i).expect("resident graph");
        assert_eq!(
            s.marking.tokens(group[0]) + s.marking.tokens(group[1]),
            1,
            "state {i}"
        );
    }
}

#[test]
fn invariant_basis_contains_the_bus_conservation_law() {
    let net = three_stage::build(&ThreeStageConfig::default()).expect("builds");
    let invariants = pnut::core::invariant::p_invariants(&net);
    assert!(!invariants.is_empty(), "the pipeline has conservation laws");
    for inv in &invariants {
        assert!(pnut::core::invariant::verify_p_invariant(
            &net,
            &inv.weights
        ));
    }
    // The §4.4 bus law is itself a P-invariant (every transition moves
    // the bus token between exactly these two places), provable
    // algebraically without any state exploration:
    let free = net.place_id("Bus_free").expect("exists").index();
    let busy = net.place_id("Bus_busy").expect("exists").index();
    let mut canonical = vec![0i64; net.place_count()];
    canonical[free] = 1;
    canonical[busy] = 1;
    assert!(
        pnut::core::invariant::verify_p_invariant(&net, &canonical),
        "Bus_free + Bus_busy is conserved"
    );
    // And the computed basis spans laws touching the bus.
    assert!(
        invariants
            .iter()
            .any(|i| i.weights[free] != 0 || i.weights[busy] != 0),
        "some basis law must involve the bus"
    );
    // And every invariant's token sum is conserved along a simulated run.
    let trace = pnut::sim::simulate(&net, 5, pnut::core::Time::from_ticks(500)).expect("runs");
    let states: Vec<_> = trace.states().collect();
    for inv in &invariants {
        let expect = inv.token_sum(&states[0].marking);
        // Firing times move tokens into transitions; conservation holds
        // exactly at quiescent points, so check only states where no
        // firing is in flight.
        for s in &states {
            if s.firing_counts.iter().all(|&c| c == 0) {
                assert_eq!(
                    inv.token_sum(&s.marking),
                    expect,
                    "invariant violated at quiescent state {}",
                    s.index
                );
            }
        }
    }
}

#[test]
fn coverability_agrees_with_reachability_on_a_plain_fragment() {
    // The prefetch fragment without inhibitors is a plain net: both
    // tools must agree it is bounded with the same buffer bounds.
    let mut b = NetBuilder::new("prefetch_plain");
    b.place("Bus_free", 1);
    b.place("Bus_busy", 0);
    b.place("Empty_I_buffers", 6);
    b.place("Full_I_buffers", 0);
    b.place("pre_fetching", 0);
    b.transition("Start_prefetch")
        .input("Bus_free")
        .input_weighted("Empty_I_buffers", 2)
        .output("Bus_busy")
        .output("pre_fetching")
        .add();
    b.transition("End_prefetch")
        .input("Bus_busy")
        .input("pre_fetching")
        .output("Bus_free")
        .output_weighted("Full_I_buffers", 2)
        .add();
    b.transition("Consume")
        .input("Full_I_buffers")
        .output("Empty_I_buffers")
        .add();
    let net = b.build().expect("builds");

    let mut g = untimed(&net);
    let tree = pnut::reach::coverability::coverability_tree(
        &net,
        &pnut::reach::coverability::CoverOptions::default(),
    )
    .expect("plain net");
    assert!(!tree.is_unbounded());
    let bounds = g.place_bounds().expect("paged sweep");
    for (pid, p) in net.places() {
        assert_eq!(
            tree.place_bound(pid),
            Some(bounds[pid.index()]),
            "bound mismatch on {}",
            p.name()
        );
    }
}
