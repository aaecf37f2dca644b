//! Timing analysis and verification with tracertool (paper §4.4).
//!
//! Demonstrates the paper's full verification workflow:
//!
//! 1. run the §2 pipeline model and check the paper's example queries
//!    against the trace (bus invariant, buffer refill, type-5
//!    occurrence, bus inevitably freed);
//! 2. plot the Figure 7 logic-analyzer timeline (bus activity and its
//!    breakdown, the execution transitions, a user-defined sum, and the
//!    empty-buffer count) with interval markers;
//! 3. inject the §4.4 modeling bug — a non-zero firing time on a bus
//!    transition — and show the invariant query catching it;
//! 4. model-check the enabling-time bus protocol *exhaustively* with the
//!    timed reachability graph (enabling clocks are part of the timed
//!    state), verifying the invariant over every timed behaviour and
//!    reading the bus-held bound off the graph — no simulation luck
//!    involved.
//!
//! Run with: `cargo run --example verify_timing`

use pnut::core::{NetBuilder, Time};
use pnut::pipeline::{three_stage, ThreeStageConfig};
use pnut::tracer::query::Query;
use pnut::tracer::timeline::{Marker, Signal, Timeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = three_stage::build(&ThreeStageConfig::default())?;
    let trace = pnut::sim::simulate(&net, 3, Time::from_ticks(10_000))?;

    // --- The paper's §4.4 queries -----------------------------------------
    let queries = [
        (
            "bus invariant",
            "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]",
        ),
        (
            "buffer ever fully empty again after the start?",
            "exists s in (S - {#0}) [ Empty_I_buffers(s) = 6 ]",
        ),
        (
            "did we execute a type-5 (50-cycle) instruction?",
            "exists s in S [ exec_type_5(s) > 0 ]",
        ),
        (
            "is the bus always eventually freed?",
            "forall s in {s' in S | Bus_busy(s')} [ inev(s, Bus_free(C), true) ]",
        ),
    ];
    println!("TRACE VERIFICATION (10 000-cycle run)");
    for (what, text) in queries {
        let q = Query::parse(text)?;
        let outcome = q.check(&trace)?;
        println!(
            "  [{}] {what}\n        {text}{}",
            if outcome.holds { "PASS" } else { "FAIL" },
            match outcome.witness {
                Some(w) => format!("  (state #{w})"),
                None => String::new(),
            }
        );
    }

    // --- The Figure 7 timeline --------------------------------------------
    let signals = vec![
        Signal::place("Bus_busy"),
        Signal::place("pre_fetching"),
        Signal::place("fetching"),
        Signal::place("storing"),
        Signal::transition("exec_type_1"),
        Signal::transition("exec_type_2"),
        Signal::transition("exec_type_3"),
        Signal::transition("exec_type_4"),
        Signal::transition("exec_type_5"),
        Signal::function(
            "all_exec",
            "exec_type_1 + exec_type_2 + exec_type_3 + exec_type_4 + exec_type_5",
        )?,
        Signal::place("Empty_I_buffers"),
    ];
    let mut tl = Timeline::sample(
        &trace,
        &signals,
        Time::from_ticks(100),
        Time::from_ticks(200),
    )?;
    tl.add_marker(Marker {
        time: Time::from_ticks(110),
        tag: 'O',
    });
    tl.add_marker(Marker {
        time: Time::from_ticks(158),
        tag: 'X',
    });
    println!("\nTIMING ANALYSIS (cycles 100..200)");
    print!("{tl}");
    if let Some(d) = tl.interval('O', 'X') {
        println!("O <-> X {d}");
    }

    // --- Catch the §4.4 modeling bug ---------------------------------------
    // "An error in the model (for example a non-zero timing in a
    // transition) may cause a token to be removed from both places at
    // the same time."
    let mut b = NetBuilder::new("buggy_bus");
    b.place("Bus_free", 1);
    b.place("Bus_busy", 0);
    b.transition("seize")
        .input("Bus_free")
        .output("Bus_busy")
        .firing(2) // BUG: should be instantaneous
        .add();
    b.transition("release")
        .input("Bus_busy")
        .output("Bus_free")
        .enabling(3)
        .add();
    let buggy = b.build()?;
    let buggy_trace = pnut::sim::simulate(&buggy, 0, Time::from_ticks(50))?;
    let invariant = Query::parse("forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]")?;
    let outcome = invariant.check(&buggy_trace)?;
    println!("\nINJECTED BUG (firing time on a bus transition)");
    println!(
        "  invariant check: {} (counterexample: state #{})",
        if outcome.holds {
            "PASS — unexpected!"
        } else {
            "FAIL — bug caught"
        },
        outcome.witness.unwrap_or(0),
    );
    // The structural analyzer flags it before any simulation, too.
    let group = [
        buggy.place_id("Bus_free").expect("place exists"),
        buggy.place_id("Bus_busy").expect("place exists"),
    ];
    let movers = pnut::core::invariant::nonatomic_group_movers(&buggy, &group);
    println!(
        "  structural check: {} non-atomic bus mover(s) flagged before simulation",
        movers.len()
    );

    // --- Model-check the enabling-time protocol with the timed graph -------
    // A trace query checks one simulated path; the timed reachability
    // graph enumerates *every* timed behaviour — enabling clocks
    // included — so the verdict is exhaustive.
    use pnut::reach::graph::{build_timed, EdgeLabel, ReachOptions};
    let mut b = NetBuilder::new("bus_protocol");
    b.place("Bus_free", 1);
    b.place("Bus_busy", 0);
    b.transition("seize")
        .input("Bus_free")
        .output("Bus_busy")
        .add();
    b.transition("release")
        .input("Bus_busy")
        .output("Bus_free")
        .enabling(3) // hold the bus 3 cycles, then release atomically
        .add();
    let protocol = b.build()?;
    let mut graph = build_timed(&protocol, &ReachOptions::default())?;
    let formula = pnut::reach::ctl::Formula::parse("AG (Bus_busy + Bus_free = 1)")?;
    let verdict = pnut::reach::ctl::check(&mut graph, &protocol, &formula)?;
    let busy = protocol.place_id("Bus_busy").expect("place exists");
    // The verified timing bound: total time the graph lets pass while
    // the bus is held, per acquisition cycle.
    let held: u64 = (0..graph.state_count())
        .filter(|&s| graph.state(s).expect("resident graph").marking.tokens(busy) == 1)
        .flat_map(|s| graph.successors(s).expect("resident graph").iter())
        .map(|&(l, _)| match l {
            EdgeLabel::Advance(d) => d,
            EdgeLabel::Fire(_) => 0,
        })
        .sum();
    println!(
        "\nTIMED MODEL CHECK (enabling-3 release protocol, {} timed states)",
        graph.state_count()
    );
    println!(
        "  bus invariant over ALL timed behaviours: {}",
        if verdict.holds_initially {
            "HOLDS"
        } else {
            "FAILS"
        }
    );
    println!("  verified bound: the bus is held exactly {held} cycles per acquisition");
    // The buggy variant fails the same exhaustive check (the in-flight
    // `seize` leaves both places empty — no trace luck involved).
    let mut buggy_graph = build_timed(&buggy, &ReachOptions::default())?;
    let buggy_verdict = pnut::reach::ctl::check(&mut buggy_graph, &buggy, &formula)?;
    println!(
        "  buggy variant: {} ({} of {} timed states satisfy the invariant)",
        if buggy_verdict.holds_initially {
            "HOLDS — unexpected!"
        } else {
            "FAILS — bug proven, not just observed"
        },
        buggy_verdict.count(),
        buggy_graph.state_count()
    );
    Ok(())
}
