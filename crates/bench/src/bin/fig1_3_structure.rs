#![forbid(unsafe_code)]

//! Figures 1–3: the three-stage pipeline's subnets, shown structurally.
//!
//! The paper's figures are screenshots of the graphical editor; the
//! faithful textual equivalent is the net description language, printed
//! per stage, plus the structural checks §4.2 relies on (the bus group
//! is conservative and atomic).

use pnut_core::invariant;
use pnut_pipeline::{three_stage, ThreeStageConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = three_stage::build(&ThreeStageConfig::default())?;

    println!("== Figures 1-3: the three-stage pipeline model ==\n");
    println!(
        "{} places, {} transitions; the paper quotes 'roughly 25 lines' —",
        net.place_count(),
        net.transition_count()
    );
    let text = pnut_lang::print(&net);
    println!("our textual form is {} lines:\n", text.lines().count());
    println!("{text}");

    println!("== Structural checks ==");
    let group = [
        net.place_id("Bus_free").expect("bus places exist"),
        net.place_id("Bus_busy").expect("bus places exist"),
    ];
    let violations = invariant::conservation_violations(&net, &group);
    let nonatomic = invariant::nonatomic_group_movers(&net, &group);
    println!(
        "Bus_free/Bus_busy conservation violations: {} (expect 0)",
        violations.len()
    );
    println!(
        "non-atomic bus movers:                     {} (expect 0)",
        nonatomic.len()
    );
    println!("\nStage inventory (Figure -> subnet):");
    for (fig, stage, transitions) in [
        (
            "Figure 1",
            "prefetch",
            vec!["Start_prefetch", "End_prefetch"],
        ),
        (
            "Figure 2",
            "decode/eaddr/operand-fetch",
            vec![
                "Decode",
                "Type_1",
                "Type_2",
                "Type_3",
                "calc_eaddr_1",
                "calc_eaddr_2",
                "start_fetch",
                "end_fetch",
                "finish_2",
                "finish_3",
            ],
        ),
        (
            "Figure 3",
            "execute/store",
            vec![
                "Issue",
                "exec_type_1",
                "exec_type_2",
                "exec_type_3",
                "exec_type_4",
                "exec_type_5",
                "no_store",
                "want_store",
                "start_store",
                "end_store",
            ],
        ),
    ] {
        let present = transitions
            .iter()
            .filter(|t| net.transition_id(t).is_some())
            .count();
        println!(
            "  {fig} ({stage}): {present}/{} transitions present",
            transitions.len()
        );
    }
    Ok(())
}
