//! Finding-by-finding coverage of the lint passes on purpose-built
//! nets.

use pnut_analysis::{lint, Severity};
use pnut_core::{Expr, Net, NetBuilder, NetError};

fn codes(net: &Net) -> Vec<&'static str> {
    lint(net).findings.iter().map(|f| f.code).collect()
}

fn has(net: &Net, code: &str, subject: &str) -> bool {
    lint(net)
        .findings
        .iter()
        .any(|f| f.code == code && f.subject == subject)
}

/// The §4.4 bus net: fully covered, no findings at all.
fn bus() -> Result<Net, NetError> {
    let mut b = NetBuilder::new("bus");
    b.place("Bus_free", 1);
    b.place("Bus_busy", 0);
    b.transition("seize")
        .input("Bus_free")
        .output("Bus_busy")
        .add();
    b.transition("release")
        .input("Bus_busy")
        .output("Bus_free")
        .add();
    b.build()
}

#[test]
fn clean_net_has_no_findings() -> Result<(), NetError> {
    let report = lint(&bus()?);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.bounds, vec![Some(1), Some(1)]);
    assert_eq!(report.errors(), 0);
    Ok(())
}

#[test]
fn uncovered_place_warns() -> Result<(), NetError> {
    let mut b = NetBuilder::new("mint");
    b.place("u", 1);
    // `mint` adds a token per firing: no semi-positive invariant can
    // cover `u`.
    b.transition("mint")
        .input("u")
        .output_weighted("u", 2)
        .add();
    b.transition("burn")
        .input_weighted("u", 2)
        .output("u")
        .add();
    let net = b.build()?;
    assert!(has(&net, "unbounded-place", "u"));
    assert_eq!(lint(&net).bounds, vec![None]);
    Ok(())
}

#[test]
fn bound_zero_input_is_dead() -> Result<(), NetError> {
    let mut b = NetBuilder::new("z");
    b.place("z", 0);
    // Self-loop keeps `z` out of the source/sink report while the
    // invariant `z = 0` proves the bound.
    b.transition("dead_t").input("z").output("z").add();
    let net = b.build()?;
    let report = lint(&net);
    assert!(has(&net, "dead-transition", "dead_t"));
    assert_eq!(report.dead_transitions.len(), 1);
    let why = &report.findings[0].why;
    assert!(
        why.contains("z = 0"),
        "why should name the invariant: {why}"
    );
    Ok(())
}

#[test]
fn starved_unproduced_input_is_dead() -> Result<(), NetError> {
    let mut b = NetBuilder::new("starved");
    b.place("src", 0);
    b.place("dst", 0);
    b.transition("t").input("src").output("dst").add();
    let net = b.build()?;
    // `src` empty with no producer: dead without any invariant proof.
    assert!(has(&net, "dead-transition", "t"));
    Ok(())
}

#[test]
fn constant_false_predicate_is_dead() -> Result<(), NetError> {
    let mut b = NetBuilder::new("predfalse");
    b.place("a", 1);
    b.transition("t")
        .input("a")
        .output("a")
        .predicate(Expr::parse("1 > 2").expect("parses"))
        .add();
    let net = b.build()?;
    let report = lint(&net);
    assert!(has(&net, "dead-transition", "t"));
    assert!(report.findings[0].why.contains("constantly false"));
    Ok(())
}

#[test]
fn always_marked_inhibitor_is_dead() -> Result<(), NetError> {
    let mut b = NetBuilder::new("inhib");
    b.place("c", 1);
    b.place("x", 1);
    b.place("y", 0);
    // `c` is conserved at exactly 1 token (invariant `c = 1`), so an
    // inhibitor with threshold 1 can never unblock.
    b.transition("keep").input("c").output("c").add();
    b.transition("blocked")
        .input("x")
        .output("y")
        .inhibitor("c")
        .add();
    b.transition("back").input("y").output("x").add();
    let net = b.build()?;
    let report = lint(&net);
    assert!(
        has(&net, "dead-transition", "blocked"),
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].why.contains("inhibitor"));
    Ok(())
}

/// Findings are stably sorted by severity only, so within one severity
/// the emission order is visible output: isolated → never-produced →
/// never-consumed → input-free, each kind in id order. The drain and
/// pile places interleave by id, so a per-place pass that emitted both
/// kinds at once would interleave the Info findings.
#[test]
fn structural_dead_ends_are_reported() -> Result<(), NetError> {
    let mut b = NetBuilder::new("ends");
    b.place("lonely", 0);
    b.place("drain_a", 2);
    b.place("pile_a", 0);
    b.place("drain_b", 1);
    b.place("pile_b", 0);
    b.transition("t_a").input("drain_a").output("pile_a").add();
    b.transition("t_b").input("drain_b").output("pile_b").add();
    b.transition("free").output("pile_a").add();
    let net = b.build()?;
    let found: Vec<(&str, String)> = lint(&net)
        .findings
        .into_iter()
        .map(|f| (f.code, f.subject))
        .collect();
    let expected = [
        ("unbounded-place", "drain_a"),
        ("unbounded-place", "pile_a"),
        ("isolated-place", "lonely"),
        ("disconnected-net", "ends"),
        ("never-produced-place", "drain_a"),
        ("never-produced-place", "drain_b"),
        ("never-consumed-place", "pile_a"),
        ("never-consumed-place", "pile_b"),
        ("input-free-transition", "free"),
        ("no-cycles", "ends"),
    ];
    assert_eq!(
        found,
        expected
            .iter()
            .map(|&(c, s)| (c, s.to_string()))
            .collect::<Vec<_>>()
    );
    Ok(())
}

#[test]
fn disconnected_components_warn() -> Result<(), NetError> {
    let mut b = NetBuilder::new("split");
    b.place("a", 1);
    b.place("b", 0);
    b.place("c", 1);
    b.place("d", 0);
    b.transition("ab").input("a").output("b").add();
    b.transition("ba").input("b").output("a").add();
    b.transition("cd").input("c").output("d").add();
    b.transition("dc").input("d").output("c").add();
    let net = b.build()?;
    assert!(has(&net, "disconnected-net", "split"));
    Ok(())
}

#[test]
fn transition_outside_t_invariants_is_flagged() -> Result<(), NetError> {
    let mut b = NetBuilder::new("oneshot");
    b.place("a", 1);
    b.place("b", 0);
    b.place("go", 1);
    b.place("gone", 0);
    b.transition("ab").input("a").output("b").add();
    b.transition("ba").input("b").output("a").add();
    // `once` consumes `go` forever: it is in no T-invariant support.
    b.transition("once").input("go").output("gone").add();
    b.transition("gone_spin").input("gone").output("gone").add();
    let net = b.build()?;
    assert!(has(&net, "acyclic-transition", "once"));
    Ok(())
}

#[test]
fn net_without_cycles_gets_one_info() -> Result<(), NetError> {
    let mut b = NetBuilder::new("toggle");
    b.place("u", 1);
    b.place("d", 0);
    b.transition("flip").input("u").output("d").add();
    let net = b.build()?;
    let report = lint(&net);
    assert!(has(&net, "no-cycles", "toggle"));
    assert!(!codes(&net).contains(&"acyclic-transition"));
    assert_eq!(report.errors(), 0);
    Ok(())
}

#[test]
fn expression_lint_flags_variable_hazards() -> Result<(), NetError> {
    let mut b = NetBuilder::new("vars");
    b.place("a", 1);
    b.var("declared", 0);
    b.transition("t")
        .input("a")
        .output("a")
        .predicate(Expr::parse("declared + ghost + late > 0").expect("parses"))
        .action_str("late = 1; sink = 2;")?
        .add();
    let net = b.build()?;
    let report = lint(&net);
    let find = |code: &str, subject: &str| {
        report
            .findings
            .iter()
            .find(|f| f.code == code && f.subject == subject)
    };
    // `ghost`: read, never declared, never written — guaranteed error.
    assert!(
        find("undefined-var", "ghost").is_some(),
        "{:?}",
        report.findings
    );
    assert_eq!(
        find("undefined-var", "ghost").expect("present").severity,
        Severity::Error
    );
    // `late`: read, not declared, but written by the action.
    assert!(find("read-before-write", "late").is_some());
    // `sink`: written, never read anywhere.
    assert!(find("unread-var", "sink").is_some());
    // `declared` is fine.
    assert!(!report.findings.iter().any(|f| f.subject == "declared"));
    Ok(())
}

#[test]
fn expression_lint_flags_table_hazards() -> Result<(), NetError> {
    let mut b = NetBuilder::new("tables");
    b.place("a", 1);
    b.var("v", 0);
    b.table("tab", vec![1, 2, 3]);
    b.transition("read_oob")
        .input("a")
        .output("a")
        .predicate(Expr::parse("tab[3] > 0").expect("parses"))
        .add();
    b.transition("write_oob")
        .input("a")
        .output("a")
        .action_str("tab[0 - 1] = v;")?
        .add();
    b.transition("ghost_table")
        .input("a")
        .output("a")
        .action_str("v = phantom[0];")?
        .add();
    let net = b.build()?;
    let report = lint(&net);
    let oob: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.code == "const-table-index")
        .collect();
    assert_eq!(oob.len(), 2, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.code == "undefined-table" && f.subject == "phantom"));
    Ok(())
}

#[test]
fn guaranteed_eval_errors_are_flagged() -> Result<(), NetError> {
    let mut b = NetBuilder::new("consterr");
    b.place("a", 1);
    b.var("v", 0);
    b.transition("div")
        .input("a")
        .output("a")
        .action_str("v = 1 / 0;")?
        .add();
    b.transition("intpred")
        .input("a")
        .output("a")
        .predicate(Expr::parse("1 + 2").expect("parses"))
        .add();
    let net = b.build()?;
    let report = lint(&net);
    let errs: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.code == "const-error")
        .collect();
    assert_eq!(errs.len(), 2, "{:?}", report.findings);
    assert!(errs.iter().any(|f| f.why.contains("division")));
    assert!(errs.iter().any(|f| f.why.contains("boolean")));
    Ok(())
}

#[test]
fn findings_sort_errors_first() -> Result<(), NetError> {
    let mut b = NetBuilder::new("order");
    b.place("z", 0);
    b.place("u", 1);
    b.transition("dead_t").input("z").output("z").add();
    b.transition("mint")
        .input("u")
        .output_weighted("u", 2)
        .add();
    b.transition("burn")
        .input_weighted("u", 2)
        .output("u")
        .add();
    let net = b.build()?;
    let report = lint(&net);
    let sev: Vec<Severity> = report.findings.iter().map(|f| f.severity).collect();
    let mut sorted = sev.clone();
    sorted.sort();
    assert_eq!(sev, sorted);
    assert!(report.errors() >= 1 && report.warnings() >= 1);
    Ok(())
}

#[test]
fn json_rendering_is_schema_shaped() -> Result<(), NetError> {
    let net = bus()?;
    let report = lint(&net);
    let mut out = String::new();
    report.render_json("models/bus \"x\".pn", &mut out);
    for line in out.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"type\":\""), "{line}");
        // The quote in the path must be escaped, never bare.
        assert!(!line.contains("bus \"x\""), "{line}");
    }
    assert!(out.contains("\"type\":\"summary\""));
    assert!(pnut_analysis::json_meta_line().contains("\"version\":1"));
    Ok(())
}
