//! Static gate for the fallible paged read path: the post-build
//! analysis code in `graph.rs`, `ctl.rs`, and `markov.rs` must never
//! reintroduce a panicking accessor — a spill fault degrades the one
//! analysis that hit it, never the process (see docs/CONCURRENCY.md).
//!
//! The gate reads the sources (tier-1, no extra tooling): `panic!` is
//! banned outright outside `#[cfg(test)]`, and every `.expect(` /
//! `.unwrap(` must carry a message on the explicit allowlist below —
//! all of which sit on the *build* path (exploration workers, compiled
//! delay slots), where an internal-invariant panic is still the right
//! call. Adding a new expect to these files means consciously adding
//! its message here, with a reason it cannot be on the paged read
//! path. The deleted `Self::paged` helper must stay deleted.

use std::path::Path;

/// Everything before the test module — the gate covers shipped code
/// only.
fn non_test_source(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| {
        panic!("gate must be able to read {path}: {e}");
    });
    match src.find("#[cfg(test)]") {
        Some(idx) => src[..idx].to_owned(),
        None => src,
    }
}

/// Build-path invariants allowed to stay panicking, by expect message.
/// Every entry must be justified: none of these can execute during a
/// post-build segment sweep.
const ALLOWED_EXPECTS: &[(&str, &str)] = &[
    // Compiled delay slots: filled at net-compile time, read during
    // exploration — the paged analyses never evaluate delays.
    ("non-constant slot holds an expression delay", "build"),
    // Exploration worker pool: shard locks and joins exist only while
    // the graph is under construction (`&mut` exploration).
    ("env shard lock", "build"),
    ("state shard lock", "build"),
    ("worker thread panicked", "build"),
    ("shard lock", "build"),
    ("worker errors handled above", "build"),
    // Markov chain extraction guards a state it just classified as
    // non-deadlock in the same loop iteration — no I/O in between.
    ("non-deadlock state has an edge", "extraction invariant"),
];

const GATED_FILES: &[&str] = &[
    "crates/reach/src/graph.rs",
    "crates/reach/src/ctl.rs",
    "crates/analytic/src/markov.rs",
];

#[test]
fn paged_read_path_has_no_panics() {
    for path in GATED_FILES {
        let src = non_test_source(path);
        for (lineno, line) in src.lines().enumerate() {
            let lineno = lineno + 1;
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            assert!(
                !code.contains("panic!"),
                "{path}:{lineno}: `panic!` on the paged read/analysis path:\n  {code}\n\
                 return `Err(ReachError::Spill(..))` (or the analysis' error type) instead"
            );
            for needle in [".expect(", ".unwrap("] {
                let mut rest = code;
                while let Some(pos) = rest.find(needle) {
                    // The CTL parser's own `self.expect(&Tok…)` helper
                    // is not `Option::expect`.
                    let is_parser_helper = needle == ".expect(" && rest[..pos].ends_with("self");
                    let allowed = ALLOWED_EXPECTS
                        .iter()
                        .any(|(msg, _)| code.contains(&format!("\"{msg}\"")));
                    assert!(
                        is_parser_helper || allowed,
                        "{path}:{lineno}: unlisted `{needle}` in gated file:\n  {code}\n\
                         if this is genuinely unreachable from a segment sweep, add its \
                         message to ALLOWED_EXPECTS with a justification; otherwise \
                         thread a Result"
                    );
                    rest = &rest[pos + needle.len()..];
                }
            }
        }
    }
}

/// The panicking fault helper is gone for good: `try_pin_segment` and
/// the fallible accessors are the only way to touch paged rows.
#[test]
fn the_infallible_paged_helper_stays_deleted() {
    for path in ["crates/reach/src/graph.rs", "crates/reach/src/store.rs"] {
        let src = non_test_source(path);
        assert!(
            !src.contains("fn paged"),
            "{path}: the `paged` panic helper was deliberately deleted; \
             do not resurrect it — use the Result-returning accessors"
        );
    }
}

/// Multi-line expect calls (message on the next line) would dodge the
/// line-based scan above; hold the whole gated surface to a fixed
/// count so any new expect/unwrap shows up in review.
#[test]
fn expect_count_is_pinned() {
    let mut total = 0usize;
    for path in GATED_FILES {
        let src = non_test_source(path);
        total += src.matches(".expect(").count() + src.matches(".unwrap(").count();
    }
    // 6 build-path expects in graph.rs, 3 parser `self.expect` calls
    // in ctl.rs, 1 extraction invariant + 1 doc example in markov.rs.
    assert!(
        total <= 11,
        "gated files gained a new `.expect(`/`.unwrap(` (now {total}); \
         the paged read path must stay panic-free — thread a Result or \
         justify it in tests/no_panic_gate.rs"
    );
}
