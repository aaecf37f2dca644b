//! End-to-end contracts for the `pnut_obs` recorder across the real
//! engines (see `docs/OBSERVABILITY.md`):
//!
//! * **Off means off**: with no recorder installed, a full build leaves
//!   every counter at zero and records no spans.
//! * **Determinism at jobs=1**: two identical runs produce *identical*
//!   metric snapshots ([`pnut::obs::Snapshot::metrics_eq`] — spans are
//!   wall-clock and excluded).
//! * **Conservation at jobs>1**: schedule-dependent counters still obey
//!   the catalogue's invariants (probes ≥ hits, misses == states,
//!   faults == reloads on a clean run, level count matches jobs=1).
//!
//! The recorder is process-global, so this lives in its own test
//! binary and every test serializes on one mutex.

use std::sync::{Mutex, MutexGuard};

use pnut::obs;
use pnut::reach::graph::{build_untimed, ReachOptions};
use pnut_bench::workloads::wide_toggle;

static RECORDER: Mutex<()> = Mutex::new(());

struct Installed<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

fn serial<'a>() -> Installed<'a> {
    Installed(RECORDER.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for Installed<'_> {
    fn drop(&mut self) {
        obs::uninstall();
    }
}

fn options(jobs: usize, mem_budget: usize) -> ReachOptions {
    ReachOptions {
        jobs,
        mem_budget,
        ..ReachOptions::default()
    }
}

#[test]
fn no_recorder_means_no_telemetry() {
    let _g = serial();
    obs::install(); // reset any residue from a poisoned prior test...
    obs::uninstall(); // ...then run with the recorder OFF.
    let net = wide_toggle(10);
    let g = build_untimed(&net, &options(1, 64 * 1024)).expect("builds");
    assert_eq!(g.state_count(), 1 << 10);
    let snap = obs::snapshot();
    assert!(
        snap.counters.iter().all(|&(_, v)| v == 0),
        "disabled counters must stay zero: {:?}",
        snap.counters
    );
    assert!(snap.gauges.iter().all(|&(_, v)| v == 0));
    assert!(snap.hists.iter().all(|h| h.count == 0));
    assert!(snap.spans.is_empty(), "no spans without a recorder");
}

#[test]
fn sequential_runs_snapshot_identically() {
    let _g = serial();
    let net = wide_toggle(10);
    // 16 KiB is far below the ~forty-byte-per-state arena of 1024
    // states, so the build must evict sealed segments and fault them
    // back in for duplicate probes.
    let snap = |()| {
        obs::install();
        let g = build_untimed(&net, &options(1, 16 * 1024)).expect("builds");
        assert_eq!(g.state_count(), 1 << 10);
        drop(g);
        obs::uninstall();
        obs::snapshot()
    };
    let a = snap(());
    let b = snap(());
    assert!(
        a.metrics_eq(&b),
        "jobs=1 runs must be metric-identical:\n{:?}\nvs\n{:?}",
        a.counters,
        b.counters
    );
    // Sanity: the runs actually recorded something.
    assert_eq!(a.counter("store.misses"), 1 << 10, "misses == states");
    assert!(a.counter("pager.faults") > 0, "a 64 KiB budget must page");
    assert!(!a.spans.is_empty(), "the build span was recorded");
    assert!(
        a.spans.iter().any(|s| s.path == "build"),
        "span paths: {:?}",
        a.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
}

#[test]
fn parallel_counters_obey_the_catalogue_invariants() {
    let _g = serial();
    let net = wide_toggle(10);

    obs::install();
    let g = build_untimed(&net, &options(1, 64 * 1024)).expect("builds");
    drop(g);
    obs::uninstall();
    let seq = obs::snapshot();

    obs::install();
    let g = build_untimed(&net, &options(4, 64 * 1024)).expect("builds");
    assert_eq!(g.state_count(), 1 << 10);
    drop(g);
    obs::uninstall();
    let par = obs::snapshot();

    for snap in [&seq, &par] {
        assert!(
            snap.counter("store.probes") >= snap.counter("store.hits"),
            "every hit is a probe"
        );
        assert_eq!(
            snap.counter("store.misses"),
            1 << 10,
            "misses == distinct states at any job count"
        );
        assert_eq!(
            snap.counter("pager.faults"),
            snap.counter("pager.reloads"),
            "clean runs reload every fault"
        );
        assert_eq!(snap.counter("pager.fault_failures"), 0);
        assert!(
            snap.gauge("pager.peak_resident_bytes") >= snap.gauge("pager.resident_bytes"),
            "peak ratchets"
        );
    }
    // Level barriers are bit-identical between sequential and parallel
    // builds, so the level count (and peak frontier) must agree even
    // though fault/probe schedules differ.
    assert_eq!(seq.counter("reach.levels"), par.counter("reach.levels"));
    assert_eq!(
        seq.gauge("reach.peak_frontier"),
        par.gauge("reach.peak_frontier")
    );
    // Only parallel builds commit worker buffers at barriers.
    let splices = par
        .hists
        .iter()
        .find(|h| h.name == "store.splice_states")
        .expect("registered");
    assert!(splices.count > 0, "parallel build commits worker buffers");
}

/// Satellite audit of the fault counters: every reload error path —
/// injected I/O error, short read, bad version/kind header — must tick
/// `pager.fault_failures` exactly once before propagating, the silent
/// data corruption must NOT (it reloads "successfully"; only a
/// semantic check can catch it), and `faults == fault_failures +
/// reloads` holds after every step.
#[test]
fn fault_failures_tick_on_every_reload_error_path() {
    use pnut::core::expr::Env;
    use pnut::reach::pager::fail;
    use pnut::reach::{PagerConfig, StateStore};

    let _g = serial();

    // Hooks are process-global; disarm them even if an assert fires.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            fail::reset_spill_failures();
        }
    }
    let _d = Disarm;

    // A store whose sealed segments are spilled (same shape as the
    // reach crate's injection suite: grain 64, 140 two-place states).
    let cfg = PagerConfig {
        mem_budget: 512,
        spill_dir: None,
    };
    let mut s = StateStore::with_config(2, &cfg);
    let env = s.intern_env(&Env::new()).expect("env");
    for i in 0..140u32 {
        s.intern(&[i, 0], env, &[], &[]).expect("intern");
    }
    s.maintain().expect("seal + evict");
    assert!(s.spilled_bytes() > 0, "setup must actually spill");
    obs::install();

    let seq = || {
        let snap = obs::snapshot();
        (
            snap.counter("pager.faults"),
            snap.counter("pager.fault_failures"),
            snap.counter("pager.reloads"),
            snap.counter("pager.spill_read_bytes"),
        )
    };

    // Baseline: one clean fault to learn the image length L.
    assert_eq!(s.try_marking_slice(0).expect("clean fault"), &[0, 0]);
    let (f, ff, r, len) = seq();
    assert_eq!((f, ff, r), (1, 0, 1), "clean fault: one reload");
    assert!(len > 0, "the reload read the image");
    s.maintain().expect("evict the faulted segment again");

    // 1. I/O error: the read itself fails — no bytes are accounted.
    fail::fail_nth_spill_read(1);
    s.try_marking_slice(0).expect_err("injected I/O error");
    assert_eq!(seq(), (2, 1, 1, len), "I/O error path");

    // 2. Short read: the bytes arrive (and are counted — half of
    // them), but the format's bounds checks reject the image.
    fail::truncate_nth_spill_read(1);
    s.try_marking_slice(0)
        .expect_err("truncated image rejected");
    assert_eq!(seq(), (3, 2, 1, len + len / 2), "short-read path");

    // 3. Bad version/kind header: a full-length read whose header word
    // is garbage fails validation before anything is materialized.
    fail::bad_header_nth_spill_read(1);
    s.try_marking_slice(0).expect_err("garbled header rejected");
    assert_eq!(seq(), (4, 3, 1, 2 * len + len / 2), "bad-header path");

    // 4. Silent marking corruption: structurally valid, so the reload
    // *succeeds* — fault_failures must NOT tick; the flipped token
    // count is visible in the reloaded data (that is what the
    // `--check-invariants` semantic sweep exists to catch).
    fail::corrupt_nth_spill_read(1);
    assert_eq!(
        s.try_marking_slice(0).expect("silent corruption reloads"),
        &[1, 0],
        "the low bit of the first marking byte flipped"
    );
    assert_eq!(
        seq(),
        (5, 3, 2, 3 * len + len / 2),
        "silent-corruption path"
    );
    s.maintain().expect("evict the corrupted reload");

    // 5. The corruption mangled only the in-memory reload, never the
    // spill file: a clean refault restores the true data.
    assert_eq!(s.try_marking_slice(0).expect("clean refault"), &[0, 0]);
    assert_eq!(seq(), (6, 3, 3, 4 * len + len / 2), "clean refault");
}

/// `ctl.sweeps` counts CTL sweeps and nothing else (e2ebench reports it
/// per layer). The deadlock/bound report and the invariant cross-check
/// run on the same `ReachabilityGraph::sweep` but are not CTL, so a
/// `pnut reach models/three_stage.pn` run records exactly the sweeps of
/// its `--ctl` formula: 7 for `AG EF (Bus_busy = 1)`, 0 without
/// `--ctl` even under `--check-invariants`.
#[test]
fn ctl_sweeps_count_only_ctl_sweeps() {
    use pnut::reach::ctl;

    let _g = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/models/three_stage.pn");
    let text = std::fs::read_to_string(path).expect("checked-in model");
    let net = pnut::lang::parse(&text).expect("parses");
    // The library calls `pnut reach` makes, in its order.
    let reach = |formula: Option<&str>, check_invariants: bool| {
        obs::install();
        let mut g = build_untimed(&net, &ReachOptions::default()).expect("builds");
        g.deadlocks().expect("resident");
        g.place_bounds().expect("resident");
        if check_invariants {
            pnut::analysis::check_invariants(&net, &mut g).expect("invariants hold");
        }
        if let Some(text) = formula {
            let formula = ctl::Formula::parse(text).expect("parses");
            ctl::check(&mut g, &net, &formula).expect("checks");
        }
        obs::uninstall();
        obs::snapshot().counter("ctl.sweeps")
    };
    assert_eq!(reach(Some("AG EF (Bus_busy = 1)"), false), 7);
    assert_eq!(reach(None, true), 0);
}
