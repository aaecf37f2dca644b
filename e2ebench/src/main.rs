//! `e2ebench` — the end-to-end benchmark of the pnut library layers.
//!
//! ```text
//! e2ebench --workload <verify|evaluate|paged|simulate> --seed N --seconds S --trace <0|1>
//! e2ebench --write-reference
//! ```
//!
//! One client runs one task at a time (closed loop): a task is a
//! generated `.pn` model text plus its options, driven through the
//! library calls behind the CLI verbs. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same workload and seed with
//! a span around each public layer call and reports the per-layer
//! metrics. The last line of stdout is the JSON result; the human
//! report goes to stderr. See README.md.

mod check;
mod gen;
mod host;
mod tasks;
mod trace;

use check::Checker;
use gen::{TaskList, Workload};
use host::HostSpeed;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tasks::Outcome;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// An untraced run makes at least this many passes over the task list.
const MIN_PASSES: usize = 2;
/// A run never measures longer than this, whatever the pass count.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Tasks per traced / untraced chunk of a traced run.
const CHUNK: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Verify,
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    match workload {
        Some(w) => args.workload = w,
        None if args.write_reference => {}
        None => return Err("--workload is required".into()),
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.write_reference {
            write_references()
        } else {
            run(&args)
        }
    });
    if let Err(e) = result {
        eprintln!("e2ebench: {e}");
        std::process::exit(2);
    }
}

/// Tally of a run's checked tasks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(
        &mut self,
        checker: &mut Checker,
        index: usize,
        task: &gen::Task,
        result: &Result<Outcome, String>,
    ) {
        self.attempted += 1;
        let verdict = match result {
            Ok(outcome) => checker.check(index, task, outcome),
            Err(e) => Err(format!("error: {e}")),
        };
        if let Err(e) = verdict {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("e2ebench: task {index} ({}) failed: {e}", task.model_key());
            }
        }
    }
}

/// Passes over the task list in an untraced run of `seconds`: fixed by
/// the workload's nominal pass time (seed code, nominal host), never by
/// the speed of the code under test, so the parent and a change take
/// the same number of samples.
fn passes(workload: Workload, seconds: f64) -> usize {
    let pass_s = match workload {
        Workload::Verify => 0.54,
        Workload::Evaluate => 8.3,
        Workload::Paged => 12.0,
        Workload::Simulate => 0.37,
    };
    ((seconds / pass_s).round() as usize).max(MIN_PASSES)
}

/// How strongly a workload's task times follow the host probe: the
/// slope of a log-log fit of windowed task slowdown on probe slowdown,
/// measured on the seed code (2-core Xeon VM, 2.1 GHz).
fn sensitivity(workload: Workload) -> f64 {
    match workload {
        Workload::Verify => 0.8,
        Workload::Evaluate => 0.6,
        Workload::Paged => 0.6,
        Workload::Simulate => 0.95,
    }
}

/// Generate the task list and run one warm-up task per model family.
fn setup(
    args: &Args,
    checker: &mut Option<Checker>,
    tally: &mut Tally,
) -> Result<(TaskList, f64), String> {
    let t0 = Instant::now();
    let list = gen::tasks(args.workload, args.seed);
    let checker = match checker {
        Some(c) => c,
        None => checker.insert(Checker::new(
            args.workload,
            args.seed,
            list.tasks.len(),
            true,
        )?),
    };
    let mut off = Tracer::new(false);
    for &i in &list.warmups {
        let result = tasks::run(args.workload, &list.tasks[i], &mut off);
        tally.record(checker, i, &list.tasks[i], &result);
    }
    Ok((list, t0.elapsed().as_secs_f64()))
}

fn run(args: &Args) -> Result<(), String> {
    create_spill_dir()?;
    let mut checker = None;
    let mut tally = Tally::default();
    // Set-up is scaled by the probes taken around its repetitions.
    let mut setup_host = HostSpeed::default();
    let mut setups = Vec::new();
    let mut list = None;
    for _ in 0..SETUP_REPS {
        setup_host.sample();
        let (l, secs) = setup(args, &mut checker, &mut tally)?;
        setups.push(secs);
        list = Some(l);
    }
    setup_host.sample();
    let list = list.expect("at least one set-up");
    let mut checker = checker.expect("set-up creates the checker");
    eprintln!(
        "e2ebench: workload {} seed {}: {} tasks in the list; answers checked against {}",
        args.workload.name(),
        args.seed,
        list.tasks.len(),
        checker.mode(args.seed)
    );
    let setup_raw_s = median(&mut setups);
    let setup_factor = setup_host.factor(sensitivity(args.workload));
    let setup_s = setup_raw_s / setup_factor;
    eprintln!(
        "e2ebench: set-up median of {SETUP_REPS}: {setup_raw_s:.4} s, host factor {setup_factor:.3}, \
         {setup_s:.4} s scaled to the nominal host"
    );
    let metrics = if args.trace {
        traced(args, &list, &mut checker, &mut tally)?
    } else {
        untraced(args, &list, &mut checker, &mut tally, setup_s)
    };
    eprintln!(
        "e2ebench: failed_frac {} ({} of {} tasks failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        if !json.is_empty() {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    Ok(())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Harrell–Davis estimate of the `q` quantile (sorts `v`): a weighted
/// mean of every order statistic, with Beta((n+1)q, (n+1)(1-q)) weights
/// taken at the middle of each rank's share of [0, 1]. Unlike picking
/// one or two order statistics, it moves smoothly when the samples sit
/// on both sides of a gap, as task times of different model sizes do.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let log_w: Vec<f64> = (0..v.len())
        .map(|k| {
            let x = (k as f64 + 0.5) / n;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let top = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut weights) = (0.0, 0.0);
    for (x, lw) in v.iter().zip(&log_w) {
        let w = (lw - top).exp();
        sum += w * x;
        weights += w;
    }
    if weights > 0.0 {
        sum / weights
    } else {
        0.0
    }
}

fn work_of(workload: Workload, outcome: &Outcome) -> u64 {
    match workload {
        Workload::Simulate => outcome.sim_events,
        _ => outcome.states,
    }
}

/// The timed closed loop, tracing off: the end-to-end metrics.
///
/// The loop makes a fixed number of passes over the task list and times
/// every task run. Between tasks it samples the host probe, and every
/// task time is divided by the host factor around it, so it reads as on
/// the nominal host (`setup_s` comes scaled by the set-up's probes, and
/// the loop rate by the loop's mean factor). The latency percentiles
/// are taken over all task runs. `tasks_per_s` is the loop rate (task
/// runs per second of the loop, answer checks included, probes left
/// out), and `work_per_s` is states or simulation events per second of
/// task time.
fn untraced(
    args: &Args,
    list: &TaskList,
    checker: &mut Checker,
    tally: &mut Tally,
    setup_s: f64,
) -> Metrics {
    let mut off = Tracer::new(false);
    let mut host = HostSpeed::default();
    let passes = passes(args.workload, args.seconds);
    // Start and wall time of every task run.
    let mut times = Vec::with_capacity(passes * list.tasks.len());
    let mut total_work = 0u64;
    let start = Instant::now();
    'passes: for _ in 0..passes {
        for (index, task) in list.tasks.iter().enumerate() {
            if start.elapsed() >= HARD_CAP {
                eprintln!("e2ebench: run stopped at the {HARD_CAP:?} cap");
                break 'passes;
            }
            host.tick();
            let t0 = Instant::now();
            let result = tasks::run(args.workload, task, &mut off);
            times.push((t0, t0.elapsed().as_secs_f64()));
            if let Ok(o) = &result {
                total_work += work_of(args.workload, o);
            }
            tally.record(checker, index, task, &result);
        }
    }
    host.sample();
    let loop_s = start.elapsed().as_secs_f64() - host.probe_s;
    let busy_s: f64 = times.iter().map(|t| t.1).sum();
    let runs = times.len();
    // Each task run is scaled by the host factor around it.
    let scaled: Vec<f64> = times
        .iter()
        .map(|&(t0, secs)| secs / host.factor_at(t0, sensitivity(args.workload)))
        .collect();
    let scaled_s: f64 = scaled.iter().sum();
    // The loop's mean host factor, weighted by task time.
    let factor = busy_s / scaled_s;
    let mut ms: Vec<f64> = scaled.iter().map(|t| t * 1e3).collect();
    let p50 = quantile(&mut ms, 0.5);
    let p90 = quantile(&mut ms, 0.9);
    let work_name = match args.workload {
        Workload::Simulate => "sim_events_per_s",
        _ => "states_per_s",
    };
    eprintln!(
        "e2ebench: {runs} task runs ({passes} passes) in {loop_s:.2} s, {:.2} s of it in tasks; \
         host probe median {:.3} ms over {} samples, host factor {factor:.3}",
        busy_s,
        host.median_probe_s() * 1e3,
        host.count()
    );
    eprintln!(
        "e2ebench: scaled to the nominal host: p50 {p50:.3} ms, p90 {p90:.3} ms ({runs} task runs, \
         {} beyond p90); {:.1} tasks/s; {work_name} {:.0}; setup {setup_s:.4} s",
        runs - (runs as f64 * 0.9).ceil() as usize,
        runs as f64 / loop_s * factor,
        total_work as f64 / scaled_s,
    );
    vec![
        ("setup_s", setup_s, "s"),
        ("task_p50_ms", p50, "ms"),
        ("task_p90_ms", p90, "ms"),
        ("tasks_per_s", runs as f64 / loop_s * factor, "1/s"),
        ("work_per_s", total_work as f64 / scaled_s, "1/s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Facts of the traced tasks that come from the answers rather than the
/// program's counters.
#[derive(Default)]
struct TracedFacts {
    tasks: u64,
    states: u64,
    sim_events: u64,
    peak_resident: u64,
    peak_over_budget: f64,
}

/// The traced run: a fixed number of passes over the list in chunks of
/// [`CHUNK`] tasks, each chunk run untraced and traced in turn
/// (alternating which goes first), so `obs.trace_overhead` compares the
/// same tasks; the per-layer metrics come from the traced chunks.
fn traced(
    args: &Args,
    list: &TaskList,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut facts = TracedFacts::default();
    let (mut plain_s, mut traced_s, mut plain_n, mut traced_n) = (0.0, 0.0, 0u64, 0u64);
    // Every chunk runs twice, so half the untraced run's passes fill the
    // same time.
    let passes = (passes(args.workload, args.seconds) / 2).max(1);
    let chunks = list.tasks.len().div_ceil(CHUNK);
    let start = Instant::now();
    for chunk in 0..passes * chunks {
        if start.elapsed() >= HARD_CAP {
            eprintln!("e2ebench: run stopped at the {HARD_CAP:?} cap");
            break;
        }
        let first = chunk % chunks * CHUNK;
        let indices = first..(first + CHUNK).min(list.tasks.len());
        for pass in 0..2 {
            let tracing = (pass + chunk) % 2 == 1;
            let t0 = Instant::now();
            for index in indices.clone() {
                let task = &list.tasks[index];
                let result = if tracing {
                    tr.begin_task(index);
                    let r = tasks::run(args.workload, task, &mut tr);
                    tr.end_task();
                    if let Ok(o) = &r {
                        facts.tasks += 1;
                        facts.states += o.states;
                        facts.sim_events += o.sim_events;
                        facts.peak_resident = facts.peak_resident.max(o.peak_resident);
                        if task.budget != usize::MAX {
                            let over = o.peak_resident as f64 / task.budget as f64;
                            facts.peak_over_budget = facts.peak_over_budget.max(over);
                        }
                    }
                    r
                } else {
                    tasks::run(args.workload, task, &mut off)
                };
                tally.record(checker, index, task, &result);
            }
            let secs = t0.elapsed().as_secs_f64();
            if tracing {
                traced_s += secs;
                traced_n += indices.len() as u64;
            } else {
                plain_s += secs;
                plain_n += indices.len() as u64;
            }
        }
    }
    let overhead = (traced_n as f64 / traced_s) / (plain_n as f64 / plain_s);
    let metrics = layer_metrics(&tr, &facts, overhead);
    report_layers(args.workload, &tr, &metrics);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_ndjson()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "e2ebench: {} spans written to {}",
        tr.spans.len(),
        path.display()
    );
    Ok(metrics)
}

const MIB: f64 = 1024.0 * 1024.0;

/// The per-layer metrics: times are inclusive milliseconds per traced
/// task, counts are per traced task unless named as a ratio or peak.
fn layer_metrics(tr: &Tracer, facts: &TracedFacts, overhead: f64) -> Metrics {
    let totals = tr.totals();
    let tasks = facts.tasks.max(1) as f64;
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e6 / tasks);
    let total = |counter: &str| tr.spans.iter().map(|s| s.count(counter)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let build_ns = totals.get("reach.build").map_or(0, |t| t.1) as f64;
    let build_faults = tr.count("reach.build", "pager.faults") as f64;
    let read = total("pager.spill_read_bytes");
    let written = total("pager.spill_write_bytes");
    let peak_frontier = tr
        .spans
        .iter()
        .map(|s| s.gauge("reach.peak_frontier"))
        .max()
        .unwrap_or(0);
    vec![
        ("lang.parse_ms", ms("lang.parse"), "ms"),
        ("analysis.lint_ms", ms("analysis.lint"), "ms"),
        (
            "analysis.check_invariants_ms",
            ms("analysis.check_invariants"),
            "ms",
        ),
        ("reach.build_ms", ms("reach.build"), "ms"),
        (
            "reach.build_us_per_state",
            ratio(build_ns / 1e3, facts.states as f64),
            "us",
        ),
        ("reach.report_ms", ms("reach.report"), "ms"),
        ("reach.ctl_ms", ms("reach.ctl"), "ms"),
        ("ctl.sweeps", total("ctl.sweeps") / tasks, "count"),
        ("store.probes", total("store.probes") / tasks, "count"),
        (
            "store.hit_ratio",
            ratio(total("store.hits"), total("store.probes")),
            "ratio",
        ),
        ("reach.levels", total("reach.levels") / tasks, "count"),
        ("reach.peak_frontier", peak_frontier as f64, "count"),
        ("pager.build_faults", build_faults / tasks, "count"),
        (
            "pager.sweep_faults",
            (total("pager.faults") - build_faults) / tasks,
            "count",
        ),
        ("pager.spill_read_mib", read / MIB / tasks, "MiB"),
        ("pager.spill_write_mib", written / MIB / tasks, "MiB"),
        ("pager.read_amplification", ratio(read, written), "ratio"),
        (
            "pager.peak_resident_kib",
            facts.peak_resident as f64 / 1024.0,
            "KiB",
        ),
        ("pager.peak_over_budget", facts.peak_over_budget, "ratio"),
        (
            "analytic.steady_state_ms",
            ms("analytic.steady_state"),
            "ms",
        ),
        ("markov.extract_ms", ms("markov.extract"), "ms"),
        ("markov.solve_ms", ms("markov.solve"), "ms"),
        (
            "markov.solver_iterations",
            total("markov.solver_iterations") / tasks,
            "count",
        ),
        ("sim.simulate_ms", ms("sim.simulate"), "ms"),
        ("sim.events", facts.sim_events as f64 / tasks, "count"),
        ("stat.analyze_ms", ms("stat.analyze"), "ms"),
        ("obs.trace_overhead", overhead, "ratio"),
    ]
}

/// Which end-to-end metric each layer metric should move, and on which
/// workload (the benchmark's attribution map; see README.md).
const LAYER_MAP: &[(&str, &str)] = &[
    ("lang.parse_ms", "task_p50_ms on verify (predicted <5%)"),
    ("analysis.lint_ms", "task_p50_ms on verify"),
    ("analysis.check_invariants_ms", "task_p50_ms on paged"),
    (
        "reach.build_ms",
        "states_per_s, task_p50_ms on verify, paged (<=10% on evaluate)",
    ),
    ("reach.build_us_per_state", "states_per_s on verify, paged"),
    ("reach.report_ms", "task_p50_ms on paged"),
    ("reach.ctl_ms", "task_p50_ms on verify, paged"),
    ("ctl.sweeps", "task_p50_ms on verify, paged"),
    ("store.probes", "reach.build_ms on verify"),
    ("store.hit_ratio", "reach.build_ms on verify"),
    ("reach.levels", "states_per_s at jobs 2 on paged"),
    ("reach.peak_frontier", "states_per_s at jobs 2 on paged"),
    ("pager.build_faults", "task_p50_ms on paged (0 on verify)"),
    ("pager.sweep_faults", "task_p50_ms on paged (0 on verify)"),
    ("pager.spill_read_mib", "states_per_s on paged"),
    ("pager.spill_write_mib", "states_per_s on paged"),
    ("pager.read_amplification", "states_per_s on paged"),
    ("pager.peak_resident_kib", "peak_rss_mib on paged"),
    ("pager.peak_over_budget", "peak_rss_mib on paged"),
    ("analytic.steady_state_ms", "task_p50_ms on evaluate"),
    ("markov.extract_ms", "task_p50_ms on evaluate"),
    ("markov.solve_ms", "task_p50_ms on evaluate"),
    ("markov.solver_iterations", "task_p50_ms on evaluate"),
    ("sim.simulate_ms", "sim_events_per_s on simulate"),
    ("sim.events", "sim_events_per_s on simulate"),
    ("stat.analyze_ms", "task_p50_ms on simulate"),
    ("obs.trace_overhead", "none (should stay ~1.0)"),
];

/// The traced-run report on stderr: each layer's self time and share of
/// task time, the per-layer metrics, and whether the predicted dominant
/// layer held.
fn report_layers(workload: Workload, tr: &Tracer, metrics: &Metrics) {
    let totals = tr.totals();
    let (task_calls, task_ns, _) = totals.get("task").copied().unwrap_or((0, 0, 0));
    let per_task = |ns: u64| ns as f64 / 1e6 / task_calls.max(1) as f64;
    eprintln!(
        "\nlayer                        calls/task  incl ms/task  self ms/task  share of task time"
    );
    for (name, &(calls, incl, own)) in &totals {
        let label = if *name == "task" {
            "(benchmark glue)"
        } else {
            name
        };
        eprintln!(
            "{label:<28} {:>10.2} {:>13.4} {:>13.4} {:>18.1}%",
            calls as f64 / task_calls.max(1) as f64,
            per_task(incl),
            per_task(own),
            100.0 * own as f64 / task_ns.max(1) as f64
        );
    }
    eprintln!(
        "\nper-layer metric                    value  unit   -> end-to-end metric it should move"
    );
    for (name, value, unit) in metrics {
        let target = LAYER_MAP
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, t)| t);
        eprintln!("{name:<30} {value:>11.4}  {unit:<6} -> {target}");
    }
    let self_ns = tr.self_ns();
    let mut by_self: Vec<(&str, u64)> = Vec::new();
    for (s, own) in tr.spans.iter().zip(self_ns) {
        if s.name == "task" {
            continue;
        }
        match by_self.iter_mut().find(|(n, _)| *n == s.name) {
            Some(e) => e.1 += own,
            None => by_self.push((s.name, own)),
        }
    }
    let dominant = by_self.iter().max_by_key(|e| e.1).map_or("none", |e| e.0);
    let (predicted, held) = match workload {
        Workload::Verify => ("reach.build", dominant == "reach.build"),
        Workload::Evaluate => ("markov.solve", dominant == "markov.solve"),
        Workload::Paged => (
            "pager reads inside reach.build",
            dominant == "reach.build" && tr.count("reach.build", "pager.spill_read_bytes") > 0,
        ),
        Workload::Simulate => ("sim.simulate", dominant == "sim.simulate"),
    };
    eprintln!(
        "\npredicted dominant layer: {predicted}; measured: {dominant} ({:.1}% of task time) -> {}\n",
        100.0 * by_self.iter().find(|e| e.0 == dominant).map_or(0, |e| e.1) as f64 / task_ns.max(1) as f64,
        if held { "held" } else { "DID NOT HOLD" }
    );
}

fn create_spill_dir() -> Result<(), String> {
    let dir = tasks::spill_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Regenerate the committed reference answers from the current program.
fn write_references() -> Result<(), String> {
    create_spill_dir()?;
    let mut off = Tracer::new(false);
    for workload in [
        Workload::Verify,
        Workload::Evaluate,
        Workload::Paged,
        Workload::Simulate,
    ] {
        for (seed, _) in check::REFERENCE_SEEDS {
            let list = gen::tasks(workload, seed);
            let mut checker = Checker::new(workload, seed, list.tasks.len(), false)?;
            let mut out = String::new();
            for (i, task) in list.tasks.iter().enumerate() {
                let outcome = tasks::run(workload, task, &mut off)
                    .map_err(|e| format!("{} task {i}: {e}", workload.name()))?;
                checker
                    .check(i, task, &outcome)
                    .map_err(|e| format!("{} task {i}: {e}", workload.name()))?;
                out.push_str(&outcome.answer.render());
                out.push('\n');
            }
            let path = check::reference_path(workload, seed);
            std::fs::create_dir_all(path.parent().expect("has a parent"))
                .and_then(|()| std::fs::write(&path, out))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "e2ebench: wrote {} ({} tasks)",
                path.display(),
                list.tasks.len()
            );
        }
    }
    Ok(())
}
