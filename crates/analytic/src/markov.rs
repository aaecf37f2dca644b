//! Steady-state analysis via the embedded Markov chain.
//!
//! Cycle-time analysis ([`crate::analyze`]) is exact but limited to
//! marked graphs — no choice. For nets *with* probabilistic choice, the
//! timed reachability graph `[RP84]` plus the firing-frequency semantics
//! `[WPS86]` induce a semi-Markov process:
//!
//! * in a state where transitions can start, one is chosen with
//!   probability proportional to its relative firing frequency and the
//!   move is instantaneous (sojourn 0);
//! * in a state where only time can pass, the single `Advance(dt)` edge
//!   is taken with probability 1 after a sojourn of `dt` ticks.
//!
//! The long-run fraction of time spent in each state is the stationary
//! distribution of the embedded jump chain weighted by sojourn times;
//! from it follow *analytical* place utilizations and transition
//! throughputs — the numbers `stat` estimates from one random trace,
//! computed here without any randomness at all.
//!
//! The construction matches the simulator's semantics, so the two agree
//! up to sampling noise (tested).

use pnut_core::{Net, PlaceId, TransitionId};
use pnut_obs as obs;
use pnut_reach::graph::{build_timed, EdgeLabel, ReachOptions};
use std::fmt;

/// Power-iteration sweep cap: the solve fails with
/// [`MarkovError::NoConvergence`] after this many sweeps.
const MAX_ITERATIONS: usize = 200_000;
/// The solve stops once two successive iterates differ by less than
/// this in L1 norm.
const TOLERANCE: f64 = 1e-12;

/// Why steady-state analysis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// The timed reachability graph could not be built (randomness,
    /// state explosion, evaluation failures, ...), or a spilled
    /// segment failed to reload during the segment-ordered chain
    /// extraction.
    Reach(pnut_reach::ReachError),
    /// The graph has deadlock states: the long-run behaviour is
    /// absorption, not a steady state.
    Deadlock {
        /// A deadlocked state index.
        state: usize,
    },
    /// The chain never lets time pass (a zero-delay cycle): sojourn
    /// times are all zero and utilization is undefined.
    Zeno,
    /// The chain has more than one recurrent class (bottom strongly
    /// connected component): the long run depends on which class an
    /// early random choice falls into, so no single steady state
    /// exists.
    MultipleRecurrentClasses {
        /// A state of one recurrent class.
        first: usize,
        /// A state of another.
        second: usize,
    },
    /// The iteration did not converge (pathological chain).
    NoConvergence,
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::Reach(e) => write!(f, "timed reachability failed: {e}"),
            MarkovError::Deadlock { state } => {
                write!(f, "state {state} deadlocks; no steady state exists")
            }
            MarkovError::Zeno => write!(f, "no time ever passes (zero-delay cycle)"),
            MarkovError::MultipleRecurrentClasses { first, second } => write!(
                f,
                "states {first} and {second} lie in different recurrent classes; \
                 no single steady state exists"
            ),
            MarkovError::NoConvergence => write!(f, "stationary iteration did not converge"),
        }
    }
}

impl std::error::Error for MarkovError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MarkovError::Reach(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pnut_reach::ReachError> for MarkovError {
    fn from(e: pnut_reach::ReachError) -> Self {
        MarkovError::Reach(e)
    }
}

/// Options for the analysis. The chain cap is `reach.max_states`
/// (20 000 by default): the build stops there with
/// [`pnut_reach::ReachError::StateLimit`]. The solver's sweep cap
/// (200 000) and its convergence tolerance (1e-12) are constants.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovOptions {
    /// The timed reachability build's options. `jobs` parallelizes the
    /// build only. `mem_budget` governs the graph arenas, which the
    /// chain extraction and the place-average pass scan
    /// segment-at-a-time; the extracted chain (one entry per edge) and
    /// the `O(states)` iteration vectors stay in memory outside the
    /// pager ledger, bounded through `max_states`.
    pub reach: ReachOptions,
}

impl Default for MarkovOptions {
    fn default() -> Self {
        MarkovOptions {
            reach: ReachOptions {
                max_states: 20_000,
                ..ReachOptions::default()
            },
        }
    }
}

/// Analytical steady-state quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    /// Long-run fraction of *time* spent in each reachability-graph
    /// state.
    pub state_fraction: Vec<f64>,
    /// Time-average token count per place (place-id order) — the
    /// analytical counterpart of the Figure 5 "Avg Tokens" column.
    pub place_average_tokens: Vec<f64>,
    /// Firings per tick per transition (transition-id order) — the
    /// analytical counterpart of the "Throughput" column.
    pub transition_throughput: Vec<f64>,
    /// Mean ticks per embedded jump (the normalization constant).
    pub mean_sojourn: f64,
}

impl SteadyState {
    /// Average tokens of one place.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn avg_tokens(&self, place: PlaceId) -> f64 {
        self.place_average_tokens[place.index()]
    }

    /// Throughput of one transition.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn throughput(&self, transition: TransitionId) -> f64 {
        self.transition_throughput[transition.index()]
    }
}

/// One jump of the embedded chain: `(successor, probability, label)`.
type Jump = (usize, f64, EdgeLabel);

/// Compute the steady state of `net` (no randomness; constant or
/// deterministic table-driven firing times; constant enabling times —
/// the timed-reachability class, which covers the paper's §2/§3
/// pipeline models including the cache-enabled configurations).
///
/// # Errors
///
/// See [`MarkovError`].
///
/// # Example
///
/// ```
/// use pnut_analytic::markov::{steady_state, MarkovOptions};
/// use pnut_core::NetBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetBuilder::new("ring");
/// b.place("a", 1);
/// b.place("b", 0);
/// b.transition("ab").input("a").output("b").firing(3).add();
/// b.transition("ba").input("b").output("a").firing(1).add();
/// let net = b.build()?;
/// let ss = steady_state(&net, &MarkovOptions::default())?;
/// // Each transition completes once per 4-tick cycle.
/// let ab = net.transition_id("ab").unwrap();
/// assert!((ss.throughput(ab) - 0.25).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[allow(clippy::needless_range_loop)] // matrix/state indexing reads clearest with indices
pub fn steady_state(net: &Net, options: &MarkovOptions) -> Result<SteadyState, MarkovError> {
    let mut graph = build_timed(net, &options.reach)?;
    let n = graph.state_count();
    // Phase-scope the resident high-water mark: from here on the peak
    // measures the *analysis* sweeps, which promise to stay inside the
    // byte budget (verified below in debug builds).
    graph.reset_peak_resident_bytes();

    // The embedded jump chain in compressed sparse rows: the jumps out
    // of state `s` are `jumps[offsets[s]..offsets[s + 1]]`. Extracted
    // in one segment-ordered `sweep` (evicting back under the byte
    // budget between segments), so the extraction phase stays inside
    // `mem_budget` instead of faulting the whole graph resident.
    // Deadlocks surface here too (segment order is state order, so the
    // first one found is the lowest-numbered).
    let extract_span = obs::span("markov.extract");
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut jumps: Vec<Jump> = Vec::with_capacity(graph.edge_count());
    let mut sojourn = vec![0.0f64; n];
    graph.sweep(|s, guard| -> Result<(), MarkovError> {
        let edges = guard.successors(s)?;
        if edges.is_empty() {
            return Err(MarkovError::Deadlock { state: s });
        }
        // Maximal progress: a state has either Fire edges, weighted by
        // frequency, or one Advance edge, taken with probability 1.
        let start = jumps.len();
        let mut total = 0.0f64;
        for &(label, to) in edges {
            let weight = match label {
                EdgeLabel::Fire(t) => net.transition(t).frequency(),
                EdgeLabel::Advance(dt) => {
                    sojourn[s] = dt as f64;
                    1.0
                }
            };
            total += weight;
            jumps.push((to as usize, weight, label));
        }
        for jump in &mut jumps[start..] {
            jump.1 /= total;
        }
        offsets.push(jumps.len());
        Ok(())
    })?;
    obs::metrics::MARKOV_EXTRACTED_EDGES.add(jumps.len() as u64);
    drop(extract_span);
    let row = |s: usize| &jumps[offsets[s]..offsets[s + 1]];
    if sojourn.iter().all(|&t| t == 0.0) {
        return Err(MarkovError::Zeno);
    }

    // The long-run behaviour lives in the bottom strongly connected
    // component (transient start-up states have zero long-run weight).
    let recurrent = bottom_scc(n, row)?;

    // Stationary distribution of the jump chain on the recurrent class,
    // by power iteration on the *lazy* chain (P + I) / 2 — aperiodic by
    // construction with the same stationary vector, so convergence is
    // geometric even for periodic nets.
    let members = recurrent.iter().filter(|&&r| r).count();
    let mut average: Vec<f64> = recurrent
        .iter()
        .map(|&r| if r { 1.0 / members as f64 } else { 0.0 })
        .collect();
    let mut next = vec![0.0f64; n];
    let solve_span = obs::span("markov.solve");
    for iter in 0.. {
        if iter == MAX_ITERATIONS {
            return Err(MarkovError::NoConvergence);
        }
        obs::metrics::MARKOV_SOLVER_ITERATIONS.inc();
        obs::heartbeat(iter as u64 + 1, || {
            format!(
                "markov solve: iteration {} of at most {MAX_ITERATIONS}",
                iter + 1
            )
        });
        next.fill(0.0);
        for (s, (&lo, &hi)) in offsets.iter().zip(&offsets[1..]).enumerate() {
            if average[s] == 0.0 {
                continue;
            }
            let half = 0.5 * average[s];
            next[s] += half;
            for &(to, p, _) in &jumps[lo..hi] {
                next[to] += half * p;
            }
        }
        let delta: f64 = next.iter().zip(&average).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut average, &mut next);
        if delta < TOLERANCE {
            break;
        }
    }
    drop(solve_span);

    // Time-weight by sojourns.
    let mean_sojourn: f64 = average.iter().zip(&sojourn).map(|(&p, &t)| p * t).sum();
    if mean_sojourn <= 0.0 {
        return Err(MarkovError::Zeno);
    }
    let state_fraction: Vec<f64> = average
        .iter()
        .zip(&sojourn)
        .map(|(&p, &t)| p * t / mean_sojourn)
        .collect();

    // Place averages: Σ fraction(s) · tokens_s(p) — a second
    // segment-ordered sweep, this time over the marking rows.
    let places = net.place_count();
    let mut place_average_tokens = vec![0.0f64; places];
    graph.sweep(|s, guard| -> Result<(), MarkovError> {
        let frac = state_fraction[s];
        if frac != 0.0 {
            for (p, &tokens) in guard.marking(s)?.iter().enumerate() {
                place_average_tokens[p] += frac * f64::from(tokens);
            }
        }
        Ok(())
    })?;

    // The segment-ordered sweeps above promise the analysis-phase
    // resident envelope: budget + one pinned guard (state + edge
    // segment) + one segment of slack. Verify the promise whenever a
    // finite budget is set (debug builds only; the paged-analysis test
    // harness exercises this at a 64 KiB budget).
    #[cfg(debug_assertions)]
    if options.reach.mem_budget != usize::MAX {
        let guard = graph.max_state_segment_bytes() + graph.max_edge_segment_bytes();
        let slack = guard
            + graph
                .max_state_segment_bytes()
                .max(graph.max_edge_segment_bytes());
        debug_assert!(
            graph.peak_resident_bytes() <= options.reach.mem_budget + slack,
            "markov analysis phase peaked at {} resident bytes \
             (budget {} + guard/segment slack {})",
            graph.peak_resident_bytes(),
            options.reach.mem_budget,
            slack
        );
    }

    // Throughput of t: expected Fire(t) jumps per tick
    //   = Σ_s π(s) · P(s fires t) / mean_sojourn.
    let mut transition_throughput = vec![0.0f64; net.transition_count()];
    for s in 0..n {
        for &(_, p, label) in row(s) {
            if let EdgeLabel::Fire(t) = label {
                transition_throughput[t.index()] += average[s] * p;
            }
        }
    }
    for v in &mut transition_throughput {
        *v /= mean_sojourn;
    }

    Ok(SteadyState {
        state_fraction,
        place_average_tokens,
        transition_throughput,
        mean_sojourn,
    })
}

/// The states of the chain's unique bottom SCC, its recurrent class.
///
/// State `s` is recurrent iff every state reachable from `s` reaches
/// `s` back. Every state of a reachability graph is reachable from the
/// initial state, so every state is a candidate. Model graphs are
/// small; O(n · edges) is fine.
///
/// # Errors
///
/// [`MarkovError::MultipleRecurrentClasses`] when a second class turns
/// up.
fn bottom_scc<'a>(n: usize, row: impl Fn(usize) -> &'a [Jump]) -> Result<Vec<bool>, MarkovError> {
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
    for v in 0..n {
        for &(w, _, _) in row(v) {
            reverse[w].push(v);
        }
    }
    let mut recurrent: Option<(usize, Vec<bool>)> = None;
    for s in 0..n {
        if recurrent.as_ref().is_some_and(|(_, class)| class[s]) {
            continue;
        }
        let reach_s = reachable_from(n, s, |v| row(v).iter().map(|&(w, _, _)| w));
        let coreach_s = reachable_from(n, s, |v| reverse[v].iter().copied());
        if !(0..n).filter(|&v| reach_s[v]).all(|v| coreach_s[v]) {
            continue;
        }
        // A recurrent state outside the first class found starts
        // another class.
        if let Some((first, _)) = recurrent {
            return Err(MarkovError::MultipleRecurrentClasses { first, second: s });
        }
        recurrent = Some((s, reach_s));
    }
    // A finite chain without deadlocks always has a bottom SCC.
    recurrent
        .map(|(_, class)| class)
        .ok_or(MarkovError::NoConvergence)
}

/// The states reachable from `start` along `next`, as a membership
/// vector over `0..n`.
fn reachable_from<I: IntoIterator<Item = usize>>(
    n: usize,
    start: usize,
    next: impl Fn(usize) -> I,
) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut stack = vec![start];
    seen[start] = true;
    while let Some(v) = stack.pop() {
        for w in next(v) {
            if !seen[w] {
                seen[w] = true;
                stack.push(w);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::{NetBuilder, Time};

    fn ring(d1: u64, d2: u64) -> pnut_core::Net {
        let mut b = NetBuilder::new("ring");
        b.place("a", 1);
        b.place("bp", 0);
        b.transition("ab").input("a").output("bp").firing(d1).add();
        b.transition("ba").input("bp").output("a").firing(d2).add();
        b.build().unwrap()
    }

    #[test]
    fn deterministic_ring_exact() {
        let net = ring(3, 1);
        let ss = steady_state(&net, &MarkovOptions::default()).unwrap();
        let ab = net.transition_id("ab").unwrap();
        let ba = net.transition_id("ba").unwrap();
        assert!((ss.throughput(ab) - 0.25).abs() < 1e-9);
        assert!((ss.throughput(ba) - 0.25).abs() < 1e-9);
        // Tokens are inside transitions while firing: both places are
        // almost always empty in this net (instantaneous hand-offs
        // happen at measure-zero instants), so fractions reflect the
        // in-flight pattern instead; totals must stay in [0, 1].
        let a = net.place_id("a").unwrap();
        assert!(ss.avg_tokens(a) <= 1.0 + 1e-9);
        assert!(
            (ss.mean_sojourn - 1.0).abs() < 1e-9,
            "sojourns 0,3,0,1 over 4 jumps"
        );
        let total: f64 = ss.state_fraction.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilistic_choice_matches_simulation() {
        // One token; two competing service loops with different delays
        // and frequencies .7/.3 — a stochastic net the marked-graph tool
        // rejects.
        let mut b = NetBuilder::new("choice");
        b.place("idle", 1);
        b.place("fast_done", 0);
        b.place("slow_done", 0);
        b.transition("fast")
            .input("idle")
            .output("fast_done")
            .firing(1)
            .frequency(0.7)
            .add();
        b.transition("slow")
            .input("idle")
            .output("slow_done")
            .firing(5)
            .frequency(0.3)
            .add();
        b.transition("rf").input("fast_done").output("idle").add();
        b.transition("rs").input("slow_done").output("idle").add();
        let net = b.build().unwrap();

        assert!(crate::analyze(&net).is_err(), "not a marked graph");
        let ss = steady_state(&net, &MarkovOptions::default()).unwrap();

        let trace = pnut_sim::simulate(&net, 7, Time::from_ticks(200_000)).unwrap();
        let report = pnut_stat::analyze(&trace);
        for name in ["fast", "slow"] {
            let analytic = ss.throughput(net.transition_id(name).unwrap());
            let simulated = report.transition(name).unwrap().throughput;
            assert!(
                (analytic - simulated).abs() / simulated < 0.03,
                "{name}: analytic {analytic} vs simulated {simulated}"
            );
        }
        // Expected: per cycle, p=.7 takes 1 tick, p=.3 takes 5 → mean
        // cycle 0.7*1 + 0.3*5 = 2.2; fast throughput = .7/2.2.
        let fast = ss.throughput(net.transition_id("fast").unwrap());
        assert!((fast - 0.7 / 2.2).abs() < 1e-9);
    }

    #[test]
    fn place_occupancy_analytic() {
        // The token rests on `waiting` while another transition (the
        // timer `tick`) fires, so the place's occupancy is visible.
        let mut b = NetBuilder::new("rest");
        b.place("waiting", 1);
        b.place("go", 0);
        b.place("spent", 0);
        // A 4-tick timer runs while the token waits on `waiting`.
        b.place("timer", 1);
        b.transition("tick")
            .input("timer")
            .output("go")
            .firing(4)
            .add();
        b.transition("move")
            .input("waiting")
            .input("go")
            .output("spent")
            .output("timer")
            .firing(1)
            .add();
        b.transition("reset").input("spent").output("waiting").add();
        let net = b.build().unwrap();
        let ss = steady_state(&net, &MarkovOptions::default()).unwrap();
        // Cycle: 4 ticks timing (waiting occupied) + 1 tick moving.
        let waiting = net.place_id("waiting").unwrap();
        assert!(
            (ss.avg_tokens(waiting) - 0.8).abs() < 1e-9,
            "waiting occupied 4 of 5 ticks: {}",
            ss.avg_tokens(waiting)
        );
    }

    #[test]
    fn deadlock_and_zeno_detected() {
        let mut b = NetBuilder::new("dead");
        b.place("p", 1);
        b.place("q", 0);
        b.transition("t").input("p").output("q").firing(1).add();
        let net = b.build().unwrap();
        assert!(matches!(
            steady_state(&net, &MarkovOptions::default()),
            Err(MarkovError::Deadlock { .. })
        ));

        let mut b = NetBuilder::new("zeno");
        b.place("p", 1);
        b.transition("t").input("p").output("p").add();
        let net = b.build().unwrap();
        // A zero-delay self-loop: the timed graph is 1 state with a Fire
        // self-edge and no Advance; no time ever passes.
        assert!(matches!(
            steady_state(&net, &MarkovOptions::default()),
            Err(MarkovError::Zeno)
        ));
    }

    #[test]
    fn two_recurrent_classes_are_named() {
        // `start` commits the token to one of two timed rings for good:
        // two recurrent classes, so no single steady state exists.
        let mut b = NetBuilder::new("fork");
        b.place("start", 1);
        for ring in ["a", "b"] {
            let (p, q) = (format!("{ring}1"), format!("{ring}2"));
            b.place(&p, 0);
            b.place(&q, 0);
            b.transition(format!("to_{ring}"))
                .input("start")
                .output(&p)
                .add();
            b.transition(format!("{ring}_fwd"))
                .input(&p)
                .output(&q)
                .firing(2)
                .add();
            b.transition(format!("{ring}_back"))
                .input(&q)
                .output(&p)
                .firing(1)
                .add();
        }
        let net = b.build().unwrap();
        let err = steady_state(&net, &MarkovOptions::default()).unwrap_err();
        let MarkovError::MultipleRecurrentClasses { first, second } = err else {
            panic!("expected MultipleRecurrentClasses, got {err:?}");
        };
        assert_ne!(first, second);
        assert_ne!(first, 0, "the initial state is transient");
        assert!(err.to_string().contains("recurrent classes"), "{err}");
    }

    #[test]
    fn enabling_time_nets_are_analyzed_exactly() {
        // An enabling-3 hand-off ring: one completion of each
        // transition every 3 ticks, with the token resting on `p`
        // throughout the wait (enabling does not remove tokens).
        let mut b = NetBuilder::new("en");
        b.place("p", 1);
        b.place("q", 0);
        b.transition("t").input("p").output("q").enabling(3).add();
        b.transition("r").input("q").output("p").add();
        let net = b.build().unwrap();
        let ss = steady_state(&net, &MarkovOptions::default()).unwrap();
        let t = net.transition_id("t").unwrap();
        assert!(
            (ss.throughput(t) - 1.0 / 3.0).abs() < 1e-9,
            "one firing per 3-tick enabling period, got {}",
            ss.throughput(t)
        );
        let p = net.place_id("p").unwrap();
        assert!(
            (ss.avg_tokens(p) - 1.0).abs() < 1e-9,
            "the token rests on `p` for the whole wait (atomic hand-offs \
             happen at measure-zero instants), got {}",
            ss.avg_tokens(p)
        );
    }

    #[test]
    fn expression_enabling_times_are_analyzed_exactly() {
        // The same hand-off ring as above, but with the enabling delay
        // written as a variable expression: the timed build resolves it
        // at arm time (retiring the old ExpressionEnablingTime
        // rejection), so the steady state matches the constant-delay
        // encoding exactly.
        let build = |expr: bool| {
            let mut b = NetBuilder::new("en");
            b.place("p", 1);
            b.place("q", 0);
            let t = b.transition("t").input("p").output("q");
            if expr {
                t.enabling_expr(pnut_core::Expr::parse("d").unwrap()).add();
                b.var("d", 3);
            } else {
                t.enabling(3).add();
            }
            b.transition("r").input("q").output("p").add();
            b.build().unwrap()
        };
        let net = build(true);
        let ss = steady_state(&net, &MarkovOptions::default()).unwrap();
        let constant = steady_state(&build(false), &MarkovOptions::default()).unwrap();
        let t = net.transition_id("t").unwrap();
        assert!(
            (ss.throughput(t) - 1.0 / 3.0).abs() < 1e-9,
            "one firing per 3-tick enabling period, got {}",
            ss.throughput(t)
        );
        assert_eq!(
            ss.transition_throughput, constant.transition_throughput,
            "expression and constant encodings agree bit-for-bit"
        );
        assert_eq!(ss.state_fraction, constant.state_fraction);
    }
}
