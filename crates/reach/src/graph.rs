//! Reachability graph construction over the interned state store.
//!
//! States live in a [`StateStore`] (each distinct state exactly once, in
//! flat arenas — see [`crate::store`]); edges are kept in compressed
//! sparse row (CSR) form, partitioned into the same fixed-state-count
//! **segments** as the state arenas and paged through the same
//! machinery ([`crate::pager`]): breadth-first exploration discovers
//! and finishes states in index order, so the CSR rows are emitted
//! append-only in source order — exactly the access pattern the
//! seal/spill/fault path wants — and two builds of the same net produce
//! bit-identical graphs.
//!
//! # Reading a graph that is bigger than RAM
//!
//! Random access ([`ReachabilityGraph::state`],
//! [`ReachabilityGraph::successors`]) faults evicted segments back in
//! under `&self` but can never evict, so a full sweep through them
//! silently grows the resident set to the whole store. Analyses that
//! sweep — CTL fixpoints, [`ReachabilityGraph::deadlocks`],
//! [`ReachabilityGraph::place_bounds`], Markov extraction, the
//! invariant cross-check — instead go through the one segment-ordered
//! pass, [`ReachabilityGraph::sweep`]: pin one segment with a
//! [`SegmentGuard`], scan its rows, drop the guard, and call
//! [`ReachabilityGraph::maintain`] (an `&mut` point, so eviction is
//! legal) before the next segment. That holds the resident envelope to
//! `budget + one pinned guard (state segment + edge segment) + one
//! segment of slack` for the *analysis* phase too, not just the build —
//! asserted by `tests/paged_analysis.rs`. Pinning is private to this
//! module, so no caller can hand-roll a loop that skips the eviction.

use crate::pager::{EdgeSegment, PagedEdges, PagerConfig, SegmentData, SpillError};
use crate::store::{self, EnvRef, LevelBuffer, MarkingView, StateRef, StateStore};
use pnut_core::expr::compile as bc;
use pnut_core::{Net, Transition, TransitionId};
use pnut_obs as obs;
use std::cell::OnceCell;
use std::fmt;
use std::ops::Range;

/// Limits for graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachOptions {
    /// Stop with [`ReachError::StateLimit`] beyond this many states.
    pub max_states: usize,
    /// Worker threads for frontier exploration: `0` uses
    /// [`std::thread::available_parallelism`], anything else is an
    /// explicit thread count. Every job count runs the same
    /// breadth-first level loop and produces a bit-identical graph (see
    /// [`crate::store`] for how the level barrier guarantees it), so
    /// this is purely a throughput knob: it only decides which levels
    /// are wide enough to split across workers. At `1` none is, and
    /// every successor is interned in place.
    pub jobs: usize,
    /// Resident byte budget for the state arenas; cold level segments
    /// beyond it spill to a temp file and are reloaded on demand (see
    /// [`crate::pager`]). `usize::MAX` (the default) keeps everything
    /// in memory. Like `jobs`, this never changes the result — the
    /// graph is bit-identical at any budget.
    pub mem_budget: usize,
    /// Directory for the spill file; `None` uses the system temp dir.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl ReachOptions {
    /// The actual worker count: resolves `jobs == 0` to the machine's
    /// available parallelism (falling back to 1 when unknown).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }

    /// The pager half of the options.
    fn pager_config(&self) -> PagerConfig {
        PagerConfig {
            mem_budget: self.mem_budget,
            spill_dir: self.spill_dir.clone(),
        }
    }
}

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions {
            max_states: 100_000,
            jobs: 1,
            mem_budget: usize::MAX,
            spill_dir: None,
        }
    }
}

/// Construction errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ReachError {
    /// The state space exceeded [`ReachOptions::max_states`] — the net
    /// may be unbounded.
    StateLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The net uses `irand`; reachability must be deterministic.
    UsesRandom,
    /// A predicate or action failed to evaluate.
    Eval {
        /// The transition involved.
        transition: String,
        /// The underlying failure.
        source: pnut_core::EvalError,
    },
    /// A transition expression failed to lower to bytecode (names the
    /// transition and the offending expression). Expressions from the
    /// surface language never hit this; it bounds pathological
    /// programmatically-built nets.
    Compile(pnut_core::CompileError),
    /// Timed construction requires constant (non-expression) delays.
    /// Only the frozen seed construction (`pnut_bench::legacy_reach`)
    /// raises this today: [`build_timed`] resolves deterministic
    /// expression firing *and enabling* times per state (against the
    /// environment at arm time, exactly like the simulator).
    NonConstantDelay {
        /// The transition with an expression-valued delay.
        transition: String,
    },
    /// Coverability analysis requires a *plain* net: no inhibitor arcs,
    /// predicates, or actions (they break the monotonicity that the
    /// Karp–Miller acceleration relies on).
    NotPlain {
        /// The offending transition.
        transition: String,
    },
    /// Firing a transition produced an inconsistent marking: a token
    /// count overflowed `u32`, or an input place underflowed despite the
    /// enablement check (unreachable unless an internal invariant is
    /// broken — `NetBuilder` merges duplicate arcs, and enablement
    /// covers the merged weight). The seed construction only
    /// `debug_assert!`-ed this; it is a hard error so release builds can
    /// never continue from a corrupted marking.
    MarkingCorrupt {
        /// The transition being fired.
        transition: String,
        /// What exactly went wrong.
        detail: &'static str,
    },
    /// A store arena or index space overflowed its representation (more
    /// than `u32::MAX` states, environments, edges, or in-flight
    /// entries). The seed construction `expect`-panicked here; it is a
    /// hard error so release builds fail cleanly on astronomically large
    /// state spaces instead of aborting.
    CapacityExceeded {
        /// Which arena or index space overflowed.
        resource: &'static str,
    },
    /// Spill-file I/O failed while paging a cold level segment out or
    /// back in (see [`crate::pager`]): disk full, an unwritable
    /// `spill_dir`, or the temp file disappearing mid-build.
    Spill(SpillError),
}

impl fmt::Display for ReachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachError::StateLimit { limit } => {
                write!(f, "state space exceeds {limit} states (unbounded net?)")
            }
            ReachError::UsesRandom => write!(f, "net uses irand; reachability requires determinism"),
            ReachError::Eval { transition, source } => {
                write!(f, "evaluation failed in `{transition}`: {source}")
            }
            ReachError::Compile(e) => write!(f, "{e}"),
            ReachError::NonConstantDelay { transition } => write!(
                f,
                "timed reachability requires constant delays (`{transition}`)"
            ),
            ReachError::NotPlain { transition } => write!(
                f,
                "coverability requires a plain net without inhibitors/predicates/actions (`{transition}`)"
            ),
            ReachError::MarkingCorrupt { transition, detail } => write!(
                f,
                "firing `{transition}` corrupted the marking: {detail}"
            ),
            ReachError::CapacityExceeded { resource } => {
                write!(f, "reachability store capacity exceeded: {resource}")
            }
            ReachError::Spill(e) => write!(f, "state-store paging failed: {e}"),
        }
    }
}

impl std::error::Error for ReachError {}

/// An edge label: a transition start, or the passage of time to the
/// next completion (timed graphs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    /// Transition `t` started (and, untimed, completed) firing.
    Fire(TransitionId),
    /// Time advanced by the given number of ticks.
    Advance(u64),
}

/// One outgoing edge: the label and the target state index.
pub type Edge = (EdgeLabel, u32);

/// A reachability graph: interned states, CSR-packed labeled edges
/// (paged on the same segment grain as the states, against the same
/// byte budget), and the initial state (index 0).
#[derive(Debug)]
pub struct ReachabilityGraph {
    store: StateStore,
    /// The paged CSR edge arena: the successor row of state `i` lives
    /// in edge segment `i / seg_states`.
    edges: PagedEdges,
}

/// Two graphs are equal iff they hold the same states in the same
/// order with the same edges — paging grain, residency, and spill
/// layout are ignored (comparing faults spilled segments back in).
impl PartialEq for ReachabilityGraph {
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store && self.edges == other.edges
    }
}

impl ReachabilityGraph {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.edge_count()
    }

    /// The interned state store (markings, environments, in-flight
    /// multisets).
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// A view of state `i`, faulting its segment in if evicted.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the state segment fails to reload.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> Result<StateRef<'_>, ReachError> {
        self.store.state(i)
    }

    /// Outgoing edges of state `i` as `(label, target)` pairs, faulting
    /// the edge segment in if evicted.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the edge segment fails to reload.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn successors(&self, i: usize) -> Result<&[Edge], ReachError> {
        self.edges.row(i)
    }

    // -- segment-order read path ------------------------------------------

    /// Pin segment `seg` for scanning: the returned [`SegmentGuard`]
    /// gives row access to the segment's states and successor lists
    /// without re-touching the pager's LRU per row, and — because it is
    /// a shared borrow of the graph — *provably* blocks eviction for
    /// its lifetime (eviction needs `&mut`; see [`crate::pager`] for
    /// the aliasing argument). Pinning is lazy and free of I/O: the
    /// state and edge segments fault in on the first row access of each
    /// family, so a sweep that only reads edges never loads the
    /// markings. Only [`Self::sweep`] pins.
    fn pin_segment(&self, seg: usize) -> SegmentGuard<'_> {
        SegmentGuard {
            graph: self,
            seg,
            range: self.store.segment_range(seg),
            states: OnceCell::new(),
            edges: OnceCell::new(),
        }
    }

    /// Evict cold segments (edges first — analysis sweeps re-read them
    /// in order anyway — then states) until the shared resident total
    /// fits the budget again. A no-op while under budget; the legal
    /// eviction point between two pinned segments of a [`Self::sweep`].
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if writing an evicted segment fails.
    pub fn maintain(&mut self) -> Result<(), ReachError> {
        self.edges.maintain()?;
        self.store.maintain()
    }

    /// The one segment-ordered pass over the graph: pin a segment, hand
    /// `f(state index, guard)` each of its states in index order, drop
    /// the guard, evict back under budget ([`Self::maintain`]), repeat.
    /// Every full-graph analysis — the ones below, CTL, Markov
    /// extraction, the invariant cross-check — is a `sweep`, so each
    /// stays inside the analysis budget envelope instead of faulting
    /// the whole store resident.
    ///
    /// # Errors
    ///
    /// The first error `f` returns stops the sweep and is returned; a
    /// segment reload (from a row accessor inside `f`) or eviction
    /// failure surfaces as `E::from(ReachError::Spill)`. The graph
    /// stays usable, and a retry re-faults from scratch.
    pub fn sweep<E: From<ReachError>>(
        &mut self,
        mut f: impl FnMut(usize, &SegmentGuard<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        // States and edges share the segment grain, so the store's
        // segment count covers both families.
        for seg in 0..self.store.segment_count() {
            {
                let guard = self.pin_segment(seg);
                for i in guard.range() {
                    f(i, &guard)?;
                }
            }
            self.maintain()?;
        }
        Ok(())
    }

    // -- analyses (all sweeps, so they honor the byte budget) -------------

    /// Indices of deadlock states (no outgoing edges), in index order.
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if a segment reload or eviction fails;
    /// the graph stays usable and a retry re-faults from scratch.
    pub fn deadlocks(&mut self) -> Result<Vec<usize>, ReachError> {
        let mut out = Vec::new();
        self.sweep(|i, guard| -> Result<(), ReachError> {
            if guard.successors(i)?.is_empty() {
                out.push(i);
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// The bound of each place: the maximum token count over all
    /// reachable states (a net is k-bounded iff every entry ≤ k).
    ///
    /// # Errors
    ///
    /// As [`Self::deadlocks`].
    pub fn place_bounds(&mut self) -> Result<Vec<u32>, ReachError> {
        let mut bounds = vec![0u32; self.store.places()];
        self.sweep(|i, guard| -> Result<(), ReachError> {
            for (b, &t) in bounds.iter_mut().zip(guard.marking(i)?) {
                *b = (*b).max(t);
            }
            Ok(())
        })?;
        Ok(bounds)
    }

    /// Whether `transition` fires on some edge (L1-liveness witness).
    ///
    /// # Errors
    ///
    /// As [`Self::deadlocks`].
    pub fn ever_fires(&mut self, transition: TransitionId) -> Result<bool, ReachError> {
        let mut found = false;
        self.sweep(|i, guard| -> Result<(), ReachError> {
            found = found
                || guard
                    .successors(i)?
                    .iter()
                    .any(|&(l, _)| l == EdgeLabel::Fire(transition));
            Ok(())
        })?;
        Ok(found)
    }

    // -- budget diagnostics -----------------------------------------------

    /// Resident paged-arena bytes right now (states and edges — one
    /// shared ledger).
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_arena_bytes()
    }

    /// High-water mark of [`Self::resident_bytes`].
    pub fn peak_resident_bytes(&self) -> usize {
        self.store.peak_resident_arena_bytes()
    }

    /// Restart [`Self::peak_resident_bytes`] tracking from the current
    /// resident level. The budget-envelope test harness calls this
    /// after the build so the recorded peak measures the *analysis*
    /// phase alone.
    pub fn reset_peak_resident_bytes(&mut self) {
        self.store.reset_peak_resident_bytes();
    }

    /// Total bytes spilled to disk (state + edge images).
    pub fn spilled_bytes(&self) -> usize {
        self.store.spilled_bytes() + self.edges.spilled_bytes()
    }

    /// Content bytes of the largest sealed state segment.
    pub fn max_state_segment_bytes(&self) -> usize {
        self.store.max_segment_bytes()
    }

    /// Content bytes of the largest sealed edge segment.
    pub fn max_edge_segment_bytes(&self) -> usize {
        self.edges.max_segment_bytes()
    }

    /// Approximate heap footprint of the graph in bytes: the shared
    /// resident-arena ledger (state *and* edge segments) plus the
    /// always-resident intern tables and environments.
    pub fn approx_bytes(&self) -> usize {
        // `StateStore::approx_bytes` already reads the shared ledger,
        // which covers the edge arena too.
        self.store.approx_bytes()
    }
}

/// A pinned segment of a [`ReachabilityGraph`]: row access to
/// `seg_states` consecutive states and their successor lists. Guards
/// exist only inside [`ReachabilityGraph::sweep`], which lends one per
/// segment to its callback.
///
/// # What pinning means, and why it is sound
///
/// The guard holds `&ReachabilityGraph`. Eviction — the only operation
/// that frees segment memory — requires `&mut ReachabilityGraph`
/// ([`ReachabilityGraph::maintain`]), so while any guard is alive the
/// borrow checker statically rules out eviction: every `&[u32]` /
/// `&[Edge]` the guard hands out stays valid for the guard's lifetime
/// with no reference counting at run time. Faulting a segment *in*
/// under `&self` only ever installs memory (see [`crate::pager`]),
/// which is why lazy pinning is safe too.
///
/// The flip side: eviction can only run once the guard is dropped, so a
/// sweep holding one guard at a time keeps the resident envelope at
/// `budget + one state segment + one edge segment` (+ one segment of
/// transient slack while the next pin faults before `maintain` evicts).
///
/// # Errors and panics
///
/// Row accessors return [`ReachError::Spill`] if a spilled segment
/// fails to reload (disk error, short read, bad image header), and
/// panic only on indices outside [`Self::range`] — a caller bug, not
/// an environment failure.
pub struct SegmentGuard<'g> {
    graph: &'g ReachabilityGraph,
    seg: usize,
    range: Range<usize>,
    /// Lazily faulted state rows (markings, env ids, in-flight,
    /// enabling clocks).
    states: OnceCell<&'g SegmentData>,
    /// Lazily faulted successor rows.
    edges: OnceCell<&'g EdgeSegment>,
}

impl<'g> SegmentGuard<'g> {
    /// The global state indices this guard covers.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    fn local(&self, i: usize) -> usize {
        assert!(
            self.range.contains(&i),
            "state {i} outside pinned segment {:?}",
            self.range
        );
        i - self.range.start
    }

    fn state_rows(&self) -> Result<&'g SegmentData, ReachError> {
        if let Some(s) = self.states.get() {
            return Ok(s);
        }
        let s = self.graph.store.state_segment(self.seg)?;
        let _ = self.states.set(s);
        Ok(s)
    }

    fn edge_rows(&self) -> Result<&'g EdgeSegment, ReachError> {
        if let Some(s) = self.edges.get() {
            return Ok(s);
        }
        let s = self.graph.edges.segment(self.seg)?;
        let _ = self.edges.set(s);
        Ok(s)
    }

    /// The marking row of state `i` (global index).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the state segment fails to reload.
    pub fn marking(&self, i: usize) -> Result<&'g [u32], ReachError> {
        let local = self.local(i);
        Ok(self.state_rows()?.marking(local, self.graph.store.places()))
    }

    /// A full view of state `i` (global index).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the state segment fails to reload.
    pub fn state(&self, i: usize) -> Result<StateRef<'g>, ReachError> {
        let local = self.local(i);
        let rows = self.state_rows()?;
        Ok(StateRef {
            marking: MarkingView::new(rows.marking(local, self.graph.store.places())),
            env: self.graph.store.env(rows.env_id(local)),
            in_flight: rows.in_flight(local),
            enabling: rows.enabling(local),
        })
    }

    /// The successor row of state `i` (global index).
    ///
    /// # Errors
    ///
    /// [`ReachError::Spill`] if the edge segment fails to reload.
    pub fn successors(&self, i: usize) -> Result<&'g [Edge], ReachError> {
        let local = self.local(i);
        Ok(self.edge_rows()?.row(local))
    }
}

fn check_deterministic(net: &Net) -> Result<(), ReachError> {
    if net.uses_random() {
        return Err(ReachError::UsesRandom);
    }
    Ok(())
}

fn eval_err(t: &Transition, source: pnut_core::EvalError) -> ReachError {
    ReachError::Eval {
        transition: t.name().to_string(),
        source,
    }
}

/// One transition lowered to flat index/delta form for the hot loop:
/// raw place indices instead of `PlaceId`s, duplicate arcs merged, and
/// the token movement of a firing as a single signed-delta pass.
struct Compiled {
    id: TransitionId,
    /// `(place, tokens)` enablement lower bounds; duplicate input arcs
    /// are merged by summing, so multi-arc requirements are exact.
    needs: Vec<(u32, u32)>,
    /// `(place, threshold)` inhibitor bounds (duplicates merged to the
    /// tightest threshold); enabled iff tokens < threshold.
    inhib: Vec<(u32, u32)>,
    /// Net token movement of an atomic firing — inputs negative,
    /// outputs positive, zero-sum self-loops dropped.
    fire_delta: Vec<(u32, i64)>,
    /// Token movement of a timed firing *start* (inputs only; outputs
    /// are delivered at end-of-firing).
    start_delta: Vec<(u32, i64)>,
    /// Maximum concurrent firings (timed nets).
    cap: Option<u32>,
    has_predicate: bool,
}

fn compile(net: &Net) -> Vec<Compiled> {
    use std::collections::BTreeMap;
    net.transitions()
        .map(|(id, t)| {
            let mut needs: BTreeMap<u32, u64> = BTreeMap::new();
            let mut inhib: BTreeMap<u32, u32> = BTreeMap::new();
            let mut fire: BTreeMap<u32, i64> = BTreeMap::new();
            let mut start: BTreeMap<u32, i64> = BTreeMap::new();
            for &(p, w) in t.inputs() {
                let p = p.index() as u32;
                *needs.entry(p).or_default() += u64::from(w);
                *fire.entry(p).or_default() -= i64::from(w);
                *start.entry(p).or_default() -= i64::from(w);
            }
            for &(p, th) in t.inhibitors() {
                let e = inhib.entry(p.index() as u32).or_insert(th);
                *e = (*e).min(th);
            }
            for &(p, w) in t.outputs() {
                *fire.entry(p.index() as u32).or_default() += i64::from(w);
            }
            Compiled {
                id,
                needs: needs
                    .into_iter()
                    // A summed requirement above u32::MAX is unsatisfiable
                    // in practice; saturating keeps the type small.
                    .map(|(p, w)| (p, u32::try_from(w).unwrap_or(u32::MAX)))
                    .collect(),
                inhib: inhib.into_iter().collect(),
                fire_delta: fire.into_iter().filter(|&(_, d)| d != 0).collect(),
                start_delta: start.into_iter().collect(),
                cap: t.max_concurrent(),
                has_predicate: t.predicate().is_some(),
            }
        })
        .collect()
}

/// Apply merged token deltas to a scratch marking, keeping its
/// commutative hash (see [`StateStore::marking_elem_hash`]) in sync.
/// Returns the corruption detail on underflow/overflow.
#[inline]
fn apply_delta(
    marking: &mut [u32],
    hash: &mut u64,
    delta: &[(u32, i64)],
) -> Result<(), &'static str> {
    for &(p, d) in delta {
        let p = p as usize;
        let old = marking[p];
        let new = i64::from(old) + d;
        let Ok(new) = u32::try_from(new) else {
            return Err(if new < 0 {
                "input place underflow (arc weights exceed tokens)"
            } else {
                "token count overflowed u32"
            });
        };
        marking[p] = new;
        *hash = hash
            .wrapping_sub(StateStore::marking_elem_hash(p, old))
            .wrapping_add(StateStore::marking_elem_hash(p, new));
    }
    Ok(())
}

/// Per-transition delays of a timed build.
struct TimedTicks {
    /// Firing time per transition (ticks between start and completion):
    /// `Some` for a pre-resolved constant, `None` for a deterministic
    /// expression resolved per state against the successor environment —
    /// after the action, the simulator's order, so the paper's
    /// table-driven delays (§3) see their own updates.
    firing: Vec<Option<u64>>,
    /// Enabling time per transition (ticks of continuous readiness
    /// before the start-firing event becomes eligible): `Some` for a
    /// pre-resolved constant (`Some(0)` = never clocked), `None` for a
    /// deterministic expression resolved per state against the
    /// environment at arm time — the simulator's `refresh_enabling`
    /// order, so table-driven enabling delays follow the state.
    enabling: Vec<Option<u64>>,
}

impl TimedTicks {
    fn new(net: &Net) -> Self {
        let fixed = |d: &pnut_core::Delay| match d {
            pnut_core::Delay::Fixed(ticks) => Some(*ticks),
            pnut_core::Delay::Expr(_) => None,
        };
        TimedTicks {
            firing: net
                .transitions()
                .map(|(_, t)| fixed(t.firing_time()))
                .collect(),
            enabling: net
                .transitions()
                .map(|(_, t)| fixed(t.enabling_time()))
                .collect(),
        }
    }
}

/// The read-only half of a build, shared by every worker: the net, its
/// transitions in hot-loop form and as bytecode, and (timed builds
/// only) the per-transition delays.
struct Semantics<'a> {
    net: &'a Net,
    compiled: Vec<Compiled>,
    /// Bytecode programs for every transition expression, compiled once
    /// against the net's slot map.
    programs: bc::CompiledNet,
    ticks: Option<TimedTicks>,
}

impl Semantics<'_> {
    /// A firing or enabling delay of transition `id`: the pre-resolved
    /// constant `fixed`, or the expression `expr` evaluated against
    /// `slots`. Firing delays see the environment *after* the action
    /// ("the action runs before the delay is resolved so table-driven
    /// models can compute their own firing times", paper §3); enabling
    /// delays see the environment at arm time, mirroring the
    /// simulator's `refresh_enabling` (which resolves once when the
    /// clock arms and keeps the deadline while the transition stays
    /// continuously ready).
    fn delay(
        &self,
        fixed: Option<u64>,
        expr: Option<&bc::Program>,
        id: TransitionId,
        slots: &bc::EnvSlots,
        vm: &mut bc::Scratch,
    ) -> Result<u64, ReachError> {
        if let Some(t) = fixed {
            return Ok(t);
        }
        let prog = expr.expect("non-constant slot holds an expression delay");
        let t = self.net.transition(id);
        let v = prog
            .eval_pure(slots, &self.programs.map, vm)
            .and_then(|v| v.as_int())
            .map_err(|e| eval_err(t, e))?;
        u64::try_from(v).map_err(|_| eval_err(t, pnut_core::EvalError::Overflow))
    }

    /// Run `ct`'s compiled predicate against the slot-form environment
    /// (true when absent).
    fn predicate_holds(
        &self,
        ti: usize,
        ct: &Compiled,
        slots: &bc::EnvSlots,
        vm: &mut bc::Scratch,
    ) -> Result<bool, ReachError> {
        match &self.programs.transitions[ti].predicate {
            None => Ok(true),
            Some(p) => p
                .eval_pure(slots, &self.programs.map, vm)
                .and_then(|v| v.as_bool())
                .map_err(|e| eval_err(self.net.transition(ct.id), e)),
        }
    }
}

/// How many entries of the multiset `set` belong to transition `id`.
fn count_of(set: &[(TransitionId, u64)], id: TransitionId) -> u32 {
    set.iter().filter(|&&(x, _)| x == id).count() as u32
}

/// Where the successor expansion interns what it discovers. One-chunk
/// and split levels share [`Scratch::expand`] and differ only here.
trait Intern {
    /// An interned successor environment.
    type Env: Copy;
    /// An edge target.
    type Target;
    /// The handle of an environment the committed store already holds.
    fn committed_env(id: u32) -> Self::Env;
    /// Intern a post-action environment.
    fn env(&mut self, env: &pnut_core::expr::Env) -> Result<Self::Env, ReachError>;
    /// Intern the successor under construction in `sc`.
    fn state(&mut self, sc: &Scratch, env: Self::Env) -> Result<Self::Target, ReachError>;
}

/// The one-chunk interner: successors go straight into the store, and
/// the state cap is enforced *at intern time*, so a
/// [`ReachError::StateLimit`] leaves the store with exactly
/// `max_states` states.
struct Committed<'s> {
    store: &'s mut StateStore,
    max_states: usize,
}

impl Intern for Committed<'_> {
    type Env = u32;
    type Target = u32;

    fn committed_env(id: u32) -> u32 {
        id
    }

    fn env(&mut self, env: &pnut_core::expr::Env) -> Result<u32, ReachError> {
        self.store.intern_env(env)
    }

    fn state(&mut self, sc: &Scratch, env: u32) -> Result<u32, ReachError> {
        let (target, _) = self.store.intern_bounded(
            &sc.next_marking,
            sc.next_hash,
            env,
            &sc.next_inflight,
            &sc.next_enabling,
            self.max_states,
        )?;
        Ok(target as u32)
    }
}

/// An edge target as seen during a split level: either a state the
/// committed store already holds, or a local id into the worker's
/// [`LevelBuffer`] (rewritten to a dense index at the barrier).
#[derive(Debug, Clone, Copy)]
enum RawTarget {
    Committed(u32),
    Pending(u32),
}

/// A split-level worker's interner: probe the frozen committed store,
/// and buffer misses in the worker's own [`LevelBuffer`].
struct Buffered<'a> {
    store: &'a StateStore,
    buffer: &'a mut LevelBuffer,
}

impl Intern for Buffered<'_> {
    type Env = EnvRef;
    type Target = RawTarget;

    fn committed_env(id: u32) -> EnvRef {
        EnvRef::Committed(id)
    }

    fn env(&mut self, env: &pnut_core::expr::Env) -> Result<EnvRef, ReachError> {
        let hash = store::fx_hash_of(env);
        if let Some(id) = self.store.find_env_hashed(env, hash) {
            return Ok(EnvRef::Committed(id));
        }
        self.buffer.intern_env(env, hash).map(EnvRef::Pending)
    }

    fn state(&mut self, sc: &Scratch, env: EnvRef) -> Result<RawTarget, ReachError> {
        if let EnvRef::Committed(e) = env {
            if let Some(i) = self.store.find_state_hashed(
                &sc.next_marking,
                sc.next_hash,
                e,
                &sc.next_inflight,
                &sc.next_enabling,
            )? {
                return Ok(RawTarget::Committed(i));
            }
        }
        self.buffer
            .intern_state(
                &sc.next_marking,
                sc.next_hash,
                env,
                &sc.next_inflight,
                &sc.next_enabling,
            )
            .map(RawTarget::Pending)
    }
}

/// Reusable per-worker scratch: one copy of the state under expansion
/// and one successor under construction, plus the slot-form
/// environments and register file the compiled programs run on, so
/// successor generation is allocation-free on the steady state. The
/// inline levels share one; every split-level worker owns its own.
struct Scratch {
    /// Copy of the current state's marking (stable while the store grows).
    cur_marking: Vec<u32>,
    /// Marking-part hash of `cur_marking`.
    cur_hash: u64,
    /// Copy of the current state's in-flight multiset.
    cur_inflight: Vec<(TransitionId, u64)>,
    /// Copy of the current state's enabling-clock multiset.
    cur_enabling: Vec<(TransitionId, u64)>,
    /// Slot-form environment of the current state.
    cur_slots: bc::EnvSlots,
    /// Which interned env id `cur_slots` holds: consecutive states
    /// usually share an environment, so reloads are skipped.
    loaded_env: Option<u32>,
    /// Successor marking under construction.
    next_marking: Vec<u32>,
    /// Marking-part hash of `next_marking`, maintained incrementally.
    next_hash: u64,
    /// Successor in-flight multiset under construction.
    next_inflight: Vec<(TransitionId, u64)>,
    /// Successor enabling-clock multiset under construction.
    next_enabling: Vec<(TransitionId, u64)>,
    /// Slot-form successor environment (after an action).
    next_slots: bc::EnvSlots,
    /// Bytecode register file, shared by every program.
    vm: bc::Scratch,
}

impl Scratch {
    fn new(places: usize) -> Self {
        Scratch {
            cur_marking: vec![0; places],
            cur_hash: 0,
            cur_inflight: Vec::new(),
            cur_enabling: Vec::new(),
            cur_slots: bc::EnvSlots::new(),
            loaded_env: None,
            next_marking: vec![0; places],
            next_hash: 0,
            next_inflight: Vec::new(),
            next_enabling: Vec::new(),
            next_slots: bc::EnvSlots::new(),
            vm: bc::Scratch::new(),
        }
    }

    /// Load state `cur` into the scratch copies (faulting its segment
    /// in if evicted); returns its env id.
    fn load(
        &mut self,
        sem: &Semantics<'_>,
        store: &StateStore,
        cur: usize,
    ) -> Result<u32, ReachError> {
        self.cur_marking
            .copy_from_slice(store.try_marking_slice(cur)?);
        self.cur_hash = StateStore::marking_hash(&self.cur_marking);
        self.cur_inflight.clear();
        self.cur_inflight
            .extend_from_slice(store.try_in_flight_slice(cur)?);
        self.cur_enabling.clear();
        self.cur_enabling
            .extend_from_slice(store.try_enabling_slice(cur)?);
        let env = store.try_env_id(cur)?;
        if self.loaded_env != Some(env) {
            self.cur_slots.load(&sem.programs.map, store.env(env));
            self.loaded_env = Some(env);
        }
        Ok(env)
    }

    /// Arm the initial state's enabling clocks into `next_enabling`
    /// (left empty for untimed builds): the simulator refreshes its
    /// clocks before the first step, so every initially ready
    /// transition starts with a full countdown.
    fn arm_initial(
        &mut self,
        sem: &Semantics<'_>,
        store: &StateStore,
        initial_env: u32,
    ) -> Result<(), ReachError> {
        if let Some(ticks) = &sem.ticks {
            self.cur_slots
                .load(&sem.programs.map, store.env(initial_env));
            self.loaded_env = Some(initial_env);
            self.next_marking
                .copy_from_slice(sem.net.initial_marking().as_slice());
            self.compute_next_enabling(sem, ticks, false, None, 0)?;
        }
        Ok(())
    }

    /// Whether compiled transition `ct` is marking-enabled in the
    /// current state.
    #[inline]
    fn enabled(&self, ct: &Compiled) -> bool {
        ct.needs
            .iter()
            .all(|&(p, w)| self.cur_marking[p as usize] >= w)
            && ct
                .inhib
                .iter()
                .all(|&(p, th)| self.cur_marking[p as usize] < th)
    }

    /// Reset the scratch successor to the current marking.
    #[inline]
    fn begin_next(&mut self) {
        self.next_marking.copy_from_slice(&self.cur_marking);
        self.next_hash = self.cur_hash;
    }

    /// Build the successor marking for firing `ct`: the full movement
    /// when `atomic`, inputs only otherwise (timed nets deliver outputs
    /// at end-of-firing).
    fn fire(&mut self, net: &Net, ct: &Compiled, atomic: bool) -> Result<(), ReachError> {
        self.begin_next();
        let delta = if atomic {
            &ct.fire_delta
        } else {
            &ct.start_delta
        };
        apply_delta(&mut self.next_marking, &mut self.next_hash, delta).map_err(|detail| {
            ReachError::MarkingCorrupt {
                transition: net.transition(ct.id).name().to_string(),
                detail,
            }
        })
    }

    /// Expand the loaded state (environment `env_id`), appending its
    /// successor row to `row`. Every transition that can start —
    /// marking-enabled; for timed builds also under its concurrency cap
    /// with no enabling clock still counting down; predicate true — gets
    /// a `Fire` edge, in transition-id order; then, in timed builds, the
    /// maximal-progress `Advance` edge. This is the one successor
    /// generator: every level calls it, so every job count and budget
    /// shares one semantics.
    fn expand<I: Intern>(
        &mut self,
        sem: &Semantics<'_>,
        intern: &mut I,
        env_id: u32,
        row: &mut Vec<(EdgeLabel, I::Target)>,
    ) -> Result<(), ReachError> {
        let mut can_start = false;
        for (ti, ct) in sem.compiled.iter().enumerate() {
            if !self.enabled(ct) {
                continue;
            }
            // Timed builds also gate on the concurrency cap and the
            // enabling clock: a transition whose clock is still counting
            // down cannot start. (Ready transitions with a pending delay
            // always carry a clock entry, so a missing entry means the
            // resolved delay was 0.)
            if sem.ticks.is_some()
                && (ct
                    .cap
                    .is_some_and(|cap| count_of(&self.cur_inflight, ct.id) >= cap)
                    || self.cur_enabling.iter().any(|&(x, k)| x == ct.id && k > 0))
            {
                continue;
            }
            if ct.has_predicate && !sem.predicate_holds(ti, ct, &self.cur_slots, &mut self.vm)? {
                continue;
            }
            can_start = true;
            let target = self.start(sem, intern, ti, ct, env_id)?;
            row.push((EdgeLabel::Fire(ct.id), target));
        }

        // Maximal progress: time passes only when nothing can start and
        // something is pending — an in-flight completion or an enabling
        // deadline. Then every enabling countdown is positive, so the
        // advance is too.
        if let Some(ticks) = &sem.ticks {
            let dt = if can_start {
                None
            } else {
                self.cur_inflight
                    .iter()
                    .chain(&self.cur_enabling)
                    .map(|&(_, r)| r)
                    .min()
            };
            if let Some(dt) = dt {
                debug_assert!(dt > 0, "zero advance would loop forever");
                let target = self.advance(sem, ticks, intern, env_id, dt)?;
                row.push((EdgeLabel::Advance(dt), target));
            }
        }
        Ok(())
    }

    /// Start firing `ct` and intern the successor. The action runs
    /// first, as in the simulator; then the firing delay is resolved
    /// against the post-action environment, the tokens move (all of
    /// them for an untimed or zero-delay firing, the inputs only
    /// otherwise), and the enabling clocks are recomputed.
    fn start<I: Intern>(
        &mut self,
        sem: &Semantics<'_>,
        intern: &mut I,
        ti: usize,
        ct: &Compiled,
        env_id: u32,
    ) -> Result<I::Target, ReachError> {
        let (env, acted) = match &sem.programs.transitions[ti].action {
            None => (I::committed_env(env_id), false),
            Some(prog) => {
                self.next_slots.copy_from(&self.cur_slots);
                prog.apply_pure(&mut self.next_slots, &sem.programs.map, &mut self.vm)
                    .map_err(|e| eval_err(sem.net.transition(ct.id), e))?;
                let env = self.next_slots.to_env(&sem.programs.map);
                (intern.env(&env)?, true)
            }
        };
        match &sem.ticks {
            None => {
                self.fire(sem.net, ct, true)?;
                self.next_inflight.clear();
                self.next_enabling.clear();
            }
            Some(ticks) => {
                let slots = if acted {
                    &self.next_slots
                } else {
                    &self.cur_slots
                };
                let ft = sem.delay(
                    ticks.firing[ti],
                    sem.programs.transitions[ti].firing.as_ref(),
                    ct.id,
                    slots,
                    &mut self.vm,
                )?;
                self.fire(sem.net, ct, ft == 0)?;
                self.next_inflight.clear();
                self.next_inflight.extend_from_slice(&self.cur_inflight);
                if ft != 0 {
                    self.next_inflight.push((ct.id, ft));
                    self.next_inflight.sort_unstable();
                }
                self.compute_next_enabling(sem, ticks, acted, Some(ct.id), 0)?;
            }
        }
        intern.state(self, env)
    }

    /// Let `dt` ticks pass and intern the successor: firings whose
    /// remaining time is `dt` complete and deliver their outputs, the
    /// rest count down, and the enabling clocks are recomputed.
    fn advance<I: Intern>(
        &mut self,
        sem: &Semantics<'_>,
        ticks: &TimedTicks,
        intern: &mut I,
        env_id: u32,
        dt: u64,
    ) -> Result<I::Target, ReachError> {
        self.begin_next();
        self.next_inflight.clear();
        for i in 0..self.cur_inflight.len() {
            let (tid, r) = self.cur_inflight[i];
            if r == dt {
                self.deliver_outputs(sem.net.transition(tid))?;
            } else {
                self.next_inflight.push((tid, r - dt));
            }
        }
        self.next_inflight.sort_unstable();
        self.compute_next_enabling(sem, ticks, false, None, dt)?;
        intern.state(self, I::committed_env(env_id))
    }

    /// Recompute the enabling-clock multiset of the successor under
    /// construction (`next_marking` + `next_inflight` + its environment:
    /// `next_slots` if an action ran, `cur_slots` otherwise) into
    /// `next_enabling`, mirroring the simulator's `refresh_enabling`:
    ///
    /// * a transition with a (possibly per-state) enabling delay gets
    ///   an entry iff it is *ready* in the successor (marking-enabled,
    ///   inhibitors clear, concurrency cap not reached, predicate
    ///   true) — constant-0 delays are never clocked at all;
    /// * a ready transition that was already counting down in the
    ///   current state keeps its clock, minus `elapsed` ticks for an
    ///   `Advance` edge (readiness cannot change mid-interval — the
    ///   marking only moves at the endpoints); expression delays are
    ///   *not* re-resolved while continuously ready, exactly like the
    ///   simulator;
    /// * the transition that just `fired` (if any) re-arms from a fresh
    ///   delay resolution — a firing always ends its own enabling
    ///   interval;
    /// * a newly ready transition starts a fresh clock, resolving an
    ///   expression delay against the environment at arm time.
    ///
    /// Entries come out sorted by transition id because `compiled` is
    /// iterated in id order.
    fn compute_next_enabling(
        &mut self,
        sem: &Semantics<'_>,
        ticks: &TimedTicks,
        acted: bool,
        fired: Option<TransitionId>,
        elapsed: u64,
    ) -> Result<(), ReachError> {
        let slots = if acted {
            &self.next_slots
        } else {
            &self.cur_slots
        };
        self.next_enabling.clear();
        for (ti, ct) in sem.compiled.iter().enumerate() {
            if ticks.enabling[ti] == Some(0) {
                continue;
            }
            let ready = ct
                .needs
                .iter()
                .all(|&(p, w)| self.next_marking[p as usize] >= w)
                && ct
                    .inhib
                    .iter()
                    .all(|&(p, th)| self.next_marking[p as usize] < th)
                && ct
                    .cap
                    .is_none_or(|cap| count_of(&self.next_inflight, ct.id) < cap);
            if !ready {
                continue;
            }
            if ct.has_predicate && !sem.predicate_holds(ti, ct, slots, &mut self.vm)? {
                continue;
            }
            let running = match self.cur_enabling.iter().find(|&&(x, _)| x == ct.id) {
                Some(&(_, k)) if fired != Some(ct.id) => Some(k - elapsed),
                _ => None,
            };
            let countdown = match running {
                Some(k) => k,
                None => sem.delay(
                    ticks.enabling[ti],
                    sem.programs.transitions[ti].enabling.as_ref(),
                    ct.id,
                    slots,
                    &mut self.vm,
                )?,
            };
            self.next_enabling.push((ct.id, countdown));
        }
        Ok(())
    }

    /// Add `t`'s output tokens to the scratch successor.
    fn deliver_outputs(&mut self, t: &Transition) -> Result<(), ReachError> {
        for &(p, w) in t.outputs() {
            let p = p.index();
            let old = self.next_marking[p];
            let new = old
                .checked_add(w)
                .ok_or_else(|| ReachError::MarkingCorrupt {
                    transition: t.name().to_string(),
                    detail: "token count overflowed u32",
                })?;
            self.next_marking[p] = new;
            self.next_hash = self
                .next_hash
                .wrapping_sub(StateStore::marking_elem_hash(p, old))
                .wrapping_add(StateStore::marking_elem_hash(p, new));
        }
        Ok(())
    }
}

/// Per-level observability. `level` is 1-based and `width` is the state
/// count of the level just completed; levels are the same at every job
/// count, so so are these metrics. The heartbeat line is built from
/// deterministic quantities only, so a fixed run configuration always
/// prints the same lines.
fn note_level(store: &StateStore, level: u64, width: usize, budget: usize) {
    obs::metrics::REACH_LEVELS.inc();
    obs::metrics::REACH_FRONTIER_WIDTH.record(width as u64);
    obs::metrics::REACH_PEAK_FRONTIER.set_max(width as u64);
    obs::heartbeat(level, || {
        format!(
            "reach level {level}: {} states, frontier {width}, resident {} / {}, faults {}",
            store.len(),
            obs::bytes::format_bytes(store.resident_arena_bytes() as u64),
            obs::bytes::format_bytes(budget as u64),
            obs::metrics::PAGER_FAULTS.get(),
        )
    });
}

/// Build the reachability graph (untimed when `ticks` is `None`, timed
/// otherwise): intern the initial state, then let [`drive_levels`]
/// explore the rest.
fn build(
    net: &Net,
    options: &ReachOptions,
    ticks: Option<TimedTicks>,
) -> Result<ReachabilityGraph, ReachError> {
    check_deterministic(net)?;
    let _span = obs::span("build");
    let places = net.place_count();
    let mut store = StateStore::with_config(places, &options.pager_config());
    let initial_env = store.intern_env(net.initial_env())?;
    let sem = Semantics {
        net,
        compiled: compile(net),
        programs: bc::CompiledNet::compile(net).map_err(ReachError::Compile)?,
        ticks,
    };
    let mut sc = Scratch::new(places);
    sc.arm_initial(&sem, &store, initial_env)?;
    store.intern(
        net.initial_marking().as_slice(),
        initial_env,
        &[],
        &sc.next_enabling,
    )?;
    let mut edges = PagedEdges::new(
        store.seg_states(),
        store.pager_shared(),
        options.spill_dir.clone(),
    );
    drive_levels(&sem, sc, &mut store, &mut edges, options)?;
    debug_assert_eq!(edges.row_count(), store.len(), "one edge row per state");
    // Final squeeze back under budget (a no-op unless the last appends
    // left the arenas over); also the "seal" phase boundary for the
    // span hierarchy.
    let _seal = obs::span("seal");
    store.maintain()?;
    Ok(ReachabilityGraph { store, edges })
}

/// The level driver: explore breadth-first, one level at a time,
/// starting from the initial state. Every level runs the same
/// [`Scratch::expand`]; the job count only decides which levels are
/// split across workers, and the graph is bit-identical either way (see
/// [`crate::store`]). `sc` is the scratch the inline levels share.
fn drive_levels(
    sem: &Semantics<'_>,
    mut sc: Scratch,
    store: &mut StateStore,
    edges: &mut PagedEdges,
    options: &ReachOptions,
) -> Result<(), ReachError> {
    let (jobs, max_states) = (options.effective_jobs(), options.max_states);
    let mut level = 0..1;
    let mut levels = 0u64;
    while !level.is_empty() {
        if jobs == 1 || level.len() < jobs * SPAWN_THRESHOLD_PER_JOB {
            expand_inline(sem, &mut sc, store, edges, level.clone(), max_states)?;
        } else {
            expand_split(sem, jobs, store, edges, level.clone(), max_states)?;
        }
        levels += 1;
        note_level(store, levels, level.len(), options.mem_budget);
        level = level.end..store.len();
    }
    Ok(())
}

/// At two or more jobs, a level narrower than `jobs ×
/// SPAWN_THRESHOLD_PER_JOB` states runs inline as one chunk, as every
/// level does at one job: spawning would cost more than it saves, and
/// interning in place needs no buffers or barrier commit.
const SPAWN_THRESHOLD_PER_JOB: usize = 48;

/// Expand a one-chunk level in place: each successor is interned
/// straight into the store (appending to the next level), and each row
/// is appended as its source finishes.
fn expand_inline(
    sem: &Semantics<'_>,
    sc: &mut Scratch,
    store: &mut StateStore,
    edges: &mut PagedEdges,
    level: Range<usize>,
    max_states: usize,
) -> Result<(), ReachError> {
    let mut row: Vec<Edge> = Vec::new();
    for src in level {
        // Loading may fault `src`'s segment back in; evicting right away
        // keeps the resident envelope at most one segment above the
        // budget between interns.
        let env_id = sc.load(sem, store, src)?;
        store.maintain()?;
        row.clear();
        let mut committed = Committed {
            store: &mut *store,
            max_states,
        };
        sc.expand(sem, &mut committed, env_id, &mut row)?;
        // The edge arena evicts itself back under budget per row.
        edges.push_row(&row)?;
    }
    Ok(())
}

/// What one worker of a split level hands to the barrier.
struct ChunkOutput {
    /// The states and environments it found that the committed store
    /// lacks.
    buffer: LevelBuffer,
    /// The edge rows of its sources, concatenated in source order.
    targets: Vec<(EdgeLabel, RawTarget)>,
    /// Where each source's row ends in `targets`.
    row_ends: Vec<usize>,
    /// The first error, which stopped the worker.
    error: Option<ReachError>,
}

/// Expand one contiguous chunk of a split level against the frozen
/// store, stopping at the first error.
fn explore_chunk(sem: &Semantics<'_>, store: &StateStore, chunk: Range<usize>) -> ChunkOutput {
    let mut sc = Scratch::new(sem.net.place_count());
    let mut out = ChunkOutput {
        buffer: LevelBuffer::new(store.places()),
        targets: Vec::new(),
        row_ends: Vec::with_capacity(chunk.len()),
        error: None,
    };
    for src in chunk {
        let mut buffered = Buffered {
            store,
            buffer: &mut out.buffer,
        };
        let expanded = sc
            .load(sem, store, src)
            .and_then(|env_id| sc.expand(sem, &mut buffered, env_id, &mut out.targets));
        if let Err(e) = expanded {
            out.error = Some(e);
            break;
        }
        out.row_ends.push(out.targets.len());
    }
    out
}

/// Split `level` into at most `jobs` contiguous chunks of near-equal
/// size, in frontier order.
fn split_chunks(level: Range<usize>, jobs: usize) -> Vec<Range<usize>> {
    let n = level.len();
    let per = n.div_ceil(jobs);
    (0..jobs)
        .map(|w| {
            let start = level.start + (w * per).min(n);
            let end = level.start + ((w + 1) * per).min(n);
            start..end
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// Expand a level across `jobs` scoped workers, then commit their
/// buffers and rows at the barrier, in worker order (see
/// [`crate::store`] for why that order is the one-chunk order).
fn expand_split(
    sem: &Semantics<'_>,
    jobs: usize,
    store: &mut StateStore,
    edges: &mut PagedEdges,
    level: Range<usize>,
    max_states: usize,
) -> Result<(), ReachError> {
    let frozen = &*store;
    let outputs: Vec<ChunkOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = split_chunks(level, jobs)
            .into_iter()
            .map(|chunk| scope.spawn(move || explore_chunk(sem, frozen, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut row: Vec<Edge> = Vec::new();
    for out in outputs {
        let state_map = store.commit_buffer(&out.buffer, max_states)?;
        if let Some(e) = out.error {
            return Err(e);
        }
        let mut start = 0;
        for &end in &out.row_ends {
            row.clear();
            row.extend(out.targets[start..end].iter().map(|&(label, target)| {
                let target = match target {
                    RawTarget::Committed(i) => i,
                    RawTarget::Pending(p) => state_map[p as usize],
                };
                (label, target)
            }));
            edges.push_row(&row)?;
            start = end;
        }
    }
    // Workers may have faulted cold state segments in (read-only loads
    // cannot evict); squeeze back under budget before the next level.
    store.maintain()
}

/// Build the untimed (classical occurrence semantics) reachability
/// graph: each enabled transition fires atomically.
///
/// # Errors
///
/// See [`ReachError`]; most commonly [`ReachError::StateLimit`] for
/// unbounded nets.
pub fn build_untimed(net: &Net, options: &ReachOptions) -> Result<ReachabilityGraph, ReachError> {
    build(net, options, None)
}

/// Build the timed reachability graph: states extend the `[RP84]` pair
/// (marking, in-flight firings with remaining times) with **enabling
/// clocks** — one countdown per ready transition with a non-zero
/// enabling delay, mirroring the simulator's continuous-enabling rule
/// (the clock arms when the transition becomes ready, resets when
/// readiness is lost or the transition itself fires). From each state
/// either an eligible transition starts firing (marking-enabled, under
/// its concurrency cap, predicate true, enabling clock expired), or —
/// when nothing can start — time advances to the earliest pending
/// event, a firing completion or an enabling deadline.
///
/// Both delay kinds may be constants or deterministic expressions
/// (`irand` is already rejected by the determinism check): firing
/// times resolve per state against the post-action environment (the
/// paper's §3 table-driven idiom), and enabling times resolve per
/// state against the environment *at arm time* — the moment the
/// transition becomes ready — exactly as the simulator's
/// `refresh_enabling` does, so a constant-valued expression is
/// indistinguishable from the constant itself (pinned by the
/// desugaring test in `tests/semantics.rs`).
///
/// # Errors
///
/// See [`ReachError`].
pub fn build_timed(net: &Net, options: &ReachOptions) -> Result<ReachabilityGraph, ReachError> {
    build(net, options, Some(TimedTicks::new(net)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;

    fn ring(tokens: u32) -> Net {
        let mut b = NetBuilder::new("ring");
        b.place("a", tokens);
        b.place("b", 0);
        b.transition("ab").input("a").output("b").add();
        b.transition("ba").input("b").output("a").add();
        b.build().unwrap()
    }

    #[test]
    fn untimed_ring_has_expected_states() {
        let net = ring(1);
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.deadlocks().unwrap().is_empty());
        assert_eq!(g.place_bounds().unwrap(), vec![1, 1]);
        assert!(g.ever_fires(net.transition_id("ab").unwrap()).unwrap());
    }

    #[test]
    fn untimed_counts_multi_token_interleavings() {
        let net = ring(2);
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        // Markings: (2,0), (1,1), (0,2).
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.place_bounds().unwrap(), vec![2, 2]);
    }

    #[test]
    fn deadlock_detected() {
        let mut b = NetBuilder::new("dead");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("t").input("a").output("b").add();
        let net = b.build().unwrap();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.deadlocks().unwrap().len(), 1);
        let d = g.deadlocks().unwrap()[0];
        assert_eq!(
            g.state(d)
                .unwrap()
                .marking
                .tokens(net.place_id("b").unwrap()),
            1
        );
    }

    #[test]
    fn unbounded_net_hits_state_limit() {
        let mut b = NetBuilder::new("unbounded");
        b.place("p", 0);
        b.transition("gen").output("p").add();
        let net = b.build().unwrap();
        let opts = ReachOptions {
            max_states: 50,
            ..ReachOptions::default()
        };
        let e = build_untimed(&net, &opts).unwrap_err();
        assert_eq!(e, ReachError::StateLimit { limit: 50 });
        // The parallel builder reports the same deterministic limit.
        let par = ReachOptions { jobs: 4, ..opts };
        assert_eq!(build_untimed(&net, &par).unwrap_err(), e);
        // Degenerate caps (at or below the always-admitted initial
        // state) error identically in both builders instead of
        // panicking.
        for max_states in [0, 1] {
            let tight = ReachOptions {
                max_states,
                ..ReachOptions::default()
            };
            let seq = build_untimed(&net, &tight).unwrap_err();
            assert_eq!(seq, ReachError::StateLimit { limit: max_states });
            let par = ReachOptions { jobs: 4, ..tight };
            assert_eq!(build_untimed(&net, &par).unwrap_err(), seq);
        }
        // A deadlocked initial state never attempts an intern, so even
        // `max_states: 0` succeeds — in both builders.
        let mut b = NetBuilder::new("stuck");
        b.place("p", 0);
        b.transition("t").input("p").add();
        let stuck = b.build().unwrap();
        for jobs in [1, 4] {
            let opts = ReachOptions {
                max_states: 0,
                jobs,
                ..ReachOptions::default()
            };
            let g = build_untimed(&stuck, &opts).unwrap();
            assert_eq!(g.state_count(), 1, "jobs = {jobs}");
        }
    }

    #[test]
    fn random_nets_rejected() {
        let mut b = NetBuilder::new("r");
        b.place("p", 1);
        b.var("x", 0);
        b.transition("t")
            .input("p")
            .output("p")
            .action_str("x = irand(0, 1);")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        assert_eq!(
            build_untimed(&net, &ReachOptions::default()).unwrap_err(),
            ReachError::UsesRandom
        );
    }

    #[test]
    fn predicates_prune_untimed_edges() {
        let mut b = NetBuilder::new("p");
        b.place("p", 1);
        b.place("q", 0);
        b.var("gate", 0);
        b.transition("blocked")
            .input("p")
            .output("q")
            .predicate_str("gate == 1")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 1, "gate closed: nothing reachable");
        assert_eq!(g.deadlocks().unwrap(), vec![0]);
    }

    #[test]
    fn actions_differentiate_states() {
        // Same marking, different variable values → distinct states.
        let mut b = NetBuilder::new("v");
        b.place("p", 1);
        b.var("n", 0);
        b.transition("inc")
            .input("p")
            .output("p")
            .predicate_str("n < 3")
            .unwrap()
            .action_str("n = n + 1;")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        let mut g = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 4, "n in 0..=3");
        assert_eq!(g.deadlocks().unwrap().len(), 1);
        // The four states share nothing but still intern four distinct
        // environments (n = 0..=3).
        assert_eq!(g.store().env_count(), 4);
    }

    #[test]
    fn actionless_nets_intern_one_environment() {
        let g = build_untimed(&ring(2), &ReachOptions::default()).unwrap();
        assert_eq!(g.store().env_count(), 1, "no actions → one shared env");
    }

    #[test]
    fn timed_graph_tracks_in_flight() {
        let mut b = NetBuilder::new("t");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("work").input("a").output("b").firing(3).add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        // (a=1), (in flight, 3 left), (b=1).
        assert_eq!(g.state_count(), 3);
        let mid = g.state(1).unwrap();
        assert_eq!(mid.in_flight.len(), 1);
        assert_eq!(mid.in_flight[0].1, 3);
        // The advance edge carries the delay.
        assert!(g
            .successors(1)
            .unwrap()
            .iter()
            .any(|&(l, _)| l == EdgeLabel::Advance(3)));
    }

    #[test]
    fn timed_interleaves_concurrent_firings() {
        let mut b = NetBuilder::new("t2");
        b.place("a", 2);
        b.place("b", 0);
        b.transition("work").input("a").output("b").firing(2).add();
        let net = b.build().unwrap();
        let mut g = build_timed(&net, &ReachOptions::default()).unwrap();
        // Both tokens must start before time advances (maximal progress):
        // (2,0,[]) -> (1,0,[2]) -> (0,0,[2,2]) -> (0,2,[]) done.
        assert_eq!(g.state_count(), 4);
        assert!(
            g.deadlocks().unwrap().len() == 1,
            "final state is quiescent"
        );
    }

    #[test]
    fn timed_graph_respects_concurrency_caps() {
        let mut b = NetBuilder::new("cap");
        b.place("q", 2);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .firing(2)
            .max_concurrent(1)
            .add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        for i in 0..g.state_count() {
            let inflight = g.state(i).unwrap().in_flight.len();
            assert!(inflight <= 1, "state {i} has {inflight} concurrent serves");
        }
    }

    #[test]
    fn timed_enabling_delays_start_without_removing_tokens() {
        // The graph counterpart of the simulator's
        // `enabling_time_delays_start_without_removing_tokens`: the
        // token stays on `a` while the clock runs; the move is atomic
        // once the deadline passes.
        let mut b = NetBuilder::new("e");
        b.place("a", 1);
        b.place("b", 0);
        b.transition("t").input("a").output("b").enabling(4).add();
        let net = b.build().unwrap();
        let mut g = build_timed(&net, &ReachOptions::default()).unwrap();
        // (a=1, clock 4) --Advance(4)--> (a=1, clock 0) --Fire--> (b=1).
        assert_eq!(g.state_count(), 3);
        assert_eq!(
            g.state(0).unwrap().enabling,
            &[(net.transition_id("t").unwrap(), 4)]
        );
        assert_eq!(g.state(0).unwrap().marking.as_slice(), &[1, 0]);
        assert!(g
            .successors(0)
            .unwrap()
            .iter()
            .any(|&(l, _)| l == EdgeLabel::Advance(4)));
        assert_eq!(
            g.state(1).unwrap().enabling,
            &[(net.transition_id("t").unwrap(), 0)]
        );
        assert_eq!(
            g.state(1).unwrap().marking.as_slice(),
            &[1, 0],
            "token not yet moved"
        );
        assert_eq!(g.state(2).unwrap().marking.as_slice(), &[0, 1]);
        assert!(g.state(2).unwrap().enabling.is_empty());
        assert_eq!(g.deadlocks().unwrap(), vec![2]);
    }

    #[test]
    fn timed_enabling_clock_resets_when_disabled() {
        // The graph counterpart of the simulator's
        // `enabling_clock_resets_when_disabled`: `thief` (enabling 2,
        // firing 2) keeps stealing the shared token before `slow`
        // (enabling 3) ever expires, and slow's clock restarts from 3
        // each round — so `slow` never fires anywhere in the graph.
        let mut b = NetBuilder::new("steal");
        b.place("shared", 1);
        b.place("out_slow", 0);
        b.transition("thief")
            .input("shared")
            .output("shared")
            .enabling(2)
            .firing(2)
            .add();
        b.transition("slow")
            .input("shared")
            .output("out_slow")
            .enabling(3)
            .add();
        let net = b.build().unwrap();
        let mut g = build_timed(&net, &ReachOptions::default()).unwrap();
        let thief = net.transition_id("thief").unwrap();
        let slow = net.transition_id("slow").unwrap();
        // Cycle: (clocks 2/3) --A(2)--> (clocks 0/1) --Fire(thief)-->
        // (token in flight, no clocks) --A(2)--> back to the start.
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.state(0).unwrap().enabling, &[(thief, 2), (slow, 3)]);
        assert_eq!(g.state(1).unwrap().enabling, &[(thief, 0), (slow, 1)]);
        assert!(
            g.state(2).unwrap().enabling.is_empty(),
            "token stolen: no clocks"
        );
        assert!(g.ever_fires(thief).unwrap());
        assert!(
            !g.ever_fires(slow).unwrap(),
            "slow's clock must reset each round"
        );
    }

    #[test]
    fn timed_enabling_advances_without_in_flight_firings() {
        // A pure enabling wait (no in-flight firing anywhere): the
        // advance rule must jump on enabling deadlines alone, and the
        // firing itself re-arms the clock for the next round.
        let mut b = NetBuilder::new("pulse");
        b.place("p", 1);
        b.transition("tick")
            .input("p")
            .output("p")
            .enabling(5)
            .add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        // (clock 5) --A(5)--> (clock 0) --Fire--> (clock 5, re-armed).
        assert_eq!(g.state_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g
            .successors(0)
            .unwrap()
            .iter()
            .any(|&(l, _)| l == EdgeLabel::Advance(5)));
        assert_eq!(
            g.successors(1).unwrap(),
            &[(EdgeLabel::Fire(net.transition_id("tick").unwrap()), 0)],
            "firing re-arms the clock back to the initial state"
        );
    }

    #[test]
    fn parallel_timed_enabling_is_bit_identical_to_sequential() {
        let mut b = NetBuilder::new("mix");
        b.place("q", 3);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .enabling(2)
            .firing(3)
            .max_concurrent(2)
            .add();
        b.transition("recycle")
            .input("done")
            .output("q")
            .enabling(1)
            .firing(2)
            .add();
        let net = b.build().unwrap();
        let seq = build_timed(&net, &ReachOptions::default()).unwrap();
        assert!(
            (0..seq.state_count()).any(|i| !seq.state(i).unwrap().enabling.is_empty()),
            "the model must actually exercise enabling clocks"
        );
        for jobs in [2, 4, 8] {
            let opts = ReachOptions {
                jobs,
                ..ReachOptions::default()
            };
            assert_eq!(build_timed(&net, &opts).unwrap(), seq, "jobs = {jobs}");
        }
    }

    #[test]
    fn timed_resolves_expression_enabling_times_per_state() {
        // A table-driven enabling delay: the action advances `ty`, the
        // enabling time reads `dtab[ty]` — each re-arming must resolve
        // against the environment of the state doing the arming, so the
        // clock values 2 and 5 both appear in the reachable state
        // space (the pre-PR engine rejected this net outright).
        let mut b = NetBuilder::new("entab");
        b.place("p", 1);
        b.var("ty", 0);
        b.table("dtab", vec![2, 5]);
        b.transition("step")
            .input("p")
            .output("p")
            .predicate_str("ty < 2")
            .unwrap()
            .action_str("ty = ty + 1;")
            .unwrap()
            .enabling_expr(pnut_core::Expr::parse("dtab[ty]").unwrap())
            .add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        let step = net.transition_id("step").unwrap();
        let mut armed = std::collections::BTreeSet::new();
        for i in 0..g.state_count() {
            for &(t, k) in g.state(i).unwrap().enabling {
                assert_eq!(t, step);
                armed.insert(k);
            }
        }
        assert!(
            armed.contains(&2) && armed.contains(&5),
            "both table delays must arm: {armed:?}"
        );
        // The parallel build agrees bit-for-bit.
        let par = build_timed(
            &net,
            &ReachOptions {
                jobs: 4,
                ..ReachOptions::default()
            },
        )
        .unwrap();
        assert_eq!(par, g);
        // Nondeterministic enabling expressions are still rejected, by
        // the determinism check that guards all of reachability.
        let mut b = NetBuilder::new("rnd");
        b.place("p", 1);
        b.transition("t")
            .input("p")
            .enabling_expr(pnut_core::Expr::parse("irand(1, 3)").unwrap())
            .add();
        let net = b.build().unwrap();
        assert_eq!(
            build_timed(&net, &ReachOptions::default()).unwrap_err(),
            ReachError::UsesRandom
        );
    }

    #[test]
    fn timed_resolves_expression_firing_times_per_state() {
        // The paper's §3 idiom: the action picks a type, the firing time
        // reads a table — the resolved delay must follow the state.
        let mut b = NetBuilder::new("table");
        b.place("go", 2);
        b.place("done", 0);
        b.var("ty", 0);
        b.table("delays", vec![3, 7]);
        b.transition("work")
            .input("go")
            .output("done")
            .predicate_str("ty < 2")
            .unwrap()
            .action_str("ty = ty + 1;")
            .unwrap()
            .firing_expr(pnut_core::Expr::parse("delays[ty - 1]").unwrap())
            .add();
        let net = b.build().unwrap();
        let g = build_timed(&net, &ReachOptions::default()).unwrap();
        let work = net.transition_id("work").unwrap();
        // Both resolved delays appear as in-flight remaining times.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..g.state_count() {
            for &(t, r) in g.state(i).unwrap().in_flight {
                assert_eq!(t, work);
                seen.insert(r);
            }
        }
        assert!(
            seen.contains(&3) && seen.contains(&7),
            "delays seen: {seen:?}"
        );
        // And the parallel build agrees bit-for-bit.
        let par = build_timed(
            &net,
            &ReachOptions {
                jobs: 4,
                ..ReachOptions::default()
            },
        )
        .unwrap();
        assert_eq!(par, g);
    }

    #[test]
    fn duplicate_input_arcs_merge_and_cannot_underflow() {
        // NetBuilder merges duplicate arcs, so two weight-1 inputs from
        // one place require 2 tokens — with only 1 the transition is
        // disabled outright (the seed checked each arc in isolation,
        // considered it enabled, then underflowed under a bare
        // debug_assert!). With 2 tokens it fires normally.
        let dup = |tokens| {
            let mut b = NetBuilder::new("dup");
            b.place("p", tokens);
            b.place("q", 0);
            b.transition("t").input("p").input("p").output("q").add();
            b.build().unwrap()
        };
        let mut g = build_untimed(&dup(1), &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 1, "merged arcs need 2 tokens");
        assert_eq!(g.deadlocks().unwrap(), vec![0]);

        let g = build_untimed(&dup(2), &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 2);
        let fired = g.state(1).unwrap();
        assert_eq!(fired.marking.as_slice(), &[0, 1]);
    }

    #[test]
    fn csr_rows_partition_the_edge_list() {
        let net = ring(2);
        let g = build_untimed(&net, &ReachOptions::default()).unwrap();
        let total: usize = (0..g.state_count())
            .map(|i| g.successors(i).unwrap().len())
            .sum();
        assert_eq!(total, g.edge_count());
        for i in 0..g.state_count() {
            for &(_, target) in g.successors(i).unwrap() {
                assert!((target as usize) < g.state_count());
            }
        }
    }

    #[test]
    fn rebuilds_are_bit_identical() {
        let net = ring(3);
        let a = build_untimed(&net, &ReachOptions::default()).unwrap();
        let b = build_untimed(&net, &ReachOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    /// A net whose levels are wide in *environments*: two independent
    /// bounded counters, so level `L` holds every `(a, b)` with
    /// `a + b = L` and each level mints several environments at once,
    /// which every job count must number in the same order.
    fn env_grid() -> Net {
        let mut b = NetBuilder::new("grid");
        b.place("p", 1);
        b.var("a", 0);
        b.var("b", 0);
        b.transition("ia")
            .input("p")
            .output("p")
            .predicate_str("a < 4")
            .unwrap()
            .action_str("a = a + 1;")
            .unwrap()
            .add();
        b.transition("ib")
            .input("p")
            .output("p")
            .predicate_str("b < 4")
            .unwrap()
            .action_str("b = b + 1;")
            .unwrap()
            .add();
        b.build().unwrap()
    }

    #[test]
    fn parallel_untimed_is_bit_identical_to_sequential() {
        for net in [ring(3), env_grid()] {
            let seq = build_untimed(&net, &ReachOptions::default()).unwrap();
            for jobs in [2, 4, 8] {
                let opts = ReachOptions {
                    jobs,
                    ..ReachOptions::default()
                };
                let par = build_untimed(&net, &opts).unwrap();
                assert_eq!(par, seq, "jobs = {jobs} diverged on `{}`", net.name());
            }
        }
    }

    #[test]
    fn parallel_timed_is_bit_identical_to_sequential() {
        let mut b = NetBuilder::new("cap");
        b.place("q", 3);
        b.place("done", 0);
        b.transition("serve")
            .input("q")
            .output("done")
            .firing(2)
            .max_concurrent(2)
            .add();
        b.transition("recycle")
            .input("done")
            .output("q")
            .firing(3)
            .add();
        let net = b.build().unwrap();
        let seq = build_timed(&net, &ReachOptions::default()).unwrap();
        for jobs in [2, 4, 8] {
            let opts = ReachOptions {
                jobs,
                ..ReachOptions::default()
            };
            assert_eq!(build_timed(&net, &opts).unwrap(), seq, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_env_interning_matches_sequential_ids() {
        // Environment *ids* (not just contents) must line up, since the
        // store compares `env_ids` arenas for equality.
        let net = env_grid();
        let seq = build_untimed(&net, &ReachOptions::default()).unwrap();
        let par = build_untimed(
            &net,
            &ReachOptions {
                jobs: 8,
                ..ReachOptions::default()
            },
        )
        .unwrap();
        assert_eq!(seq.store().env_count(), 25, "5×5 counter grid");
        for i in 0..seq.state_count() {
            assert_eq!(
                seq.store().try_env_id(i).unwrap(),
                par.store().try_env_id(i).unwrap(),
                "state {i}"
            );
        }
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        let opts = ReachOptions {
            jobs: 0,
            ..ReachOptions::default()
        };
        assert!(opts.effective_jobs() >= 1);
        let net = ring(2);
        let auto = build_untimed(&net, &opts).unwrap();
        assert_eq!(auto, build_untimed(&net, &ReachOptions::default()).unwrap());
    }
}
