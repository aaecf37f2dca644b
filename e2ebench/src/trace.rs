//! The traced run's recorder: one span around each public call the
//! benchmark makes into a layer, with the `pnut_obs` counter deltas and
//! the program's own `build` / `markov.*` spans attached. Everything is
//! kept in memory and written out as NDJSON when the run ends.
//!
//! With tracing off, [`Tracer::call`] is a plain function call and the
//! `pnut_obs` recorder stays uninstalled, so untraced runs measure the
//! program alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the task in the run's task list.
    pub task: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `pnut_obs` counter deltas across the call (non-zero only).
    pub counts: Vec<(&'static str, u64)>,
    /// `pnut_obs` gauge values at the end of the call (non-zero only).
    pub gauges: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn count(&self, name: &str) -> u64 {
        lookup(&self.counts, name)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name)
    }
}

fn lookup(pairs: &[(&'static str, u64)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

/// Spans the program records itself, imported as children of the call
/// that ran them (program span name → layer name).
const PROGRAM_SPANS: &[(&str, &str)] = &[
    ("build", "reach.build"),
    ("markov.extract", "markov.extract"),
    ("markov.solve", "markov.solve"),
];

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    task: usize,
    /// Offset of the `pnut_obs` epoch (reset at each task) from ours.
    obs_epoch_ns: u64,
    last: Option<pnut_obs::Snapshot>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            task: 0,
            obs_epoch_ns: 0,
            last: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start task `task`: reset the program's recorder and open the
    /// task's root span.
    pub fn begin_task(&mut self, task: usize) {
        if !self.on {
            return;
        }
        self.task = task;
        pnut_obs::install();
        self.obs_epoch_ns = self.now_ns();
        self.last = Some(pnut_obs::snapshot());
        self.open("task");
    }

    pub fn end_task(&mut self) {
        if !self.on {
            return;
        }
        if let Some(id) = self.stack.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
        pnut_obs::uninstall();
        self.last = None;
    }

    /// Run `f` as the public call `name` of a layer.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.open(name);
        let value = f();
        self.close(id);
        value
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            task: self.task,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: Vec::new(),
            gauges: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.stack.pop();
        let snap = pnut_obs::snapshot();
        let prev = self.last.take().expect("a traced task is open");
        let (start_ns, name) = (self.spans[id].start_ns, self.spans[id].name);
        {
            let span = &mut self.spans[id];
            span.end_ns = end_ns;
            for (&(n, now), &(_, before)) in snap.counters.iter().zip(&prev.counters) {
                if now > before {
                    span.counts.push((n, now - before));
                }
            }
            span.gauges = snap.gauges.iter().filter(|g| g.1 > 0).copied().collect();
        }
        for s in &snap.spans {
            let Some(&(_, layer)) = PROGRAM_SPANS.iter().find(|(p, _)| *p == s.path) else {
                continue;
            };
            let s_start = self.obs_epoch_ns + s.start_ns;
            if layer == name || s_start < start_ns || s_start > end_ns {
                continue;
            }
            self.spans.push(Span {
                name: layer,
                task: self.task,
                parent: Some(id),
                start_ns: s_start,
                end_ns: (s_start + s.dur_ns).min(end_ns),
                counts: Vec::new(),
                gauges: Vec::new(),
            });
        }
        self.last = Some(snap);
    }

    /// Self time of every span: its duration minus the time its
    /// children cover (children of one span never overlap: they run in
    /// sequence on the calling thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per-name totals: (calls, inclusive ns, self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// Sum of counter `counter` over spans named `name`.
    pub fn count(&self, name: &str, counter: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count(counter))
            .sum()
    }

    /// The spans as NDJSON, one object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        let pairs = |v: &[(&str, u64)]| {
            v.iter()
                .map(|(n, c)| format!("\"{n}\":{c}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"task\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"counts\":{{{}}},\"gauges\":{{{}}}}}",
                s.task,
                s.name,
                s.start_ns,
                s.end_ns,
                pairs(&s.counts),
                pairs(&s.gauges)
            );
        }
        out
    }
}
