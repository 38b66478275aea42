//! Per-layer figures from the traced passes.
//!
//! A traced run alternates untraced and traced passes of the same
//! workload. Traced passes record spans — the benchmark's own around each
//! public call it makes (`table.*`, `build.*`, `serve.stream`, ...) plus
//! the spans the program already emits (`lab.*`, `farm.*`, `stage.*`,
//! `pass.*`, `serve.*`) — which are drained after every pass and folded
//! in here. Untraced passes give the baseline for `trace.overhead`.

use crate::host;
use crate::stats::{median, ns_since};
use pibe_trace::{SpanRecord, TraceData};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// The name of the thread every workload drives its calls from.
const MAIN_TRACK: &str = "main";

/// Accumulates per-layer figures across a run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Whether this run records traces at all (`--trace 1`).
    enabled: bool,
    /// Span durations by name, over every track of every traced pass.
    spans: BTreeMap<String, Vec<u64>>,
    /// Sum and count of every recorded value histogram, by name.
    hists: BTreeMap<String, (u64, u64)>,
    /// Root-span time on the main track, over traced passes.
    covered_ns: u64,
    traced_wall_ns: Vec<u64>,
    untraced_wall_ns: Vec<u64>,
    /// Peak RSS of every pass, traced or not.
    pass_rss_mb: Vec<f64>,
    /// Figures the workloads set directly.
    values: Metrics,
}

impl Layers {
    /// A sink for a run with tracing on or off.
    pub fn new(enabled: bool) -> Self {
        Layers {
            enabled,
            ..Layers::default()
        }
    }

    /// Runs pass number `pass` and records its peak RSS. In a traced run,
    /// odd passes are traced and even ones are the untraced baseline; the
    /// traced pass's recording is folded in and also handed back.
    pub fn pass<R>(&mut self, pass: usize, f: impl FnOnce() -> R) -> (R, Option<TraceData>) {
        let traced = self.enabled && pass % 2 == 1;
        if traced {
            pibe_trace::set_enabled(true);
            pibe_trace::set_track_name(MAIN_TRACK);
        }
        host::reset_peak_rss();
        let t = Instant::now();
        let out = f();
        let wall = ns_since(t);
        self.pass_rss_mb.push(host::peak_rss_mb());
        pibe_trace::set_enabled(false);
        if !self.enabled {
            return (out, None);
        }
        if !traced {
            self.untraced_wall_ns.push(wall);
            return (out, None);
        }
        let data = pibe_trace::take();
        self.traced_wall_ns.push(wall);
        self.covered_ns += root_spans(&data).map(|s| s.dur_ns).sum::<u64>();
        for s in &data.spans {
            self.spans
                .entry(s.name.to_string())
                .or_default()
                .push(s.dur_ns);
        }
        for (name, h) in &data.histograms {
            let e = self.hists.entry(name.clone()).or_default();
            e.0 += h.sum;
            e.1 += h.count;
        }
        (out, Some(data))
    }

    /// Whether the next call of [`Layers::pass`] with `pass` is traced.
    pub fn traced(&self, pass: usize) -> bool {
        self.enabled && pass % 2 == 1
    }

    /// Durations (ns) of every traced span called `name`.
    fn durations(&self, name: &str) -> &[u64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration of the spans called `name`, in ms (0 if none ran).
    pub fn median_span_ms(&self, name: &str) -> f64 {
        median(
            &self
                .durations(name)
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean recorded value of histogram `name`, or 0.
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.hists
            .get(name)
            .filter(|(_, n)| *n > 0)
            .map_or(0.0, |(sum, n)| *sum as f64 / *n as f64)
    }

    /// Each pass's peak resident set, in MiB: the memory the timed work
    /// needs, whatever set-up left behind.
    pub fn pass_rss_mb(&self) -> Vec<f64> {
        self.pass_rss_mb.clone()
    }

    /// Sets a per-layer figure.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The per-layer figures, with the two tracing figures added:
    /// `trace.coverage`, the share of traced wall time spent inside named
    /// root spans on the main track, and `trace.overhead`, the median
    /// traced pass over the median untraced pass, minus one.
    pub fn finish(mut self) -> Metrics {
        let traced: u64 = self.traced_wall_ns.iter().sum();
        if traced > 0 {
            self.values.insert(
                "trace.coverage".into(),
                self.covered_ns as f64 / traced as f64,
            );
        }
        let as_f = |v: &[u64]| v.iter().map(|&n| n as f64).collect::<Vec<_>>();
        let (t, u) = (
            median(&as_f(&self.traced_wall_ns)),
            median(&as_f(&self.untraced_wall_ns)),
        );
        if t > 0.0 && u > 0.0 {
            self.values.insert("trace.overhead".into(), t / u - 1.0);
        }
        self.values
    }
}

/// Index of the main track in `data`, if it recorded anything.
fn main_track(data: &TraceData) -> Option<u32> {
    data.tracks
        .iter()
        .position(|t| t == MAIN_TRACK)
        .map(|i| i as u32)
}

/// Depth-0 spans on the main track.
fn root_spans(data: &TraceData) -> impl Iterator<Item = &SpanRecord> {
    let main = main_track(data);
    data.spans
        .iter()
        .filter(move |s| Some(s.track) == main && s.depth == 0)
}

/// Total self time of the main-track spans named `outer*`: their
/// duration minus the time of descendants named `inner*` (nested `inner*`
/// spans count once).
pub fn self_ns(data: &TraceData, outer: &str, inner: &str) -> u64 {
    let Some(main) = main_track(data) else {
        return 0;
    };
    let on_main: HashMap<u64, &SpanRecord> = data
        .spans
        .iter()
        .filter(|s| s.track == main)
        .map(|s| (s.id, s))
        .collect();
    let mut covered = 0;
    for s in on_main.values().filter(|s| s.name.starts_with(inner)) {
        let mut parent = on_main.get(&s.parent);
        while let Some(p) = parent {
            if p.name.starts_with(inner) {
                break;
            }
            if p.name.starts_with(outer) {
                covered += s.dur_ns;
                break;
            }
            parent = on_main.get(&p.parent);
        }
    }
    let total: u64 = on_main
        .values()
        .filter(|s| s.name.starts_with(outer))
        .map(|s| s.dur_ns)
        .sum();
    total.saturating_sub(covered)
}
