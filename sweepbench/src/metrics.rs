//! The metric catalog and the per-layer metrics of a traced pass.

use crate::pass::Counters;
use crate::trace::{self_times, Span};
use crate::workload::RING_KS;
use std::collections::BTreeMap;

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics a `--trace 0` run prints, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose share of thread-busy time is reported, keyed by the span
/// names that belong to them.
const SHARE_LAYERS: [&str; 6] = [
    "graph",
    "core.batchring",
    "core.segring",
    "core.segtorus",
    "core.engine",
    "walks",
];

/// The layer a span belongs to: its name up to the layer boundary.
pub fn layer_of(name: &str) -> &str {
    match name {
        "graph.build" | "graph.diameter" => "graph",
        "sweep.batch.plan" => "sweep.batch",
        other => other,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `part / whole`, or 0 when there is no whole (the layer did not run).
fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Count per second of `ns`, or 0 when the layer did not run.
fn rate(count: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        count as f64 / secs(ns)
    }
}

/// Sums over the spans of one name.
#[derive(Default)]
struct Totals {
    calls: u64,
    ns: u64,
    rounds: u64,
    moves: u64,
    edges: u64,
    samples: u64,
    covered: u64,
    cells: u64,
    units: u64,
    bytes: u64,
}

/// Every per-layer metric of one traced pass, in catalog order. `shards`
/// is the sweep's shard-thread count (for driver idle time).
pub fn layer_metrics(spans: &[Span], shards: usize) -> Vec<Metric> {
    let mut by_name: BTreeMap<&str, Totals> = BTreeMap::new();
    let mut by_k: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let t = by_name.entry(s.name).or_default();
        t.calls += 1;
        t.ns += s.duration();
        t.rounds += s.work.rounds;
        t.moves += s.work.moves;
        t.edges += s.work.edges;
        t.samples += s.work.samples;
        t.covered += s.work.covered;
        t.cells += s.work.cells;
        t.units += s.work.units;
        t.bytes += s.work.bytes;
        if s.name == "core.batchring" {
            let e = by_k.entry(s.work.k).or_default();
            e.0 += s.work.moves;
            e.1 += s.duration();
        }
    }
    let empty = Totals::default();
    let t = |name: &str| by_name.get(name).unwrap_or(&empty);
    let (build, diameter) = (t("graph.build"), t("graph.diameter"));
    let mut out = vec![
        metric("graph.builds", "count", build.calls as f64),
        metric("graph.edges", "count", build.edges as f64),
        metric("graph.edges_per_s", "edges/s", rate(build.edges, build.ns)),
        metric("graph.diameter_calls", "count", diameter.calls as f64),
        metric(
            "graph.diameter_calls_per_s",
            "calls/s",
            rate(diameter.calls, diameter.ns),
        ),
    ];
    let b = t("core.batchring");
    out.extend([
        metric("core.batchring.rounds", "count", b.rounds as f64),
        metric("core.batchring.agent_moves", "count", b.moves as f64),
        metric("core.batchring.moves_per_s", "moves/s", rate(b.moves, b.ns)),
    ]);
    for k in RING_KS {
        let (moves, ns) = by_k.get(&(k as u64)).copied().unwrap_or_default();
        out.push(metric(
            format!("core.batchring.k{k}.moves_per_s"),
            "moves/s",
            rate(moves, ns),
        ));
    }
    for kernel in ["core.segring", "core.segtorus", "core.engine"] {
        let x = t(kernel);
        out.extend([
            metric(format!("{kernel}.agent_moves"), "count", x.moves as f64),
            metric(
                format!("{kernel}.moves_per_s"),
                "moves/s",
                rate(x.moves, x.ns),
            ),
        ]);
    }
    out.push(metric(
        "core.domains.samples",
        "count",
        (b.samples + t("core.engine").samples) as f64,
    ));
    let w = t("walks");
    let (setup, runner_wall) = runner_setup_ns(spans);
    out.extend([
        metric("walks.agent_moves", "count", w.moves as f64),
        metric("walks.moves_per_s", "moves/s", rate(w.moves, w.ns)),
        metric("walks.covered_share", "ratio", share(w.covered, w.cells)),
        metric("sweep.scenario.expand_s", "s", secs(t("sweep.scenario").ns)),
        metric(
            "sweep.batch.units",
            "count",
            t("sweep.batch.plan").units as f64,
        ),
        metric(
            "sweep.runners.setup_share",
            "ratio",
            share(setup, runner_wall),
        ),
    ]);
    let d = driver(spans, shards);
    out.extend([
        metric("sweep.driver.wall_s", "s", secs(d.wall)),
        metric("sweep.driver.busy_frac", "ratio", share(d.busy, d.capacity)),
        metric("sweep.driver.idle_s", "s", secs(d.capacity - d.busy)),
        metric("sweep.driver.tail_s", "s", secs(d.tail)),
        metric(
            "analysis.aggregate_s",
            "s",
            secs(t("analysis.aggregate").ns),
        ),
        metric(
            "analysis.report.render_s",
            "s",
            secs(t("analysis.report.render").ns),
        ),
        metric(
            "analysis.report.parse_s",
            "s",
            secs(t("analysis.report.parse").ns),
        ),
        metric(
            "analysis.report.bytes",
            "bytes",
            t("analysis.report.render").bytes as f64,
        ),
        metric("xtask.validate_s", "s", secs(t("xtask.validate").ns)),
        metric(
            "xtask.campaign.state_write_s",
            "s",
            secs(t("xtask.campaign.state_write").ns),
        ),
        metric(
            "xtask.campaign.state_read_s",
            "s",
            secs(t("xtask.campaign.state_read").ns),
        ),
    ]);
    let shares = busy_shares(spans);
    for layer in SHARE_LAYERS {
        out.push(metric(
            format!("{layer}.busy_share"),
            "ratio",
            shares.get(layer).copied().unwrap_or(0.0),
        ));
    }
    out
}

/// The work counters the spans of a traced pass recorded at the layer
/// boundaries; they must equal the counters derived from the pass's
/// results, which is what pins the replica to the entry points it stands
/// in for.
pub fn span_counters(spans: &[Span]) -> Counters {
    let mut c = Counters::default();
    for s in spans {
        let w = &s.work;
        match s.name {
            "core.batchring" | "core.engine" | "core.segring" | "core.segtorus" | "walks" => {
                c.cells += w.cells;
                c.rounds += w.rounds;
                c.agent_moves += w.moves;
                c.samples += w.samples;
            }
            "graph.build" => c.graph_edges += w.edges,
            "sweep.batch.plan" => c.batch_units += w.units,
            _ => {}
        }
    }
    c
}

/// Runner set-up and runner wall time, in ns: each `sweep.runners` call's
/// wall time minus the kernel call inside it (the traced counterpart of
/// call wall minus `CoverSample.nanos`), over the cells run one at a time.
fn runner_setup_ns(spans: &[Span]) -> (u64, u64) {
    let mut kernel: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.name.starts_with("core.") || s.name == "walks" {
            if let Some(p) = s.parent {
                *kernel.entry(p).or_default() += s.duration();
            }
        }
    }
    let (mut setup, mut wall) = (0, 0);
    for s in spans.iter().filter(|s| s.name == "sweep.runners") {
        wall += s.duration();
        setup += s.duration() - kernel.get(&s.id).copied().unwrap_or(0).min(s.duration());
    }
    (setup, wall)
}

/// Sweep-driver totals over every `sweep.driver` call of a pass.
#[derive(Default)]
struct Driver {
    /// Σ call wall time.
    wall: u64,
    /// Σ call wall × threads the call could use.
    capacity: u64,
    /// Σ time worker threads spent inside units.
    busy: u64,
    /// Σ (last shard finish − first shard finish).
    tail: u64,
}

fn driver(spans: &[Span], shards: usize) -> Driver {
    let mut units: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            units.entry(p).or_default().push(s);
        }
    }
    let mut d = Driver::default();
    for call in spans.iter().filter(|s| s.name == "sweep.driver") {
        let kids = units.get(&call.id).map_or(&[][..], Vec::as_slice);
        // run_sharded_checked starts min(shards, units) workers; one that
        // ran nothing finished when the call began.
        let threads = shards.min(kids.len()).max(1);
        let mut finish: BTreeMap<u64, u64> = BTreeMap::new();
        for k in kids {
            let f = finish.entry(k.thread).or_insert(call.start);
            *f = (*f).max(k.end);
        }
        let mut ends: Vec<u64> = finish.into_values().collect();
        ends.resize(threads.max(ends.len()), call.start);
        let first = ends.iter().min().copied().unwrap_or(call.start);
        let last = ends.iter().max().copied().unwrap_or(call.start);
        d.wall += call.duration();
        d.capacity += call.duration() * threads as u64;
        d.busy += kids.iter().map(|k| k.duration()).sum::<u64>();
        d.tail += last - first;
    }
    d.busy = d.busy.min(d.capacity);
    d
}

/// Each layer's self time as a share of thread-busy time: the self time
/// of every span except the sweep driver's, whose self time is the
/// calling thread waiting for its workers.
pub fn busy_shares(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.name != "sweep.driver" {
            *by_layer.entry(layer_of(s.name).to_string()).or_default() += own;
        }
    }
    let total: u64 = by_layer.values().sum();
    by_layer
        .into_iter()
        .map(|(layer, ns)| (layer, share(ns, total)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Work;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = rotor_analysis::report::Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(|s| s.as_arr())
            .expect("metric section")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_is_well_formed_and_listed_in_benchmark_json() {
        let layer: Vec<String> = layer_metrics(&[], 2).into_iter().map(|m| m.name).collect();
        let mut listed = names_in_benchmark_json("per_layer");
        let mut produced = layer.clone();
        produced.push("trace.overhead".into());
        assert!(produced.iter().all(|n| well_formed(n)), "{produced:?}");
        produced.sort();
        listed.sort();
        assert_eq!(produced, listed);
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert!(e2e.iter().all(|n| well_formed(n)));
        assert_eq!(e2e, names_in_benchmark_json("end_to_end"));
    }

    fn span(
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        thread: u64,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            name,
            id,
            parent,
            item: 0,
            thread,
            start,
            end,
            work: Work::default(),
        }
    }

    #[test]
    fn driver_busy_idle_and_tail_on_a_synthetic_call() {
        // One driver call [0, 100) on two shards: thread 1 busy [0, 90),
        // thread 2 busy [0, 40) then [50, 60).
        let spans = [
            span("sweep.driver", 1, None, 0, 0, 100),
            span("sweep.runners", 2, Some(1), 1, 0, 90),
            span("sweep.runners", 3, Some(1), 2, 0, 40),
            span("sweep.runners", 4, Some(1), 2, 50, 60),
        ];
        let d = driver(&spans, 2);
        assert_eq!((d.wall, d.capacity, d.busy, d.tail), (100, 200, 140, 30));
        // The waiting driver is excluded from busy time.
        let shares = busy_shares(&spans);
        assert_eq!(shares.get("sweep.runners"), Some(&1.0));
        assert!(!shares.contains_key("sweep.driver"));
    }
}
