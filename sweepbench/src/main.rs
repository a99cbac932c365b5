//! The sweep-stack benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload ring-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run makes the workload's inputs from `--seed`, does one untimed
//! warm-up pass (whose results the correctness gate checks), then repeats
//! timed passes — set-up, sweep, aggregation, report, validation and the
//! campaign-state round trip — until `--seconds` have passed, and prints
//! per-pass medians. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced passes and prints the per-layer metrics
//! of the traced ones. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod gate;
mod metrics;
mod pass;
mod report;
mod stats;
mod trace;
mod workload;

use metrics::{layer_metrics, Metric, END_TO_END};
use pass::{counters, run_unit, run_unit_traced, setup, Counters, Plan, Prepared, UnitRuns};
use rotor_analysis::report::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Span, Tracer};
use workload::{closed_form_cover, units, UnitSpec, Workload};

/// Timed passes per run, at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Set-up repetitions per run, at least (set-up of every pass counts).
const MIN_SETUPS: usize = 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything a pass needs that does not change between passes.
struct Run<'a> {
    workload: Workload,
    specs: &'a [UnitSpec],
    plan: Plan,
    state_path: PathBuf,
    sampler_speedup: f64,
}

/// What one pass produced.
struct PassOut<'a> {
    wall_s: f64,
    setup_s: f64,
    counters: Counters,
    report: Json,
    problems: Vec<String>,
    prepared: Vec<Prepared<'a>>,
    runs: Vec<UnitRuns>,
    spans: Vec<Span>,
}

/// One pass. `replica` drives the sweep through the traced replica of the
/// entry points (per-cell panic containment), `trace` records spans.
fn pass<'a>(run: &Run<'a>, replica: bool, trace: bool) -> PassOut<'a> {
    let tracer = Tracer::new(trace);
    let t0 = Instant::now();
    let mut out = tracer.span("pass", 0, |_| {
        let (prepared, setup_edges) = tracer.span("setup", 0, |_| setup(run.specs, &tracer));
        let setup_s = t0.elapsed().as_secs_f64();
        let runs: Vec<UnitRuns> = prepared
            .iter()
            .map(|p| {
                if replica {
                    run_unit_traced(p, run.plan, &tracer)
                } else {
                    run_unit(p, run.plan)
                }
            })
            .collect();
        let (units, assembled) = tracer.span("analysis.aggregate", 0, |_| {
            let units: Vec<Json> = prepared
                .iter()
                .zip(&runs)
                .map(|(p, r)| report::unit_json(p, r))
                .collect();
            let assembled = report::assemble(
                run.workload,
                run.plan.shards,
                &prepared,
                &units,
                run.sampler_speedup,
            );
            (units, assembled)
        });
        let (parsed, mut problems) = report::render_and_validate(&assembled, &tracer);
        let keyed: Vec<(String, Json)> = prepared
            .iter()
            .map(|p| p.spec.key.clone())
            .zip(units)
            .collect();
        let campaign = format!("sweepbench-{}", run.workload.name());
        problems.extend(report::state_round_trip(
            &run.state_path,
            &campaign,
            &keyed,
            &tracer,
        ));
        let counters = counters(&prepared, &runs, setup_edges, run.plan);
        PassOut {
            wall_s: 0.0,
            setup_s,
            counters,
            report: parsed,
            problems,
            prepared,
            runs,
            spans: Vec::new(),
        }
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    out.spans = tracer.take();
    out
}

/// The untraced pass through the public entry points; if a cell panics
/// there (which kills the whole sweep call), the pass is redone on the
/// replica, which contains panics per cell, so the gate can name them.
fn public_pass<'a>(run: &Run<'a>) -> PassOut<'a> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass(run, false, false)))
        .unwrap_or_else(|_| pass(run, true, false))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn l2_size() -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            (level.trim() == "2")
                .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The environment and execution plan behind every number of the run.
fn environment(args: &Args, plan: Plan) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rotor_env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ROTOR_"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    rotor_env.sort_by(|a, b| a.0.cmp(&b.0));
    Json::obj([
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("l2_size", Json::Str(l2_size())),
        ("shard_threads", Json::Int(plan.shards as u64)),
        ("segment_workers", Json::Int(plan.workers as u64)),
        ("segments", Json::Int(plan.segments as u64)),
        ("batch_width", Json::Int(plan.width as u64)),
        ("rotor_env", Json::Obj(rotor_env)),
    ])
}

fn counters_json(c: &Counters) -> Json {
    Json::obj([
        ("cells", Json::Int(c.cells)),
        ("rounds", Json::Int(c.rounds)),
        ("agent_moves", Json::Int(c.agent_moves)),
        ("graph_edges", Json::Int(c.graph_edges)),
        ("domain_samples", Json::Int(c.samples)),
        ("batch_units", Json::Int(c.batch_units)),
    ])
}

/// Median and quartiles of per-pass values, for the human-readable lines.
fn summary(name: &str, unit: &str, values: &[f64]) -> (f64, String) {
    let m = stats::median(values).expect("at least one pass");
    let (q1, q3) = stats::quartiles(values).unwrap_or((m, m));
    (
        m,
        format!(
            "{name} = {m} {unit} (q1 {q1}, q3 {q3}, {} samples)",
            values.len()
        ),
    )
}

/// Writes spans as JSON lines, with their self times.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::new();
    for (s, own) in spans.iter().zip(trace::self_times(spans)) {
        let line = Json::obj([
            ("name", Json::Str(s.name.into())),
            ("id", Json::Int(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::Int)),
            ("item", Json::Int(s.item)),
            ("thread", Json::Int(s.thread)),
            ("start_ns", Json::Int(s.start)),
            ("end_ns", Json::Int(s.end)),
            ("self_ns", Json::Int(own)),
            ("rounds", Json::Int(s.work.rounds)),
            ("agent_moves", Json::Int(s.work.moves)),
            ("edges", Json::Int(s.work.edges)),
            ("samples", Json::Int(s.work.samples)),
        ]);
        text.push_str(&line.render());
        text.push('\n');
    }
    std::fs::write(path, text)
}

fn state_path(workload: Workload, trace: bool) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new("sweepbench").join("target"), PathBuf::from);
    target.join("sweepbench-state").join(format!(
        "{}-trace{}.state.json",
        workload.name(),
        u8::from(trace)
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            eprintln!(
                "usage: sweepbench --workload <ring-sweep|graph-sweep|large-instance> \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let (shards, workers) = rotor_sweep::thread_plan();
    let plan = Plan {
        shards,
        workers,
        segments: rotor_core::segring::segment_count_from_env(),
        width: rotor_core::batchring::batch_width_from_env(),
    };
    println!("environment {}", environment(&args, plan).render());
    let specs = units(args.workload, args.seed);
    let sampler_speedup = if args.workload == Workload::GraphSweep {
        xtask::campaign::domain_sampler_speedup()
    } else {
        0.0
    };
    let run = Run {
        workload: args.workload,
        specs: &specs,
        plan,
        state_path: state_path(args.workload, args.trace),
        sampler_speedup,
    };

    // Warm-up: fills caches and lazy set-up; its results feed the gate.
    let warm = public_pass(&run);
    let mut problems = warm.problems.clone();

    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut cells_per_s = Vec::new();
    let mut traced_cells_per_s = Vec::new();
    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut shares: Vec<std::collections::BTreeMap<String, f64>> = Vec::new();
    let mut last_spans = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    // A traced run alternates untraced and traced passes and needs at
    // least two of each.
    let min_passes = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    while i < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && i % 2 == 1;
        let out = if traced {
            pass(&run, true, true)
        } else {
            pass(&run, false, false)
        };
        let rate = out.counters.cells as f64 / out.wall_s;
        if out.counters != warm.counters {
            problems.push(format!(
                "pass {i} counters {:?} differ from the warm-up pass {:?}",
                out.counters, warm.counters
            ));
        }
        problems.extend(
            xtask::compare::compare(&out.report, &warm.report)
                .into_iter()
                .map(|d| format!("pass {i} report differs from the warm-up pass: {d}")),
        );
        problems.extend(out.problems.iter().cloned());
        if traced {
            let seen = metrics::span_counters(&out.spans);
            if seen != out.counters {
                problems.push(format!(
                    "pass {i}: spans counted {seen:?}, results {:?}",
                    out.counters
                ));
            }
            traced_cells_per_s.push(rate);
            layers.push(layer_metrics(&out.spans, plan.shards));
            shares.push(metrics::busy_shares(&out.spans));
            last_spans = out.spans;
        } else {
            cells_per_s.push(rate);
            setups.push(out.setup_s);
            walls.push(out.wall_s);
        }
        i += 1;
    }
    let peak = peak_rss_mb().expect("VmHWM in /proc/self/status");
    // Extra set-up samples for at least a twentieth of the measuring time
    // (and until there are MIN_SETUPS), at most a quarter. One sample
    // averages back-to-back set-ups over at least a millisecond, so a
    // set-up of a few hundred nanoseconds is not lost in timer overhead.
    let tracer = Tracer::new(false);
    let extra = Instant::now();
    loop {
        let spent = extra.elapsed().as_secs_f64();
        if spent >= args.seconds / 4.0
            || (setups.len() >= MIN_SETUPS && spent >= args.seconds / 20.0)
        {
            break;
        }
        let t0 = Instant::now();
        let mut reps = 0u32;
        while reps == 0 || t0.elapsed().as_secs_f64() < 1e-3 {
            std::hint::black_box(setup(run.specs, &tracer));
            reps += 1;
        }
        setups.push(t0.elapsed().as_secs_f64() / f64::from(reps));
    }
    // The gate runs last: its replays would otherwise count in the peak.
    let verdict = gate::check(
        &warm.prepared,
        &warm.runs,
        args.seed,
        plan.shards,
        closed_form_cover,
    );

    println!("counters {}", counters_json(&warm.counters).render());
    let (cps, line) = summary("cells_per_s", "cells/s", &cells_per_s);
    println!("{line}");
    let (setup_s, line) = summary("setup_s", "s", &setups);
    println!("{line}");
    let (_, line) = summary("pass_wall_s", "s", &walls);
    println!("{line}");
    println!("per-pass cells_per_s: {cells_per_s:?}");
    println!("peak_rss_mb = {peak} MiB");
    println!(
        "fail_share = {} ratio ({} of {} cover runs failed)",
        verdict.fail_share(),
        verdict.failed,
        verdict.attempted
    );

    let metrics: Vec<Metric> = if args.trace {
        let mut out: Vec<Metric> = layers[0]
            .iter()
            .enumerate()
            .map(|(j, m)| {
                let values: Vec<f64> = layers.iter().map(|l| l[j].value).collect();
                Metric {
                    value: stats::median(&values).expect("traced passes"),
                    ..m.clone()
                }
            })
            .collect();
        let traced = stats::median(&traced_cells_per_s).expect("traced passes");
        out.push(Metric {
            name: "trace.overhead".into(),
            unit: "ratio",
            value: 1.0 - traced / cps,
        });
        let mut table: Vec<(String, f64)> = shares[0]
            .keys()
            .map(|layer| {
                let v: Vec<f64> = shares
                    .iter()
                    .map(|s| s.get(layer).copied().unwrap_or(0.0))
                    .collect();
                (layer.clone(), stats::median(&v).unwrap_or(0.0))
            })
            .collect();
        table.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!(
            "busy-time shares (median of {} traced passes):",
            shares.len()
        );
        for (layer, share) in table {
            println!("  {layer:<28} {:>6.2}%", 100.0 * share);
        }
        println!("tracing overhead: traced {traced} vs untraced {cps} cells/s");
        let path = run.state_path.with_extension("spans.jsonl");
        match write_spans(&path, &last_spans) {
            Ok(()) => println!("spans of the last traced pass: {}", path.display()),
            Err(e) => problems.push(format!("{}: cannot write spans: {e}", path.display())),
        }
        out
    } else {
        let values = [cps, setup_s, peak];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.into(),
                unit,
                value,
            })
            .collect()
    };
    for p in verdict.problems.iter().chain(&problems).take(20) {
        println!("problem: {p}");
    }
    let report_ok = problems.is_empty();
    let failed = if report_ok {
        verdict.failed
    } else {
        verdict.attempted
    };
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(verdict.attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
}
