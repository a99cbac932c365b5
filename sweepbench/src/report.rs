//! The analysis, report and campaign layers of a pass: per-unit
//! aggregation (medians, bootstrap bands, regime fits), the assembled
//! `rotor-experiment/1` report of the campaign the workload's traffic
//! comes from, its validation, and the campaign-state round trip.

use crate::pass::{Prepared, UnitRuns};
use crate::trace::Tracer;
use crate::workload::{Drive, Workload};
use rotor_analysis::report::{Curve, Json, Point, SCHEMA};
use rotor_analysis::{bootstrap_median_band, fit_regime_scaled, median, speedup_exponent};
use rotor_sweep::{ObservedCover, PlacementSpec};
use std::path::Path;
use xtask::campaign::{CampaignState, Scale};

/// The campaigns' bootstrap settings, so bands are comparable.
const BOOTSTRAP_RESAMPLES: usize = 300;
const BAND_CONFIDENCE: f64 = 0.95;

type CellResult = Result<ObservedCover, String>;

fn cover(r: &CellResult) -> Option<u64> {
    r.as_ref().ok().and_then(|oc| oc.sample.cover)
}

fn int_or_null(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::Int)
}

fn num_or_null(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn placement_label(p: PlacementSpec) -> &'static str {
    match p {
        PlacementSpec::AllOnOne => "all_on_one",
        PlacementSpec::EquallySpaced => "equally_spaced",
        PlacementSpec::Random => "random",
    }
}

/// The analysis crate's median of a cover sample, `None` when empty.
fn median_of(covers: &[u64]) -> Option<u64> {
    median(&mut covers.to_vec())
}

/// Median of the covered cells and its bootstrap band, keyed by `seed`.
fn median_and_band(covers: &[u64], seed: u64) -> [(&'static str, Json); 3] {
    let m = median_of(covers);
    let band = bootstrap_median_band(covers, BOOTSTRAP_RESAMPLES, BAND_CONFIDENCE, seed);
    [
        ("median_cover", int_or_null(m)),
        ("band_lo", int_or_null(band.as_ref().map(|b| b.lo))),
        ("band_hi", int_or_null(band.as_ref().map(|b| b.hi))),
    ]
}

fn lower_median(mut v: Vec<f64>) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| v[(v.len() - 1) / 2])
}

fn scaled_json(points: &[(u64, f64)]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|&(k, r)| Json::Arr(vec![Json::Int(k), Json::Num(r)]))
            .collect(),
    )
}

/// A ring-column unit (`table1` shape): one curve, `cover` per `k` for the
/// single-seed worst and best columns, median and band for the random one.
fn ring_unit(p: &Prepared, runs: &UnitRuns) -> Json {
    let grid = &p.spec.grids[0];
    let n = grid.ns[0];
    let bound = p.params[0].budget / 4;
    let mut curve = Curve::new(p.spec.key.clone())
        .meta("process", Json::Str("rotor".into()))
        .meta(
            "placement",
            Json::Str(placement_label(grid.placement).into()),
        )
        .meta("n", Json::Int(n as u64))
        .meta("seed_count", Json::Int(grid.seed_count as u64));
    let mut scaled = Vec::new();
    for (ki, &k) in grid.ks.iter().enumerate() {
        let range = grid.point_range(0, 0, ki);
        let covers: Vec<u64> = runs.rotor[range.clone()].iter().filter_map(cover).collect();
        let point = if grid.seed_count == 1 {
            Point::new(k as u64, [("cover", int_or_null(covers.first().copied()))])
        } else {
            let mut fields = vec![("covered", Json::Int(covers.len() as u64))];
            fields.extend(median_and_band(&covers, p.scenarios[range.start].seed));
            Point::new(k as u64, fields)
        };
        if let Some(m) = median_of(&covers) {
            scaled.push((k as u64, m as f64 / bound as f64));
        }
        curve.points.push(point);
    }
    curve.fit = fit_regime_scaled(&scaled);
    Json::obj([("curves", Json::Arr(vec![curve.to_json()]))])
}

/// One measured rotor cell of a graph unit: the cover against its graph's
/// `2·D·|E|` bound, and the §2.2 domain dynamics of its sample trace.
struct RotorCell {
    cover: u64,
    bound: u64,
    max_domains: u32,
    single_domain_round: u64,
}

fn rotor_cell(r: &CellResult, bound: u64) -> Option<RotorCell> {
    let oc = r.as_ref().ok()?;
    let cover = oc.sample.cover?;
    let samples = &oc.domain_samples;
    let max_domains = samples.iter().map(|s| s.domains).max()?;
    let single_domain_round = samples
        .iter()
        .rposition(|s| s.domains != 1)
        .and_then(|i| samples.get(i + 1))
        .map_or(0, |s| s.round);
    Some(RotorCell {
        cover,
        bound,
        max_domains,
        single_domain_round,
    })
}

/// A graph-family unit (`general_graphs` shape): the paired rotor and walk
/// curves plus the `2·D·|E|`-scaled points the assembly pools per family.
fn graph_unit(p: &Prepared, runs: &UnitRuns) -> Json {
    let grid = &p.spec.grids[0];
    let n = grid.ns[0];
    let label = grid.families[0].label();
    let backend = runs
        .rotor
        .iter()
        .find_map(|r| r.as_ref().ok())
        .map_or("none", |oc| oc.sample.backend);
    let meta = |c: Curve, process: &str| {
        c.meta("process", Json::Str(process.into()))
            .meta("family", Json::Str(label.clone()))
            .meta("n", Json::Int(n as u64))
            .meta("seed_count", Json::Int(grid.seed_count as u64))
    };
    let mut rotor_curve = meta(Curve::new(format!("rotor/{label}/n{n}")), "rotor")
        .meta("backend", Json::Str(backend.into()));
    let mut walk_curve = meta(Curve::new(format!("walk/{label}/n{n}")), "walk");
    let (mut rotor_scaled, mut walk_scaled) = (Vec::new(), Vec::new());
    for (ki, &k) in grid.ks.iter().enumerate() {
        let range = grid.point_range(0, 0, ki);
        let cells: Vec<Option<RotorCell>> = range
            .clone()
            .map(|i| rotor_cell(&runs.rotor[i], p.params[i].budget / 4))
            .collect();
        let measured: Vec<&RotorCell> = cells.iter().flatten().collect();
        let covers: Vec<u64> = measured.iter().map(|c| c.cover).collect();
        let ratios: Vec<f64> = measured
            .iter()
            .map(|c| c.cover as f64 / c.bound as f64)
            .collect();
        let ratio = lower_median(ratios.clone());
        if let Some(r) = ratio {
            rotor_scaled.push((k as u64, r));
        }
        let bound = p.params[range.start].budget / 4;
        let shared = p.params[range.clone()]
            .iter()
            .all(|q| q.budget / 4 == bound);
        let band_seed = p.scenarios[range.start].seed;
        let mut fields = median_and_band(&covers, band_seed).to_vec();
        fields.extend([
            ("median_ratio", num_or_null(ratio)),
            (
                "bound_2_d_e",
                if shared { Json::Int(bound) } else { Json::Null },
            ),
            (
                "worst_ratio",
                num_or_null(ratios.iter().copied().reduce(f64::max)),
            ),
            (
                "max_domains",
                int_or_null(measured.iter().map(|c| u64::from(c.max_domains)).max()),
            ),
            (
                "single_domain_round",
                int_or_null(measured.iter().map(|c| c.single_domain_round).max()),
            ),
        ]);
        rotor_curve.points.push(Point::new(k as u64, fields));

        let walk_covers: Vec<u64> = runs.walks[range.clone()].iter().filter_map(cover).collect();
        let walk_ratio = lower_median(
            runs.walks[range.clone()]
                .iter()
                .zip(&cells)
                .filter_map(|(w, c)| Some(cover(w)? as f64 / c.as_ref()?.bound as f64))
                .collect(),
        );
        if let Some(r) = walk_ratio {
            walk_scaled.push((k as u64, r));
        }
        let walk_over_rotor = match (median_of(&walk_covers), median_of(&covers)) {
            (Some(w), Some(r)) if r > 0 => Some(w as f64 / r as f64),
            _ => None,
        };
        let mut fields = vec![("covered", Json::Int(walk_covers.len() as u64))];
        fields.extend(median_and_band(&walk_covers, band_seed));
        fields.extend([
            ("median_ratio", num_or_null(walk_ratio)),
            ("walk_over_rotor", num_or_null(walk_over_rotor)),
        ]);
        walk_curve.points.push(Point::new(k as u64, fields));
    }
    rotor_curve.fit = fit_regime_scaled(&rotor_scaled);
    walk_curve.fit = fit_regime_scaled(&walk_scaled);
    Json::obj([
        (
            "curves",
            Json::Arr(vec![rotor_curve.to_json(), walk_curve.to_json()]),
        ),
        (
            "scaled",
            Json::obj([
                ("rotor", scaled_json(&rotor_scaled)),
                ("walk", scaled_json(&walk_scaled)),
            ]),
        ),
    ])
}

/// The large-instance unit: one single-point curve per cell.
fn large_unit(p: &Prepared, runs: &UnitRuns) -> Json {
    let curves = p
        .scenarios
        .iter()
        .zip(&runs.rotor)
        .map(|(sc, r)| {
            let placement = placement_label(sc.placement);
            let backend = r.as_ref().map_or("none", |oc| oc.sample.backend);
            let mut curve = Curve::new(format!("{placement}/{}/n{}", sc.family.label(), sc.n))
                .meta("process", Json::Str("rotor".into()))
                .meta("placement", Json::Str(placement.into()))
                .meta("family", Json::Str(sc.family.label()))
                .meta("n", Json::Int(sc.n as u64))
                .meta("backend", Json::Str(backend.into()));
            curve
                .points
                .push(Point::new(sc.k as u64, [("cover", int_or_null(cover(r)))]));
            curve.to_json()
        })
        .collect();
    Json::obj([("curves", Json::Arr(curves))])
}

/// Aggregates one unit's runs into its campaign-state unit JSON.
pub fn unit_json(p: &Prepared, runs: &UnitRuns) -> Json {
    match p.spec.drive {
        Drive::Batched { walks: false } => ring_unit(p, runs),
        Drive::Batched { walks: true } => graph_unit(p, runs),
        Drive::Sharded => large_unit(p, runs),
    }
}

fn curves_of(unit: &Json) -> Vec<Json> {
    unit.get("curves")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default()
}

fn scaled_of(unit: &Json, process: &str) -> Vec<(u64, f64)> {
    unit.get("scaled")
        .and_then(|s| s.get(process))
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|pair| {
            let pair = pair.as_arr()?;
            Some((pair.first()?.as_u64()?, pair.get(1)?.as_f64()?))
        })
        .collect()
}

/// Assembles the workload's report from its units; `graph-sweep` pools the
/// scaled points of every size into one fit per family, as the campaign
/// does, and records the domain-sampler speed-up its validator requires.
pub fn assemble(
    workload: Workload,
    threads: usize,
    prepared: &[Prepared],
    units: &[Json],
    sampler_speedup: f64,
) -> Json {
    let curves: Vec<Json> = units.iter().flat_map(curves_of).collect();
    let mut meta = vec![("workload", Json::Str(workload.name().into()))];
    if workload == Workload::GraphSweep {
        let mut speedups = Vec::new();
        let mut families: Vec<String> = prepared
            .iter()
            .map(|p| p.spec.grids[0].families[0].label())
            .collect();
        families.dedup();
        for family in families {
            let pool = |process: &str| -> Vec<(u64, f64)> {
                prepared
                    .iter()
                    .zip(units)
                    .filter(|(p, _)| p.spec.grids[0].families[0].label() == family)
                    .flat_map(|(_, u)| scaled_of(u, process))
                    .collect()
            };
            let rotor = fit_regime_scaled(&pool("rotor"));
            let walk = fit_regime_scaled(&pool("walk"));
            let speedup = match (&rotor, &walk) {
                (Some(r), Some(w)) => Some(speedup_exponent(r, w)),
                _ => None,
            };
            speedups.push(Json::obj([
                ("family", Json::Str(family)),
                ("rotor_exponent", num_or_null(rotor.map(|f| f.exponent))),
                ("walk_exponent", num_or_null(walk.map(|f| f.exponent))),
                ("speedup_exponent", num_or_null(speedup)),
            ]));
        }
        meta.push(("speedups", Json::Arr(speedups)));
        meta.push(("domain_sampler_speedup_n4096", Json::Num(sampler_speedup)));
    }
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("bench".into(), Json::Str(workload.bench().into())),
        ("threads".into(), Json::Int(threads as u64)),
        ("meta".into(), Json::obj(meta)),
        ("curves".into(), Json::Arr(curves)),
    ])
}

/// Renders and re-parses the report, then validates the parsed copy.
/// Returns the parsed report and every problem found.
pub fn render_and_validate(report: &Json, tracer: &Tracer) -> (Json, Vec<String>) {
    let text = tracer.span("analysis.report.render", 0, |ctx| {
        let text = report.render();
        ctx.work.bytes = text.len() as u64;
        text
    });
    let parsed = match tracer.span("analysis.report.parse", 0, |_| Json::parse(&text)) {
        Ok(parsed) => parsed,
        Err(e) => return (Json::Null, vec![format!("report does not parse: {e}")]),
    };
    let errors = tracer.span("xtask.validate", 0, |_| {
        xtask::validate::validate(&parsed, &xtask::validate::Options::default())
    });
    (parsed, errors)
}

/// Writes every unit through `CampaignState::unit` into the state file at
/// `path`, reloads the file, and checks each unit resumes
/// `xtask compare`-identical. Returns the problems found.
pub fn state_round_trip(
    path: &Path,
    campaign: &str,
    keyed: &[(String, Json)],
    tracer: &Tracer,
) -> Vec<String> {
    let written = tracer.span("xtask.campaign.state_write", 0, |_| {
        let mut state = CampaignState::load(path.to_path_buf(), campaign, Scale::Full, true)?;
        for (key, unit) in keyed {
            state.unit(key, || unit.clone())?;
        }
        Ok::<_, String>(())
    });
    if let Err(e) = written {
        return vec![e];
    }
    tracer.span("xtask.campaign.state_read", 0, |_| {
        let mut state = match CampaignState::load(path.to_path_buf(), campaign, Scale::Full, false)
        {
            Ok(state) => state,
            Err(e) => return vec![e],
        };
        let mut problems = Vec::new();
        for (key, unit) in keyed {
            match state.unit(key, || Json::Null) {
                Ok(stored) => problems.extend(
                    xtask::compare::compare(&stored, unit)
                        .into_iter()
                        .map(|d| format!("state unit {key}: {d}")),
                ),
                Err(e) => problems.push(e),
            }
        }
        if state.resumed != keyed.len() {
            problems.push(format!(
                "{} of {} units resumed from the state file",
                state.resumed,
                keyed.len()
            ));
        }
        problems
    })
}
