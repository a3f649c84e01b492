//! Per-layer probes for the traced run: the benchmark times calls into
//! each crate's public functions on the workload's own designs, layers
//! and requests. Every workload reports every probe metric, measured on
//! its own inputs.

use crate::check::{check_response, response_cached, Outcome};
use crate::server::Server;
use crate::stats::median;
use crate::workloads::Ctx;
use std::sync::Arc;
use std::time::Instant;
use ulm::dse::{build_design, DesignPoint};
use ulm::mapper::enumerate::for_each_ordering;
use ulm::model::{BatchKernel, DtlOptions, LaneOutcome, StallScratch};
use ulm::prelude::*;
use ulm::serve::{fingerprint_value, CacheLog, ResultCache, ServeOptions};
use ulm::sim::build_schedule_lowered;

/// Probe cases a workload with a large design or layer set draws.
pub const CASES: usize = 8;
/// Cases that must be simulated. Past [`CASES`], a workload's cases are
/// drawn on until this many fit under [`SIM_CAP`].
pub const SIM_MIN: usize = 4;
/// Repeats of each microsecond-scale call; the metric is their median.
const REPS: usize = 15;
/// Simulated-transfer cap for probe cases (larger cases are skipped).
const SIM_CAP: u64 = 400_000;
/// Distinct workload points queried per surrogate.
const SURROGATE_POINTS: u64 = 32;

/// The mapper settings of every probe search request: the per-design
/// search of a DSE sweep, so one cold search costs milliseconds.
const SEARCH_MAPPER: &str = r#""mapper":{"max_exhaustive":2000,"samples":60}"#;

/// Attention decode with and without a fused logit+attend segment.
const NET_LINES: [&str; 2] = [
    r#""kind":"net","arch":"fusion","net":"attention-decode","mapper":{"max_exhaustive":2000,"samples":60},"fuse":[{"layers":["logit","attend"],"pin":"LB"}]"#,
    r#""kind":"net","arch":"fusion","net":"attention-decode","mapper":{"max_exhaustive":2000,"samples":60}"#,
];

const STATS_LINE: &str = r#"{"kind":"stats"}"#;

#[derive(Debug, Clone)]
enum Source {
    Design(DesignParams),
    /// `presets::validation_chip`, the serve preset `validation`.
    Validation,
}

/// One (architecture, layer, mapper settings) case.
#[derive(Debug, Clone)]
pub struct Case {
    source: Source,
    layer: Layer,
    opts: MapperOptions,
}

impl Case {
    pub fn design(params: DesignParams, layer: Layer, opts: MapperOptions) -> Self {
        Self {
            source: Source::Design(params),
            layer,
            opts,
        }
    }

    pub fn validation(layer: Layer, opts: MapperOptions) -> Self {
        Self {
            source: Source::Validation,
            layer,
            opts,
        }
    }

    fn build(&self) -> (Architecture, SpatialUnroll) {
        match &self.source {
            Source::Design(p) => {
                let d = build_design(*p);
                (d.arch, d.spatial)
            }
            Source::Validation => {
                let chip = presets::validation_chip();
                (chip.arch, SpatialUnroll::new(chip.spatial))
            }
        }
    }

    /// The serve-protocol fields naming this case: its preset, or for a
    /// DSE design the case-study preset of the same array size.
    fn serve_fields(&self, b: u64) -> String {
        let arch = match &self.source {
            Source::Design(p) => {
                format!(r#""arch":"case{}","gb_bw":{},"#, p.array_side, p.gb_bw_bits)
            }
            Source::Validation => r#""arch":"validation","#.to_string(),
        };
        let (_, k, c) = bkc(&self.layer);
        format!(r#"{arch}"layer":"{b}x{k}x{c}",{SEARCH_MAPPER}"#)
    }
}

/// An in-process service answering the serve protocol, for expected
/// responses.
fn local_service() -> Arc<EvalService> {
    EvalService::new(ServeOptions {
        parallelism: Some(1),
        ..ServeOptions::default()
    })
}

/// The `eval` line for a search response's best mapping.
fn eval_line(id: u64, fields: &str, search_response: &str) -> Result<String, String> {
    let v: serde::Value = serde_json::from_str(search_response).map_err(|e| e.to_string())?;
    let mapping = v.get("mapping").ok_or("search response without mapping")?;
    let mapping = serde_json::to_string(mapping).map_err(|e| e.to_string())?;
    Ok(format!(
        r#"{{"id":{id},"kind":"eval",{fields},"mapping":{mapping}}}"#
    ))
}

fn bkc(layer: &Layer) -> (u64, u64, u64) {
    let s = layer.shape();
    (s.dim(Dim::B), s.dim(Dim::K), s.dim(Dim::C))
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e6)
}

/// Median microseconds of `REPS` calls.
fn reps_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let xs: Vec<f64> = (0..REPS).map(|_| time_us(&mut f).1).collect();
    median(&xs)
}

fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// Everything the per-case probes accumulate.
#[derive(Default)]
struct Acc {
    build_us: Vec<f64>,
    search_us: Vec<f64>,
    scalar_us: f64,
    batched_us: f64,
    enumerate_us: Vec<f64>,
    stats: SearchStats,
    push_us: Vec<f64>,
    drain_us: Vec<f64>,
    lower_us: Vec<f64>,
    step23_us: Vec<f64>,
    fast_us: Vec<f64>,
    report_us: Vec<f64>,
    delta_us: Vec<f64>,
    full_us: Vec<f64>,
    rebuilt: u64,
    skipped: u64,
    prepare_us: Vec<f64>,
    query_us: f64,
    oracle_us: f64,
    queries: u64,
    memo_hits: u64,
    energy_total_us: Vec<f64>,
    energy_report_us: Vec<f64>,
    schedule_us: Vec<f64>,
    simulate_ms: Vec<f64>,
    sim_s: f64,
    transfers: u64,
    accuracy: Vec<f64>,
}

/// Probes the first `want` of `cases`, then further cases while fewer
/// than [`SIM_MIN`] have been simulated; fails the run if the cases run
/// out first.
pub fn run_all(ctx: &Ctx, out: &mut Outcome, cases: impl IntoIterator<Item = Case>, want: usize) {
    let mut acc = Acc::default();
    let mut searched = 0;
    let mut taken = Vec::new();
    for case in cases {
        if taken.len() >= want && acc.accuracy.len() >= SIM_MIN {
            break;
        }
        taken.push(case);
        let case = taken.last().expect("just pushed");
        let (arch, spatial) = case.build();
        acc.build_us.push(reps_us(|| case.build()));
        if let Some(best) = probe_mapper(out, &mut acc, case, &arch, &spatial) {
            probe_model(out, &mut acc, case, &arch, &spatial, &best);
            probe_sim(out, &mut acc, case, &arch, &best);
            searched += 1;
        }
    }
    out.metric("arch.build_design_us", med(&acc.build_us), "us");
    out.metric("mapper.search_us", med(&acc.search_us), "us");
    out.metric("mapper.enumerate_us", med(&acc.enumerate_us), "us");
    out.metric(
        "mapper.orderings_per_s",
        acc.stats.generated as f64 / (acc.batched_us / 1e6),
        "1/s",
    );
    out.metric(
        "mapper.orderings_generated",
        acc.stats.generated as f64,
        "count",
    );
    out.metric(
        "mapper.orderings_evaluated",
        acc.stats.evaluated as f64,
        "count",
    );
    out.metric(
        "mapper.pruned_frac",
        acc.stats.pruned as f64 / acc.stats.generated.max(1) as f64,
        "frac",
    );
    out.metric("mapper.prefix_reuses", acc.stats.cache_hits as f64, "count");
    out.metric(
        "mapper.batched_vs_scalar",
        acc.scalar_us / acc.batched_us,
        "ratio",
    );
    out.metric("model.batch_push_us", med(&acc.push_us), "us");
    out.metric("model.batch_drain_us", med(&acc.drain_us), "us");
    out.metric("model.lower_us", med(&acc.lower_us), "us");
    out.metric("model.step23_us", med(&acc.step23_us), "us");
    out.metric("model.evaluate_fast_us", med(&acc.fast_us), "us");
    out.metric("model.evaluate_report_us", med(&acc.report_us), "us");
    out.metric("model.delta_us", med(&acc.delta_us), "us");
    out.metric("model.stages_rebuilt", acc.rebuilt as f64, "count");
    out.metric("model.stages_skipped", acc.skipped as f64, "count");
    out.metric(
        "model.delta_vs_full",
        med(&acc.full_us) / med(&acc.delta_us),
        "ratio",
    );
    out.metric("model.surrogate_prepare_us", med(&acc.prepare_us), "us");
    out.metric(
        "model.surrogate_query_us",
        acc.query_us / acc.queries.max(1) as f64,
        "us",
    );
    out.metric("model.surrogate_memo_hits", acc.memo_hits as f64, "count");
    out.metric(
        "model.surrogate_vs_full",
        acc.oracle_us / acc.query_us,
        "ratio",
    );
    out.metric("energy.total_us", med(&acc.energy_total_us), "us");
    out.metric("energy.report_us", med(&acc.energy_report_us), "us");
    out.metric("sim.simulate_ms", med(&acc.simulate_ms), "ms");
    out.metric("sim.schedule_us", med(&acc.schedule_us), "us");
    out.metric("sim.transfers", acc.transfers as f64, "count");
    out.metric(
        "sim.transfers_per_s",
        acc.transfers as f64 / acc.sim_s,
        "1/s",
    );
    out.metric(
        "sim.accuracy_mean_pct",
        acc.accuracy.iter().sum::<f64>() / acc.accuracy.len().max(1) as f64,
        "%",
    );
    out.metric(
        "sim.accuracy_worst_pct",
        acc.accuracy.iter().copied().fold(f64::INFINITY, f64::min),
        "%",
    );
    out.note(format!(
        "probe: {} cases, {} searched, {} simulated",
        taken.len(),
        searched,
        acc.accuracy.len()
    ));
    out.check(acc.accuracy.len() >= SIM_MIN, || {
        format!(
            "probe: only {} cases fit under the simulation cap",
            acc.accuracy.len()
        )
    });
    probe_dse(out, &taken);
    probe_network(out);
    let lines = probe_lines(&taken);
    probe_serve(ctx, out, &lines);
}

/// Search batched (timed three times) and one lane at a time (the
/// oracle), and enumerate the same factors with a no-op visitor.
fn probe_mapper(
    out: &mut Outcome,
    acc: &mut Acc,
    case: &Case,
    arch: &Architecture,
    spatial: &SpatialUnroll,
) -> Option<EvaluatedMapping> {
    let mapper = |lanes| {
        Mapper::new(arch, &case.layer, spatial.clone())
            .with_options(case.opts)
            .with_batch_lanes(lanes)
    };
    out.attempted += 1;
    let (batched, us) = time_us(|| mapper(None).search(Objective::Latency));
    let Ok(batched) = batched else {
        // No legal mapping on this design: a result, not a failure.
        return None;
    };
    let mut runs = vec![us];
    for _ in 0..2 {
        runs.push(time_us(|| mapper(None).search(Objective::Latency)).1);
    }
    let (scalar, scalar_us) = time_us(|| mapper(Some(1)).search(Objective::Latency));
    let same = scalar.as_ref().is_ok_and(|s| {
        s.best.latency.cc_total.to_bits() == batched.best.latency.cc_total.to_bits()
            && s.best.mapping == batched.best.mapping
    });
    out.check(same, || {
        format!("probe: batched != scalar on {}", case.layer.name())
    });
    let batched_us = med(&runs);
    acc.search_us.push(batched_us);
    acc.batched_us += batched_us;
    acc.scalar_us += scalar_us;
    acc.stats.absorb(&batched.stats);

    let m = mapper(None);
    let factors = m.factors();
    let limit = (m.space_size().min(case.opts.max_exhaustive)) as u64;
    acc.enumerate_us.push(reps_us(|| {
        let mut n = 0u64;
        for_each_ordering(&factors, |_| {
            n += 1;
            n < limit
        })
    }));
    Some(batched.best)
}

fn probe_model(
    out: &mut Outcome,
    acc: &mut Acc,
    case: &Case,
    arch: &Architecture,
    spatial: &SpatialUnroll,
    best: &EvaluatedMapping,
) {
    let model = if case.opts.bw_aware {
        LatencyModel::new()
    } else {
        LatencyModel::bw_unaware()
    };
    let Ok(view) = MappedLayer::new(&case.layer, arch, &best.mapping) else {
        out.fail(format!(
            "probe: best mapping of {} does not map",
            case.layer.name()
        ));
        return;
    };
    let opts = *model.options();
    let lowered = LoweredLayer::build(&view, model.dtl_options());
    acc.lower_us
        .push(reps_us(|| LoweredLayer::build(&view, model.dtl_options())));
    let mut stall = StallScratch::default();
    acc.step23_us.push(reps_us(|| {
        stall.combine_and_integrate(
            arch,
            lowered.dtls(),
            opts.union,
            opts.eq2_oversubscription_bound,
        )
    }));
    let mut scratch = ModelScratch::default();
    acc.fast_us
        .push(reps_us(|| model.evaluate_fast(&view, &mut scratch)));
    acc.report_us.push(reps_us(|| model.evaluate(&view)));
    let energy = EnergyModel::default();
    let mut escratch = EnergyScratch::default();
    acc.energy_total_us.push(reps_us(|| {
        energy.evaluate_total_lowered(&view, &lowered, &mut escratch)
    }));
    acc.energy_report_us
        .push(reps_us(|| energy.evaluate_lowered(&view, &lowered)));

    // Whatif: the GB bandwidth doubled, incrementally vs from scratch.
    if arch.hierarchy().find("GB").is_some() {
        out.attempted += 1;
        match apply_overrides(arch, &["mem.GB.bw=2x"]) {
            Ok((arch2, delta)) => match MappedLayer::new(&case.layer, &arch2, &best.mapping) {
                Ok(view2) => {
                    let mut ds = ModelScratch::default();
                    let mut delta_us = Vec::new();
                    let mut last = None;
                    for _ in 0..REPS {
                        model.evaluate_fast(&view, &mut ds);
                        let ((lat, stats), us) =
                            time_us(|| model.evaluate_delta_fast(&view2, delta, &mut ds));
                        delta_us.push(us);
                        last = Some((lat, stats));
                    }
                    let (lat, stats) = last.expect("REPS > 0");
                    acc.rebuilt += u64::from(stats.stages_rebuilt);
                    acc.skipped += u64::from(stats.stages_skipped);
                    acc.delta_us.push(median(&delta_us));
                    let mut fs = ModelScratch::default();
                    acc.full_us
                        .push(reps_us(|| model.evaluate_fast(&view2, &mut fs)));
                    let cold = model.evaluate_fast(&view2, &mut ModelScratch::default());
                    out.check(cold.cc_total.to_bits() == lat.cc_total.to_bits(), || {
                        format!("probe: whatif delta != cold on {}", case.layer.name())
                    });
                }
                Err(e) => out.fail(format!("probe: whatif view: {e}")),
            },
            Err(e) => out.fail(format!("probe: whatif knob: {e}")),
        }
    }

    // Surrogate: distinct points only, then each point once more from
    // the memo (counted, not timed).
    if let Ok(shape) = MappingShape::from_mapping(&best.mapping) {
        out.attempted += 1;
        let (sm, us) = time_us(|| SpecializedModel::prepare(model, arch, &case.layer, shape));
        let Ok(mut sm) = sm else {
            return;
        };
        acc.prepare_us.push(us);
        let (b0, k, c) = bkc(&case.layer);
        let points: Vec<u64> = (1..=SURROGATE_POINTS).map(|i| b0 + i).collect();
        let mut ok = true;
        for &b in &points {
            let (q, qus) = time_us(|| sm.query(b, k, c));
            let (o, ous) = time_us(|| sm.query_oracle(b, k, c));
            acc.query_us += qus;
            acc.oracle_us += ous;
            acc.queries += 1;
            ok &= match (q, o) {
                (Ok(q), Ok(o)) => q.cc_total.to_bits() == o.cc_total.to_bits(),
                (Err(_), Err(_)) => true,
                _ => false,
            };
        }
        let before = sm.stats().memo_hits;
        for &b in &points {
            let _ = sm.query(b, k, c);
        }
        acc.memo_hits += sm.stats().memo_hits - before;
        out.check(ok, || {
            format!("probe: surrogate query != oracle on {}", case.layer.name())
        });
    }

    // The batched kernel replaying this case's orderings.
    let factors = Mapper::new(arch, &case.layer, spatial.clone()).factors();
    let limit = case.opts.max_exhaustive.min(4_096) as usize;
    let mut orderings: Vec<Vec<(Dim, u64)>> = Vec::new();
    for_each_ordering(&factors, |o| {
        orderings.push(o.to_vec());
        orderings.len() < limit
    });
    let mut kernel = BatchKernel::new(
        arch,
        &case.layer,
        spatial,
        model,
        &factors,
        ulm::mapper::DEFAULT_BATCH_LANES,
    );
    let (mut push, mut drain) = (0.0, 0.0);
    let mut incumbent = None;
    // The search's visit rule: keep the first strictly better score.
    let drain_timed = |kernel: &mut BatchKernel, incumbent: &mut Option<f64>| {
        let mut inc = *incumbent;
        let (_, us) = time_us(|| {
            kernel.drain(inc, |_, o| {
                if let LaneOutcome::Scored(s) = o {
                    if inc.is_none_or(|i| s < i) {
                        inc = Some(s);
                    }
                }
                inc
            })
        });
        *incumbent = inc;
        us
    };
    for o in &orderings {
        if kernel.is_full() {
            drain += drain_timed(&mut kernel, &mut incumbent);
        }
        push += time_us(|| kernel.push(o)).1;
    }
    drain += drain_timed(&mut kernel, &mut incumbent);
    acc.push_us.push(push);
    acc.drain_us.push(drain);
}

fn probe_sim(
    out: &mut Outcome,
    acc: &mut Acc,
    case: &Case,
    arch: &Architecture,
    best: &EvaluatedMapping,
) {
    let Ok(view) = MappedLayer::new(&case.layer, arch, &best.mapping) else {
        return;
    };
    let lowered = LoweredLayer::build(&view, DtlOptions::default());
    let (schedule, us) = time_us(|| build_schedule_lowered(&view, &lowered, SIM_CAP));
    let Ok(schedule) = schedule else {
        return;
    };
    acc.schedule_us.push(us);
    out.attempted += 1;
    let sim = Simulator {
        max_transfers: SIM_CAP,
    };
    let (report, us) = time_us(|| sim.simulate_lowered(&view, &lowered));
    match report {
        Ok(r) => {
            acc.simulate_ms.push(us / 1e3);
            acc.sim_s += us / 1e6;
            acc.transfers += schedule.transfers.len() as u64;
            let s = r.total_cycles as f64;
            acc.accuracy
                .push((1.0 - (best.latency.cc_total - s).abs() / s) * 100.0);
        }
        Err(e) => out.fail(format!("probe: sim refused a schedule it built: {e}")),
    }
}

/// A small sweep per case: a seeded slice of the design pool at the
/// case's bandwidth, then the Pareto front over it.
fn probe_dse(out: &mut Outcome, cases: &[Case]) {
    let opts = ExploreOptions::default();
    let mut pareto_us = Vec::new();
    let (mut designs, mut feasible) = (0, 0);
    for case in cases.iter().take(2) {
        let bw = match &case.source {
            Source::Design(p) => p.gb_bw_bits,
            Source::Validation => 128,
        };
        let pool: Vec<DesignPoint> = enumerate_designs(&MemoryPool::default(), &[16, 32, 64], bw)
            .into_iter()
            .step_by(21)
            .collect();
        let (points, stats) = explore_with_stats(&pool, &case.layer, &opts);
        designs += stats.designs;
        feasible += stats.feasible;
        pareto_us.push(reps_us(|| pareto_front(&points)));
    }
    out.metric("dse.pareto_us", med(&pareto_us), "us");
    out.metric(
        "dse.feasible_frac",
        feasible as f64 / designs.max(1) as f64,
        "frac",
    );
}

/// Attention decode on the fusion chip, layer by layer and with the
/// logit+attend segment fused.
fn probe_network(out: &mut Outcome) {
    let chip = presets::fusion_chip();
    let layers = networks::attention_decode();
    let eval = |fuse: Vec<FusedSegment>| {
        NetworkEvaluator::new(&chip.arch, SpatialUnroll::new(chip.spatial.clone()))
            .with_fusion(fuse)
            .evaluate(&layers)
    };
    out.attempted += 2;
    let (plain, plain_us) = time_us(|| eval(Vec::new()));
    let fused_seg = vec![FusedSegment::new(
        vec!["logit".into(), "attend".into()],
        "LB",
    )];
    let (fused, fused_us) = time_us(|| eval(fused_seg));
    match (plain, fused) {
        (Ok(p), Ok(f)) => {
            out.check(f.total_cycles() < p.total_cycles(), || {
                "probe: fused attention decode is not cheaper than unfused".into()
            });
            out.metric("network.evaluate_ms", plain_us / 1e3, "ms");
            out.metric("network.evaluate_fused_ms", fused_us / 1e3, "ms");
            out.metric(
                "network.layers",
                (p.layers.len() + f.layers.len()) as f64,
                "count",
            );
        }
        _ => {
            out.fail("probe: attention decode did not evaluate");
            for name in [
                "network.evaluate_ms",
                "network.evaluate_fused_ms",
                "network.layers",
            ] {
                out.metric(name, f64::NAN, "ms");
            }
        }
    }
}

/// For each case a search, its repeat, an eval of the best mapping and
/// its repeat, a whatif and two surrogate points, then the two
/// attention-decode networks and a stats request.
fn probe_lines(cases: &[Case]) -> Vec<String> {
    let local = local_service();
    let mut lines = Vec::new();
    let mut id = 1_000_000u64;
    let mut next = || {
        id += 1;
        id
    };
    for case in cases.iter().take(CASES) {
        let (b, k, c) = bkc(&case.layer);
        let f = case.serve_fields(b);
        let search = format!(r#"{{"id":{},"kind":"search",{f}}}"#, next());
        let resp = local.handle_line(&search).unwrap_or_default();
        lines.push(search.clone());
        lines.push(search);
        if let Ok(eval) = eval_line(next(), &f, &resp) {
            lines.push(eval.clone());
            lines.push(eval);
        }
        lines.push(format!(
            r#"{{"id":{},"kind":"whatif",{f},"set":["mem.GB.bw=2x"]}}"#,
            next()
        ));
        for extra in [1, 2] {
            lines.push(format!(
                r#"{{"id":{},"kind":"surrogate",{},"template":"{b}x{k}x{c}"}}"#,
                next(),
                case.serve_fields(b + extra)
            ));
        }
    }
    for net in NET_LINES {
        lines.push(format!(r#"{{"id":{},{net}}}"#, next()));
    }
    lines.push(STATS_LINE.to_string());
    lines
}

/// The kind a probe line is reported under.
fn kind_of(line: &str, response: &str) -> &'static str {
    let kind = ["search", "eval", "whatif", "surrogate", "net", "stats"]
        .into_iter()
        .find(|k| line.contains(&format!(r#""kind":"{k}""#)))
        .unwrap_or("other");
    if matches!(kind, "search" | "eval") && response_cached(response) {
        "hit"
    } else {
        kind
    }
}

const SERVE_KINDS: [&str; 7] = [
    "hit",
    "search",
    "eval",
    "whatif",
    "surrogate",
    "net",
    "stats",
];

/// In process: `handle_line` per kind plus parse, fingerprint, cache and
/// log-append costs. Over TCP: the same lines through a fresh reactor
/// server, whose extra time per hit is the transport's.
fn probe_serve(ctx: &Ctx, out: &mut Outcome, lines: &[String]) {
    let local = local_service();
    let (_, stats_start) = time_us(|| local.handle_line(STATS_LINE));
    let mut per_kind: Vec<(&str, f64)> = Vec::new();
    let mut answers = Vec::new();
    for line in lines {
        let (resp, us) = time_us(|| local.handle_line(line).unwrap_or_default());
        per_kind.push((kind_of(line, &resp), us));
        answers.push(resp);
    }
    let (_, stats_end) = time_us(|| local.handle_line(STATS_LINE));
    for kind in SERVE_KINDS {
        let xs: Vec<f64> = per_kind
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, us)| *us)
            .collect();
        out.metric(&format!("serve.handle_line_us.{kind}"), med(&xs), "us");
    }

    let mut parse = Vec::new();
    let mut fp = Vec::new();
    let mut fps = Vec::new();
    for line in lines {
        let (v, us) = time_us(|| serde_json::from_str::<serde::Value>(line));
        parse.push(us);
        if let Ok(v) = v {
            let (f, us) = time_us(|| fingerprint_value(&v));
            fp.push(us);
            fps.push(f);
        }
    }
    let cache: ResultCache<String> = ResultCache::new(4096);
    for (f, a) in fps.iter().zip(&answers) {
        cache.insert(*f, a.clone());
    }
    let get: Vec<f64> = fps.iter().map(|f| time_us(|| cache.get(*f)).1).collect();
    out.metric("serve.parse_us", med(&parse), "us");
    out.metric("serve.fingerprint_us", med(&fp), "us");
    out.metric("serve.cache_get_us", med(&get), "us");
    out.metric(
        "serve.cache_hit_rate",
        local.cache_stats().hit_rate(),
        "frac",
    );

    let mut append = Vec::new();
    match CacheLog::open(&ctx.tmp.join("probe.ulmlog")) {
        Ok((mut log, _, _)) => {
            for (f, a) in fps.iter().zip(&answers) {
                append.push(time_us(|| log.append(f.as_u128(), a.as_bytes())).1);
            }
        }
        Err(e) => out.fail(format!("probe: cache log: {e}")),
    }
    out.metric("serve.store_append_us", med(&append), "us");
    out.metric("serve.stats_start_us", stats_start, "us");
    out.metric("serve.stats_end_us", stats_end, "us");

    // The same lines over TCP, one connection, checked against the
    // in-process answers.
    let mut overhead = Vec::new();
    let mut bytes = 0u64;
    if let Err(e) = reactor_replay(
        ctx,
        out,
        lines,
        &answers,
        &per_kind,
        &mut overhead,
        &mut bytes,
    ) {
        out.fail(format!("probe: reactor: {e}"));
    }
    out.metric("reactor.overhead_us", med(&overhead), "us");
    out.metric(
        "reactor.bytes_per_req",
        bytes as f64 / lines.len().max(1) as f64,
        "bytes",
    );
}

fn reactor_replay(
    ctx: &Ctx,
    out: &mut Outcome,
    lines: &[String],
    answers: &[String],
    per_kind: &[(&str, f64)],
    overhead: &mut Vec<f64>,
    bytes: &mut u64,
) -> Result<(), String> {
    let server = Server::spawn(&ctx.ulm, &ctx.tmp.join("probe-cache"))?;
    let mut conn = server.connect()?;
    for ((line, want), (kind, local_us)) in lines.iter().zip(answers).zip(per_kind) {
        let (resp, us) = conn.request(line)?;
        out.attempted += 1;
        *bytes += (line.len() + resp.len() + 2) as u64;
        if *kind == "stats" {
            continue;
        }
        check_response(out, line, resp, want);
        if *kind == "hit" {
            overhead.push(us - local_us);
        }
    }
    drop(conn);
    server.shutdown()
}
