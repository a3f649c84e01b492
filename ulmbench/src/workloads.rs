//! The workloads. Each runs untraced for the end-to-end metrics or traced
//! for the per-layer ones, and checks its outputs either way.

use crate::check::Outcome;
use crate::gen::{fig7_grid, layer_order};
use crate::probes::{self, Case};
use crate::stats::{median, quantile, Digest, Rng, Summary, STEADY_Q};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use ulm::dse::DesignPoint;
use ulm::model::DtlOptions;
use ulm::prelude::*;

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory inside the checkout, removed after the run.
    pub tmp: PathBuf,
    /// The `ulm` binary, for the reactor probe.
    pub ulm: PathBuf,
}

pub const WORKLOADS: [&str; 2] = ["dse-fig8", "fig5-validate"];

pub fn run(name: &str, ctx: &Ctx, out: &mut Outcome) {
    match name {
        "dse-fig8" => dse_fig8(ctx, out),
        "fig5-validate" => fig5_validate(ctx, out),
        other => unreachable!("unknown workload {other}"),
    }
}

/// One set-up and its wall time in seconds.
fn time_setup<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// When a run of rounds stops: after a wall-time budget (and at least
/// [`MIN_ROUNDS`] rounds), or after a number of rounds.
#[derive(Debug, Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Rounds(usize),
}

/// Rounds every timed run makes, however slow the host.
const MIN_ROUNDS: usize = 3;

/// Set-ups timed again between operations of an untraced run.
struct SetupProbe<'a> {
    setup: Box<dyn FnMut() + 'a>,
    /// Operations between two sample points.
    every: usize,
    /// Set-ups per sample point, so a short set-up still times about a
    /// millisecond; the point keeps the batch's median.
    batch: usize,
}

/// Timings from rounds that each run the same operations in the same
/// order, so two rounds differ only in how fast the host ran them.
struct Rounds {
    /// Wall time of each round in seconds, set-up samples left out.
    round_s: Vec<f64>,
    /// Each operation's fastest time over the rounds, in ms.
    best_ms: Vec<f64>,
    /// Set-up time at each sample point, in seconds.
    setup_s: Vec<f64>,
}

/// Runs `op(0..ops)` in rounds until `until`. Between operations it
/// times the set-up again when `setup` is given.
fn run_rounds(
    ops: usize,
    until: Until,
    mut setup: Option<SetupProbe>,
    mut op: impl FnMut(usize),
) -> Rounds {
    let mut r = Rounds {
        round_s: Vec::new(),
        best_ms: vec![f64::INFINITY; ops],
        setup_s: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let done = match until {
            Until::Elapsed(d) => r.round_s.len() >= MIN_ROUNDS && start.elapsed() >= d,
            Until::Rounds(n) => r.round_s.len() >= n,
        };
        if done {
            return r;
        }
        let mut round = Duration::ZERO;
        for i in 0..ops {
            let t0 = Instant::now();
            op(i);
            let took = t0.elapsed();
            round += took;
            r.best_ms[i] = r.best_ms[i].min(took.as_secs_f64() * 1e3);
            if let Some(p) = setup.as_mut().filter(|p| (i + 1) % p.every == 0) {
                let batch: Vec<f64> = (0..p.batch).map(|_| time_setup(&mut p.setup).1).collect();
                r.setup_s.push(median(&batch));
            }
        }
        r.round_s.push(round.as_secs_f64());
    }
}

/// The end-to-end metrics every workload reports. A round repeats the
/// same work, so two runs of one operation differ only in how much the
/// host's other tenants slowed it. Each operation is therefore read at
/// its fastest round: `ops_per_s` is the operations over the sum of
/// those times, and the latency quantiles are taken over them. Set-up
/// samples are read at their fast end, [`STEADY_Q`].
fn end_to_end(out: &mut Outcome, first_setup_s: f64, rss_mb: f64, r: &Rounds) {
    let mut setups = r.setup_s.clone();
    setups.push(first_setup_s);
    let best_s = r.best_ms.iter().sum::<f64>() / 1e3;
    let lat = Summary::of(&r.best_ms);
    out.metric("setup_s", quantile(&setups, STEADY_Q), "s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("ops_per_s", r.best_ms.len() as f64 / best_s, "1/s");
    out.metric("op_p50_ms", lat.median, "ms");
    out.metric("op_tail_ms", lat.tail, "ms");
    out.note(format!(
        "rounds: {} of {} ops, median {:.4} s, the fastest rounds of each op {:.4} s; set-up samples: {}, median {:.6} s",
        r.round_s.len(),
        r.best_ms.len(),
        median(&r.round_s),
        best_s,
        setups.len(),
        median(&setups)
    ));
    out.note(format!("op latency (fastest round): {}", lat.label("ms")));
}

/// The metrics the traced run adds about the trace itself.
fn trace_metrics(out: &mut Outcome, tracer: &Tracer, traced_wall: f64, untraced_wall: f64) {
    let wall_ns = (traced_wall * 1e9) as u64;
    out.metric(
        "trace.unattributed_frac",
        tracer.unattributed_frac(wall_ns),
        "frac",
    );
    out.metric("trace.overhead_frac", traced_wall / untraced_wall, "ratio");
    for (name, ns) in tracer.totals_ns() {
        out.note(format!(
            "span {name}: {:.1}% of traced wall",
            100.0 * ns as f64 / wall_ns as f64
        ));
    }
}

/// Peak resident set of this process in MB (`VmHWM`), from procfs.
fn self_rss() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

fn matmul(b: u64, k: u64, c: u64) -> Layer {
    Layer::matmul(format!("({b},{k},{c})"), b, k, c, Precision::int8_out24())
}

/// Batched vs one-lane search: same best mapping, same counters.
fn oracle_batched_vs_scalar(
    out: &mut Outcome,
    arch: &Architecture,
    spatial: &SpatialUnroll,
    layer: &Layer,
    opts: MapperOptions,
    expect_cc: Option<f64>,
) {
    out.attempted += 1;
    let mapper = |lanes| {
        Mapper::new(arch, layer, spatial.clone())
            .with_options(opts)
            .with_batch_lanes(lanes)
            .search(Objective::Latency)
    };
    match (mapper(None), mapper(Some(1))) {
        (Ok(b), Ok(s)) => {
            let same = b.best.latency.cc_total.to_bits() == s.best.latency.cc_total.to_bits()
                && b.best.mapping == s.best.mapping
                && (b.stats.generated, b.stats.evaluated, b.stats.pruned)
                    == (s.stats.generated, s.stats.evaluated, s.stats.pruned)
                && expect_cc.is_none_or(|cc| cc.to_bits() == b.best.latency.cc_total.to_bits());
            out.check(same, || {
                format!("batched != scalar search on {}", layer.name())
            })
        }
        (Err(_), Err(_)) => out.check(expect_cc.is_none(), || {
            format!(
                "search failed on {} but the run found a mapping",
                layer.name()
            )
        }),
        _ => out.check(false, || {
            format!(
                "batched and scalar disagree on legality of {}",
                layer.name()
            )
        }),
    };
}

// ---------------------------------------------------------------------------
// dse-fig8
// ---------------------------------------------------------------------------

const GB_BWS: [u64; 2] = [128, 1024];
const SIDES: [u64; 3] = [16, 32, 64];

/// Digest of every design's point (latency, area, utilization, stall)
/// and the Pareto front for the `ulm dse` default layer 256x256x64 at
/// both GB bandwidths.
const DSE_REFERENCE_DIGEST: u64 = 0xc744_f8fa_c40a_dc64;

struct DseInputs {
    designs: Vec<Vec<DesignPoint>>,
    layers: Vec<Layer>,
    order: Vec<usize>,
}

fn dse_inputs(seed: u64) -> DseInputs {
    let pool = MemoryPool::default();
    let designs: Vec<Vec<DesignPoint>> = GB_BWS
        .iter()
        .map(|&bw| enumerate_designs(&pool, &SIDES, bw))
        .collect();
    let layers = fig7_grid(seed)
        .into_iter()
        .map(|(b, k, c)| matmul(b, k, c))
        .collect();
    // Seeded order within each array side, the sides interleaved: the
    // side sets most of a design's cost, so every stretch of ops meets
    // the sides in equal shares.
    let mut rng = Rng::stream(seed, "dse-order");
    let by_side: Vec<Vec<usize>> = SIDES
        .iter()
        .map(|&side| {
            let mut ids: Vec<usize> = (0..designs[0].len())
                .filter(|&d| designs[0][d].params.array_side == side)
                .collect();
            rng.shuffle(&mut ids);
            ids
        })
        .collect();
    let per_side = by_side[0].len();
    assert!(
        by_side.iter().all(|ids| ids.len() == per_side),
        "the pool has the same number of designs at every side"
    );
    let order = (0..per_side)
        .flat_map(|k| by_side.iter().map(move |ids| ids[k]))
        .collect();
    DseInputs {
        designs,
        layers,
        order,
    }
}

impl DseInputs {
    /// Op `i` pairs the `i`-th (layer, bandwidth) pair with the `i`-th
    /// design, both cycling in seeded order. Every stretch of a run covers
    /// the whole layer grid and the whole design pool alike, so a run's
    /// work does not hinge on which few layers the seed drew. As the
    /// sides alternate and 686 pairs are prime to three sides, every
    /// three laps over the pairs meet each pair with each side once.
    fn op(&self, i: u64) -> (&DesignPoint, &Layer) {
        let pairs = (self.layers.len() * GB_BWS.len()) as u64;
        let pair = (i % pairs) as usize;
        let design = self.order[(i % self.order.len() as u64) as usize];
        (
            &self.designs[pair % GB_BWS.len()][design],
            &self.layers[pair / GB_BWS.len()],
        )
    }
}

fn dse_point_digest(d: &mut Digest, p: &DsePoint) {
    let q = p.params;
    for v in [
        q.array_side,
        q.w_reg_words,
        q.i_reg_words,
        q.o_reg_words,
        q.w_lb_kb,
        q.i_lb_kb,
        q.gb_bw_bits,
    ] {
        d.u64(v);
    }
    for v in [p.latency, p.area_mm2, p.utilization, p.ss_overall] {
        d.f64(v);
    }
}

fn dse_reference(out: &mut Outcome, inputs: &DseInputs, opts: &ExploreOptions) {
    let layer = matmul(256, 256, 64);
    let mut d = Digest::new();
    let mut fronts = Vec::new();
    for designs in &inputs.designs {
        let (points, _) = explore_with_stats(designs, &layer, opts);
        for p in &points {
            dse_point_digest(&mut d, p);
        }
        let front = pareto_front(&points);
        for &i in &front {
            d.u64(i as u64);
        }
        fronts.push(front.len());
    }
    out.attempted += 1;
    out.check_digest(
        "dse reference (256x256x64)",
        d.value(),
        DSE_REFERENCE_DIGEST,
    );
    out.note(format!("dse reference Pareto fronts: {fronts:?} designs"));
}

/// The run's wall-time budget: all of `--seconds` untraced; a traced run
/// spends a quarter untraced and then repeats those rounds traced.
fn budget(ctx: &Ctx) -> Until {
    Until::Elapsed(Duration::from_secs_f64(if ctx.traced {
        ctx.seconds / 4.0
    } else {
        ctx.seconds
    }))
}

/// Traces the same number of rounds as the untraced run `run` made, and
/// reports the trace metrics.
fn traced_rounds(
    out: &mut Outcome,
    run: &Rounds,
    ops: usize,
    mut op: impl FnMut(usize, &mut Tracer, &mut Outcome),
) {
    let mut tracer = Tracer::new(true);
    let traced = run_rounds(ops, Until::Rounds(run.round_s.len()), None, |i| {
        op(i, &mut tracer, out)
    });
    let wall = |r: &Rounds| r.round_s.iter().sum::<f64>();
    trace_metrics(out, &tracer, wall(&traced), wall(run));
}

/// Rounds of [`DSE_ROUND_LAPS`] laps over the (layer, bandwidth) pairs:
/// every round meets each pair with each array side five times. A
/// round's op latencies have a heavy tail; fifteen laps (10290 ops) hold
/// about a hundred ops beyond the p99.
const DSE_ROUND_LAPS: usize = 15;

/// Everything the dse operations accumulate over a run.
#[derive(Default)]
struct DseState {
    /// Each op's latency bits from the first round (`u64::MAX` for an
    /// infeasible design); later rounds must reproduce them exactly.
    first: Vec<u64>,
    search: SearchStats,
    feasible: u64,
}

/// One dse operation: explore one design on one layer.
fn dse_op(
    inputs: &DseInputs,
    opts: &ExploreOptions,
    i: usize,
    st: &mut DseState,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let (design, layer) = inputs.op(i as u64);
    let (points, stats) = tracer.span("dse.explore_with_stats", || {
        explore_with_stats(std::slice::from_ref(design), layer, opts)
    });
    st.search.absorb(&stats.search);
    st.feasible += stats.feasible as u64;
    out.attempted += 1;
    let bits = points.first().map_or(u64::MAX, |p| p.latency.to_bits());
    match st.first.get(i) {
        Some(&first) => {
            out.check(first == bits, || {
                format!("dse op {i} changed between rounds")
            });
        }
        None => st.first.push(bits),
    }
}

fn dse_fig8(ctx: &Ctx, out: &mut Outcome) {
    let opts = ExploreOptions::default();
    let (inputs, first_setup) = time_setup(|| dse_inputs(ctx.seed));
    dse_reference(out, &inputs, &opts);
    let ops = DSE_ROUND_LAPS * inputs.layers.len() * GB_BWS.len();
    let mut st = DseState::default();
    let mut off = Tracer::new(false);
    // About four set-ups per round, each some milliseconds.
    let setup = (!ctx.traced).then(|| SetupProbe {
        setup: Box::new(|| drop(dse_inputs(ctx.seed))),
        every: ops / 4,
        batch: 1,
    });
    let run = run_rounds(ops, budget(ctx), setup, |i| {
        dse_op(&inputs, &opts, i, &mut st, &mut off, out)
    });

    // Oracle: a seeded sample of the ops, searched again batched and
    // one lane at a time.
    let mut rng = Rng::stream(ctx.seed, "dse-oracle");
    for _ in 0..24 {
        let i = rng.next_u64() % ops as u64;
        let (design, layer) = inputs.op(i);
        let cc = Some(st.first[i as usize])
            .filter(|&b| b != u64::MAX)
            .map(f64::from_bits);
        oracle_batched_vs_scalar(out, &design.arch, &design.spatial, layer, opts.mapper, cc);
    }
    out.note(format!(
        "dse: {} designs over {} layers x {:?} b/cy, {} feasible; orderings {} generated, {} evaluated, {} pruned",
        run.round_s.len() * ops, inputs.layers.len(), GB_BWS, st.feasible, st.search.generated, st.search.evaluated, st.search.pruned
    ));
    if !ctx.traced {
        end_to_end(out, first_setup, self_rss(), &run);
        return;
    }
    traced_rounds(out, &run, ops, |i, tracer, out| {
        dse_op(&inputs, &opts, i, &mut st, tracer, out)
    });

    probes::run_all(
        ctx,
        out,
        dse_probe_cases(&inputs, ctx.seed).take(DSE_PROBE_DRAWS),
        probes::CASES,
    );
}

/// Most (design, layer) pairs the dse probes draw. In a sample of 300
/// seeded pairs, 299 fit under the simulation cap, so the first
/// [`probes::CASES`] pairs nearly always give [`probes::SIM_MIN`].
const DSE_PROBE_DRAWS: usize = 64;

/// Probe cases: a seeded stream of (design, layer) pairs of the pool.
fn dse_probe_cases(inputs: &DseInputs, seed: u64) -> impl Iterator<Item = Case> + '_ {
    let mut rng = Rng::stream(seed, "dse-probe");
    std::iter::repeat_with(move || {
        let bw = rng.next_u64() as usize % GB_BWS.len();
        let d = &inputs.designs[bw][rng.next_u64() as usize % inputs.designs[bw].len()];
        let layer = inputs.layers[rng.next_u64() as usize % inputs.layers.len()].clone();
        Case::design(d.params, layer, ExploreOptions::default().mapper)
    })
}

// ---------------------------------------------------------------------------
// fig5-validate
// ---------------------------------------------------------------------------

/// Digest of (layer name, model cycles, simulated cycles) over the 14
/// hand-tracking validation layers, in their canonical order.
const FIG5_DIGEST: u64 = 0xad76_5d6e_7cd0_c7fa;

/// `ulm validate`'s mapper settings (its CLI defaults).
pub fn validate_mapper_options() -> MapperOptions {
    MapperOptions {
        max_exhaustive: 3_000,
        samples: 120,
        ..MapperOptions::default()
    }
}

struct Fig5Inputs {
    arch: Architecture,
    spatial: SpatialUnroll,
    layers: Vec<Layer>,
    /// Each layer's ordering-space size, which decides whether its
    /// search is exhaustive or sampled.
    spaces: Vec<u128>,
}

/// The chip, the layers and each layer's mapping space.
fn fig5_inputs() -> Fig5Inputs {
    let chip = presets::validation_chip();
    let spatial = SpatialUnroll::new(chip.spatial);
    let layers = networks::handtracking_validation_layers();
    let spaces = layers
        .iter()
        .map(|l| Mapper::new(&chip.arch, l, spatial.clone()).space_size())
        .collect();
    Fig5Inputs {
        arch: chip.arch,
        spatial,
        layers,
        spaces,
    }
}

/// One layer of the `ulm validate` protocol: search, then simulate the
/// best mapping over one shared lowering.
fn validate_layer(
    inp: &Fig5Inputs,
    layer: &Layer,
    tracer: &mut Tracer,
) -> Result<(f64, u64), String> {
    let best = tracer
        .span("mapper.search", || {
            Mapper::new(&inp.arch, layer, inp.spatial.clone())
                .with_options(validate_mapper_options())
                .search(Objective::Latency)
        })
        .map_err(|e| e.to_string())?
        .best;
    let view = MappedLayer::new(layer, &inp.arch, &best.mapping).map_err(|e| e.to_string())?;
    let lowered = tracer.span("model.lower", || {
        LoweredLayer::build(&view, DtlOptions::default())
    });
    let sim = tracer
        .span("sim.simulate_lowered", || {
            Simulator::new().simulate_lowered(&view, &lowered)
        })
        .map_err(|e| e.to_string())?;
    Ok((best.latency.cc_total, sim.total_cycles))
}

/// One fig5 operation: validate the `i`-th layer of the seeded order.
/// Results must repeat exactly across rounds.
fn fig5_op(
    inp: &Fig5Inputs,
    li: usize,
    results: &mut [Option<(f64, u64)>],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    out.attempted += 1;
    match validate_layer(inp, &inp.layers[li], tracer) {
        Ok(r) => match results[li] {
            Some(first) => {
                out.check(first.0.to_bits() == r.0.to_bits() && first.1 == r.1, || {
                    format!(
                        "fig5 layer {} changed between rounds",
                        inp.layers[li].name()
                    )
                });
            }
            None => results[li] = Some(r),
        },
        Err(e) => out.fail(format!("fig5 layer {}: {e}", inp.layers[li].name())),
    }
}

fn fig5_accuracy(results: &[Option<(f64, u64)>]) -> (f64, f64) {
    let acc: Vec<f64> = results
        .iter()
        .flatten()
        .map(|&(m, s)| (1.0 - (m - s as f64).abs() / s as f64) * 100.0)
        .collect();
    let mean = acc.iter().sum::<f64>() / acc.len() as f64;
    let worst = acc.iter().copied().fold(f64::INFINITY, f64::min);
    (mean, worst)
}

fn fig5_validate(ctx: &Ctx, out: &mut Outcome) {
    let (inp, first_setup) = time_setup(fig5_inputs);
    let limit = validate_mapper_options().max_exhaustive;
    out.note(format!(
        "fig5 ordering spaces: {:?}, {} of {} searched exhaustively",
        inp.spaces,
        inp.spaces.iter().filter(|&&n| n <= limit).count(),
        inp.spaces.len()
    ));
    let order = layer_order(ctx.seed, inp.layers.len());
    let mut results = vec![None; inp.layers.len()];
    let mut off = Tracer::new(false);
    // A set-up takes about 25 us: a batch of 40 after every layer.
    let setup = (!ctx.traced).then(|| SetupProbe {
        setup: Box::new(|| drop(fig5_inputs())),
        every: 1,
        batch: 40,
    });
    let run = run_rounds(order.len(), budget(ctx), setup, |i| {
        fig5_op(&inp, order[i], &mut results, &mut off, out)
    });

    let mut d = Digest::new();
    for (layer, r) in inp.layers.iter().zip(&results) {
        d.str(layer.name());
        if let Some((m, s)) = r {
            d.f64(*m);
            d.u64(*s);
        }
    }
    out.attempted += 1;
    out.check_digest("fig5 model and sim cycles", d.value(), FIG5_DIGEST);
    let (mean, worst) = fig5_accuracy(&results);
    out.note(format!(
        "fig5 accuracy: mean {mean:.1}%, worst {worst:.1}% over {} layers",
        inp.layers.len()
    ));

    let mut rng = Rng::stream(ctx.seed, "fig5-oracle");
    for _ in 0..3 {
        let li = rng.next_u64() as usize % inp.layers.len();
        let cc = results[li].map(|r| r.0);
        oracle_batched_vs_scalar(
            out,
            &inp.arch,
            &inp.spatial,
            &inp.layers[li],
            validate_mapper_options(),
            cc,
        );
    }
    if !ctx.traced {
        end_to_end(out, first_setup, self_rss(), &run);
        return;
    }
    traced_rounds(out, &run, order.len(), |i, tracer, out| {
        fig5_op(&inp, order[i], &mut results, tracer, out)
    });
    let cases = inp
        .layers
        .iter()
        .map(|l| Case::validation(l.clone(), validate_mapper_options()));
    probes::run_all(ctx, out, cases, inp.layers.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first ops' (design, layer) pairs and the first probe cases.
    fn dse_draws(seed: u64) -> Vec<String> {
        let inputs = dse_inputs(seed);
        let ops = (0..500).map(|i| {
            let (d, l) = inputs.op(i);
            format!("{:?} {}", d.params, l.name())
        });
        let cases = dse_probe_cases(&inputs, seed)
            .take(16)
            .map(|c| format!("{c:?}"));
        ops.chain(cases).collect()
    }

    #[test]
    fn rounds_repeat_the_ops_in_order_and_keep_each_fastest() {
        let mut seen = Vec::new();
        let r = run_rounds(3, Until::Rounds(4), None, |i| seen.push(i));
        assert_eq!(seen, [0, 1, 2].repeat(4));
        assert_eq!((r.round_s.len(), r.best_ms.len()), (4, 3));
        assert!(r.best_ms.iter().all(|ms| ms.is_finite()));

        let mut setups = 0;
        let probe = SetupProbe {
            setup: Box::new(|| setups += 1),
            every: 2,
            batch: 5,
        };
        let r = run_rounds(4, Until::Elapsed(Duration::ZERO), Some(probe), |_| {});
        assert_eq!(r.round_s.len(), MIN_ROUNDS);
        assert_eq!(r.setup_s.len(), 2 * MIN_ROUNDS);
        assert_eq!(setups, 5 * 2 * MIN_ROUNDS);
    }

    #[test]
    fn same_seed_same_designs_other_seed_other_designs() {
        assert_eq!(dse_draws(3), dse_draws(3));
        assert_ne!(dse_draws(3), dse_draws(4));
    }
}
