//! Property tests: the optimized search (allocation-free fast path,
//! shared residency routine, branch-and-bound pruning, prefix
//! memoization, intra-design parallelism, batched lanes) returns the
//! byte-identical best mapping — same latency bits, same ordering, same
//! first-strictly-better tie-break — as the naive exhaustive/sampled
//! serial search over the from-scratch oracle (`with_greedy_alloc`,
//! `MappedLayer::new`, a full lowering per ordering). The draws match
//! `tests/batch_equivalence.rs`: every preset, matmul and conv layers,
//! with and without a KV-cache resident weight operand.

use proptest::prelude::*;
use ulm_arch::presets;
use ulm_mapper::{
    enumerate, factorize::Factor, EvaluatedMapping, Mapper, MapperOptions, Objective,
};
use ulm_mapping::SpatialUnroll;
use ulm_workload::{Layer, LayerShape, Operand, Precision};

/// The presets `tests/batch_equivalence.rs` draws from.
fn preset(idx: usize) -> presets::PresetChip {
    match idx {
        0 => presets::toy_chip(),
        1 => presets::validation_chip(),
        2 => presets::scaled_case_study_chip(16, 128),
        3 => presets::tpu_like_chip(16),
        _ => presets::fusion_chip(),
    }
}

fn matmul(b: u64, k: u64, c: u64, kv: bool) -> Layer {
    let layer = Layer::matmul(format!("({b},{k},{c})"), b, k, c, Precision::int8_acc24());
    with_kv(layer, kv)
}

fn conv(k: u64, c: u64, oy: u64, f: u64, kv: bool) -> Layer {
    let shape = LayerShape::conv(1, k, c, oy, oy, f, f);
    let layer = Layer::conv2d(
        format!("({k},{c},{oy},{f})"),
        shape,
        Precision::int8_acc24(),
    );
    with_kv(layer, kv)
}

fn with_kv(layer: Layer, kv: bool) -> Layer {
    if kv {
        layer.with_kv_cache(Operand::W)
    } else {
        layer
    }
}

/// The pre-optimization search semantics, reimplemented verbatim: list
/// the candidate orderings (full enumeration within `max_exhaustive`,
/// else stationary seeds + uniform samples), evaluate each with the slow
/// per-ordering path, keep the first strictly better score.
fn reference_search(
    mapper: &Mapper<'_>,
    opts: &MapperOptions,
    obj: Objective,
) -> Option<EvaluatedMapping> {
    let factors = mapper.factors();
    let candidates: Vec<Vec<Factor>> = if mapper.space_size() <= opts.max_exhaustive {
        let mut all = Vec::new();
        enumerate::for_each_ordering(&factors, |o| {
            all.push(o.to_vec());
            true
        });
        all
    } else {
        let mut c = enumerate::seeded_orderings(&factors);
        c.extend(enumerate::sample_orderings(
            &factors,
            opts.samples,
            opts.seed,
        ));
        c
    };
    let mut best: Option<EvaluatedMapping> = None;
    for ordering in &candidates {
        if let Some(em) = mapper.evaluate_ordering(ordering) {
            let better = best
                .as_ref()
                .map(|b| em.score(obj) < b.score(obj))
                .unwrap_or(true);
            if better {
                best = Some(em);
            }
        }
    }
    best
}

fn check_case(
    layer: &Layer,
    preset_idx: usize,
    obj: Objective,
    bw_aware: bool,
) -> Result<(), TestCaseError> {
    let chip = preset(preset_idx);
    let opts = MapperOptions {
        max_exhaustive: 3_000,
        samples: 40,
        bw_aware,
        ..MapperOptions::default()
    };
    let mapper =
        Mapper::new(&chip.arch, layer, SpatialUnroll::new(chip.spatial.clone())).with_options(opts);
    let reference = reference_search(&mapper, &opts, obj);

    for threads in [None, Some(2), Some(4)] {
        for lanes in [Some(1), None] {
            let mapper = Mapper::new(&chip.arch, layer, SpatialUnroll::new(chip.spatial.clone()))
                .with_options(opts)
                .with_parallelism(threads)
                .with_batch_lanes(lanes);
            let result = mapper.search(obj);
            match (&reference, result) {
                (None, Err(_)) => {}
                (Some(want), Ok(got)) => {
                    prop_assert_eq!(
                        &want.mapping,
                        &got.best.mapping,
                        "threads {:?} lanes {:?}: different best mapping",
                        threads,
                        lanes
                    );
                    prop_assert_eq!(
                        want.score(obj).to_bits(),
                        got.best.score(obj).to_bits(),
                        "threads {:?} lanes {:?}: score bits diverged",
                        threads,
                        lanes
                    );
                    prop_assert_eq!(
                        want.latency.cc_total.to_bits(),
                        got.best.latency.cc_total.to_bits()
                    );
                    // Every candidate is accounted for: scored, pruned, or
                    // illegal.
                    prop_assert!(got.stats.evaluated + got.stats.pruned <= got.stats.generated);
                }
                (want, got) => {
                    return Err(TestCaseError::fail(format!(
                        "threads {threads:?} lanes {lanes:?}: reference {} but search {}",
                        if want.is_some() {
                            "found a mapping"
                        } else {
                            "found nothing"
                        },
                        if got.is_ok() { "succeeded" } else { "failed" },
                    )));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Latency search (the pruned path) is exactly equivalent to the
    /// naive serial search, at every thread count and lane width.
    #[test]
    fn pruned_parallel_latency_search_matches_reference(
        b in 1u64..=24,
        k in 1u64..=24,
        c in 1u64..=32,
        preset_idx in 0usize..5,
        kv in any::<bool>(),
        bw_aware in any::<bool>(),
    ) {
        check_case(&matmul(b, k, c, kv), preset_idx, Objective::Latency, bw_aware)?;
    }

    /// Conv layers take the residency routine's non-multiplicative
    /// input-halo path.
    #[test]
    fn pruned_parallel_conv_latency_search_matches_reference(
        k in 1u64..=8,
        c in 1u64..=8,
        oy in 2u64..=6,
        f in 1u64..=3,
        preset_idx in 0usize..5,
        kv in any::<bool>(),
        bw_aware in any::<bool>(),
    ) {
        check_case(&conv(k, c, oy, f, kv), preset_idx, Objective::Latency, bw_aware)?;
    }

    /// Energy and EDP searches (no pruning, no batched lanes) are also
    /// exactly equivalent.
    #[test]
    fn energy_and_edp_search_match_reference(
        b in 1u64..=16,
        k in 1u64..=16,
        c in 1u64..=16,
        preset_idx in 0usize..5,
        kv in any::<bool>(),
    ) {
        let layer = matmul(b, k, c, kv);
        check_case(&layer, preset_idx, Objective::Energy, true)?;
        check_case(&layer, preset_idx, Objective::Edp, true)?;
    }

    /// The same for conv layers.
    #[test]
    fn energy_and_edp_conv_search_match_reference(
        k in 1u64..=8,
        c in 1u64..=8,
        oy in 2u64..=6,
        f in 1u64..=3,
        preset_idx in 0usize..5,
        kv in any::<bool>(),
    ) {
        let layer = conv(k, c, oy, f, kv);
        check_case(&layer, preset_idx, Objective::Energy, true)?;
        check_case(&layer, preset_idx, Objective::Edp, true)?;
    }
}
