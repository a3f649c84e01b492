//! Property tests for the reference simulator: determinism, bandwidth
//! monotonicity, conservation laws and agreement of its entry points.

use proptest::prelude::*;
use ulm::model::DtlOptions;
use ulm::prelude::*;
use ulm::sim::{build_schedule_lowered, engine};

/// A case-study chip variant with configurable GB bandwidth, plus a layer
/// and a shuffled loop ordering.
fn arb_case() -> impl Strategy<Value = (u64, u64, u64, Vec<(Dim, u64)>)> {
    (2u32..5, 2u32..5, 3u32..6, any::<u64>()).prop_map(|(bexp, kexp, cexp, seed)| {
        let b = 8u64 << (bexp % 3);
        let k = 16u64 << (kexp % 3);
        let c = 2u64 << cexp;
        // Temporal factors after spatial K16|B8|C2.
        let mut factors = Vec::new();
        let mut push = |dim: Dim, mut n: u64| {
            while n.is_multiple_of(2) && n > 1 {
                factors.push((dim, 2u64));
                n /= 2;
            }
            if n > 1 {
                factors.push((dim, n));
            }
        };
        push(Dim::B, b / 8);
        push(Dim::K, k / 16);
        push(Dim::C, c / 2);
        let mut s = seed;
        for i in (1..factors.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            factors.swap(i, j);
        }
        (b, k, c, factors)
    })
}

fn simulate(gb_bw: u64, b: u64, k: u64, c: u64, stack: &[(Dim, u64)]) -> Option<SimReport> {
    let arch = presets::case_study_chip(gb_bw);
    let layer = Layer::matmul("p", b, k, c, Precision::int8_acc24());
    let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
    let mapping =
        Mapping::with_greedy_alloc(&arch, &layer, spatial, LoopStack::from_pairs(stack)).ok()?;
    let view = MappedLayer::new(&layer, &arch, &mapping).ok()?;
    Simulator::new().simulate(&view).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulation_is_deterministic((b, k, c, stack) in arb_case()) {
        let Some(r1) = simulate(128, b, k, c, &stack) else { return Ok(()); };
        let r2 = simulate(128, b, k, c, &stack).expect("same inputs simulate");
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn more_gb_bandwidth_never_hurts((b, k, c, stack) in arb_case()) {
        let Some(lo) = simulate(128, b, k, c, &stack) else { return Ok(()); };
        let Some(hi) = simulate(1024, b, k, c, &stack) else { return Ok(()); };
        prop_assert!(
            hi.total_cycles <= lo.total_cycles,
            "1024 b/cy must not be slower: {} vs {}",
            hi.total_cycles,
            lo.total_cycles
        );
    }

    #[test]
    fn sim_conservation_laws((b, k, c, stack) in arb_case()) {
        let Some(r) = simulate(128, b, k, c, &stack) else { return Ok(()); };
        // Decomposition holds and compute never outruns the wall clock.
        prop_assert_eq!(
            r.total_cycles,
            r.compute_cycles + r.stall_cycles + r.tail_cycles
        );
        prop_assert!(r.preload_cycles <= r.stall_cycles);
        // No port is busy longer than the whole execution.
        for p in &r.ports {
            prop_assert!(p.busy_cycles <= r.total_cycles as f64 + 1e-9);
        }
    }

    #[test]
    fn traced_run_matches_untraced((b, k, c, stack) in arb_case()) {
        let arch = presets::case_study_chip(128);
        let layer = Layer::matmul("p", b, k, c, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
        let Ok(mapping) = Mapping::with_greedy_alloc(
            &arch, &layer, spatial, LoopStack::from_pairs(&stack))
        else { return Ok(()); };
        let Ok(view) = MappedLayer::new(&layer, &arch, &mapping) else { return Ok(()); };
        let Ok(plain) = Simulator::new().simulate(&view) else { return Ok(()); };
        let (traced, trace) = Simulator::new().simulate_traced(&view).expect("same cap");
        prop_assert_eq!(&plain, &traced);
        // Every recorded transfer fits inside the execution and the trace
        // covers the same stall total.
        for e in &trace.events {
            prop_assert!(e.end <= traced.total_cycles as f64 + 1e-6);
            prop_assert!(e.start <= e.end);
        }
        let stall_sum: f64 = trace.stalls.iter().map(|(a, b)| b - a).sum();
        prop_assert!((stall_sum - traced.stall_cycles as f64).abs() < 1.0);
    }

    #[test]
    fn entry_points_agree((b, k, c, stack) in arb_case()) {
        // The arena path, the materialized schedule and the traced run
        // must report the same bits.
        let arch = presets::case_study_chip(96);
        let layer = Layer::matmul("p", b, k, c, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
        let Ok(mapping) = Mapping::with_greedy_alloc(
            &arch, &layer, spatial, LoopStack::from_pairs(&stack))
        else { return Ok(()); };
        let Ok(view) = MappedLayer::new(&layer, &arch, &mapping) else { return Ok(()); };
        let sim = Simulator::new();
        let lowered = LoweredLayer::build(&view, DtlOptions::default());
        let Ok(arena) = sim.simulate_lowered(&view, &lowered) else { return Ok(()); };
        let schedule = build_schedule_lowered(&view, &lowered, sim.max_transfers)
            .expect("same cap");
        prop_assert_eq!(&arena, &engine::run(&schedule));
        let (traced, trace) = sim.simulate_traced(&view).expect("same cap");
        prop_assert_eq!(&arena, &traced);
        prop_assert_eq!(trace.events.len() as u64, arena.transfers);
    }
}
