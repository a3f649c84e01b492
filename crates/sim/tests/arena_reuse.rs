//! Counting-allocator proof that the simulator reuses its per-thread
//! arena: once a thread has simulated a layer, simulating it again
//! allocates only a small constant number of times (side tables per
//! level, the report), never per transfer.
//!
//! This file is its own test binary (integration test) so the global
//! allocator swap cannot interfere with other tests, and it contains a
//! single `#[test]` so no concurrent test thread can allocate while the
//! measured window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ulm_arch::presets;
use ulm_mapper::{Mapper, MapperOptions, Objective};
use ulm_mapping::{MappedLayer, SpatialUnroll};
use ulm_model::{DtlOptions, LoweredLayer};
use ulm_sim::Simulator;
use ulm_workload::networks;

/// Wraps the system allocator and counts every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations one warm `simulate_lowered` may make, whatever its size.
const MAX_ALLOCATIONS: u64 = 24;

#[test]
fn repeated_simulation_allocates_a_constant_handful() {
    let chip = presets::validation_chip();
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let layers = networks::handtracking_validation_layers();
    // The smallest and the largest fig5 schedules.
    let picked: Vec<_> = ["ssd_e3b", "pw13"]
        .iter()
        .map(|prefix| {
            layers
                .iter()
                .find(|l| l.name().starts_with(prefix))
                .expect("fig5 layer")
        })
        .collect();
    let mappings: Vec<_> = picked
        .iter()
        .map(|layer| {
            Mapper::new(&chip.arch, layer, spatial.clone())
                .with_options(MapperOptions {
                    max_exhaustive: 0,
                    samples: 8,
                    ..MapperOptions::default()
                })
                .search(Objective::Latency)
                .expect("mappable")
                .best
                .mapping
        })
        .collect();
    let views: Vec<_> = picked
        .iter()
        .zip(&mappings)
        .map(|(layer, m)| MappedLayer::new(layer, &chip.arch, m).expect("valid view"))
        .collect();
    let lowered: Vec<_> = views
        .iter()
        .map(|v| LoweredLayer::build(v, DtlOptions::default()))
        .collect();
    let sim = Simulator::new();

    // Warm-up: the arena grows to the largest schedule.
    let first: Vec<_> = views
        .iter()
        .zip(&lowered)
        .map(|(v, l)| sim.simulate_lowered(v, l).expect("within cap"))
        .collect();
    let (small, large) = (first[0].transfers, first[1].transfers);
    assert!(
        large > 50 * small,
        "need schedules of very different sizes: {small} vs {large} transfers"
    );

    let mut counts = Vec::new();
    for ((view, low), want) in views.iter().zip(&lowered).zip(&first) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let again = sim.simulate_lowered(view, low).expect("within cap");
        counts.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
        assert_eq!(&again, want, "a warm arena must not change the report");
    }
    for (&n, r) in counts.iter().zip(&first) {
        assert!(
            n <= MAX_ALLOCATIONS,
            "warm simulation of {} transfers allocated {n} times (max {MAX_ALLOCATIONS})",
            r.transfers
        );
    }
}
