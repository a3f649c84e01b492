//! Fig. 4-style memory-compute timelines: simulate a small mapped layer
//! with full tracing and render the per-port activity against the compute
//! lane — first with a bandwidth-starved link (visible stalls), then with
//! a comfortable one.
//!
//! ```sh
//! cargo run --release --example timeline_trace
//! ```

use ulm::arch::PortId;
use ulm::prelude::*;
use ulm::sim::Trace;

fn show(arch: &Architecture, layer: &Layer, spatial: SpatialUnroll, stack: LoopStack) {
    let mapping =
        Mapping::with_greedy_alloc(arch, layer, spatial, stack).expect("mapping is legal");
    let view = MappedLayer::new(layer, arch, &mapping).expect("valid");
    let (report, trace): (SimReport, Trace) = Simulator::new()
        .simulate_traced(&view)
        .expect("small schedule");
    let h = arch.hierarchy();
    println!(
        "{} on {}: {} cycles ({} compute, {} stall, {} tail), {:.0}% stalled",
        layer.name(),
        arch.name(),
        report.total_cycles,
        report.compute_cycles,
        report.stall_cycles,
        report.tail_cycles,
        trace.stall_fraction() * 100.0
    );
    let name = |(m, p): (MemoryId, PortId)| format!("{} p{p}", h.mem(m).name());
    print!("{}", trace.render_ascii(96, |m, p| name((m, p))));
    // Each event's ports are its (source read, destination write) pair:
    // count transfers per link and report the busiest one.
    let mut links: Vec<([(MemoryId, PortId); 2], usize)> = Vec::new();
    for e in &trace.events {
        match links.iter_mut().find(|(l, _)| *l == e.ports) {
            Some((_, n)) => *n += 1,
            None => links.push((e.ports, 1)),
        }
    }
    if let Some(([src, dst], n)) = links.into_iter().max_by_key(|&(_, n)| n) {
        println!(
            "busiest link: {} -> {} ({n} transfers)",
            name(src),
            name(dst)
        );
    }
}

fn main() {
    let chip = presets::toy_chip();
    let layer = Layer::matmul("tight", 4, 4, 8, Precision::int8_acc24());
    println!("=== bandwidth-starved: the shared LB read port throttles both refills ===");
    show(
        &chip.arch,
        &layer,
        SpatialUnroll::new(chip.spatial.clone()),
        LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
    );

    println!(
        "\n=== reordered: B-inner shifts the bottleneck to the output drains ===\n\
         (B under the C loops forces partial sums through the LB every other\n\
         cycle — visibly busier O lanes, even more stall)"
    );
    show(
        &chip.arch,
        &layer,
        SpatialUnroll::new(chip.spatial.clone()),
        LoopStack::from_pairs(&[(Dim::B, 2), (Dim::C, 8), (Dim::K, 2)]),
    );
    println!("\nLegend: '#' transfer in flight, '.' port idle, '=' computing, '!' stalled.");
}
