//! Golden-bits oracle for the simulator: the full [`SimReport`] of a set
//! of fixed, hand-built mappings, pinned field by field (port busy time
//! as raw `f64` bits). Any change to the schedule builder or the engine
//! that moves a single cycle, reorders a float accumulation or drops a
//! port shows up here.
//!
//! The cases span every scheduling shape the engine distinguishes: a
//! shared-port toy chip, a split-C mapping with partial-sum read-backs,
//! the case-study chip at two GB bandwidths, the validation chip, a
//! KV-cache-resident attention-decode layer and a residency-pinned
//! fusion-chip layer run through `simulate_lowered`.

use ulm_arch::{presets, Architecture};
use ulm_mapping::{LoopStack, MappedLayer, Mapping, SpatialUnroll};
use ulm_model::{DtlOptions, LoweredLayer};
use ulm_sim::{build_schedule_lowered, engine, SimReport, Simulator};
use ulm_workload::{attention, Dim, Layer, Operand, Precision};

/// Expected report: `(total, compute, stall, preload, tail, transfers)`
/// plus `(memory, port, busy_cycles bits)` per port in report order.
struct Golden {
    name: &'static str,
    counts: [u64; 6],
    ports: &'static [(usize, usize, u64)],
}

fn observed(r: &SimReport) -> ([u64; 6], Vec<(usize, usize, u64)>) {
    (
        [
            r.total_cycles,
            r.compute_cycles,
            r.stall_cycles,
            r.preload_cycles,
            r.tail_cycles,
            r.transfers,
        ],
        r.ports
            .iter()
            .map(|p| (p.mem.0, p.port, p.busy_cycles.to_bits()))
            .collect(),
    )
}

fn mapping(
    arch: &Architecture,
    layer: &Layer,
    spatial: &[(Dim, u64)],
    stack: &[(Dim, u64)],
) -> Mapping {
    Mapping::with_greedy_alloc(
        arch,
        layer,
        SpatialUnroll::new(spatial.to_vec()),
        LoopStack::from_pairs(stack),
    )
    .expect("hand-built mapping is legal")
}

/// Simulates one case both untraced and traced; the two must agree.
fn sim(arch: &Architecture, layer: &Layer, m: &Mapping) -> SimReport {
    let view = MappedLayer::new(layer, arch, m).expect("valid view");
    let plain = Simulator::new().simulate(&view).expect("within cap");
    let (traced, trace) = Simulator::new().simulate_traced(&view).expect("within cap");
    assert_eq!(plain, traced, "{}: traced run diverged", layer.name());
    assert_eq!(trace.events.len() as u64, plain.transfers);
    plain
}

fn case_study_point(gb_bw: u64) -> SimReport {
    let arch = presets::case_study_chip(gb_bw);
    let layer = Layer::matmul("cs", 64, 64, 256, Precision::int8_acc24());
    let m = mapping(
        &arch,
        &layer,
        &[(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)],
        &[
            (Dim::C, 16),
            (Dim::K, 2),
            (Dim::B, 4),
            (Dim::C, 8),
            (Dim::B, 2),
            (Dim::K, 2),
        ],
    );
    sim(&arch, &layer, &m)
}

/// Every case, in [`GOLDEN`] order.
fn cases() -> Vec<(&'static str, SimReport)> {
    let toy = presets::toy_chip();
    let toy_layer = Layer::matmul("toy", 4, 4, 8, Precision::int8_acc24());
    let toy_run = |stack: &[(Dim, u64)]| {
        let m = mapping(&toy.arch, &toy_layer, &toy.spatial, stack);
        sim(&toy.arch, &toy_layer, &m)
    };

    let val = presets::validation_chip();
    let val_layer = Layer::matmul("val", 64, 128, 256, Precision::int8_acc24());
    let val_m = mapping(
        &val.arch,
        &val_layer,
        &val.spatial,
        &[(Dim::C, 8), (Dim::B, 16), (Dim::K, 4), (Dim::B, 4)],
    );

    let fusion = presets::fusion_chip();
    // attention-decode `logit`: one query token per head against a
    // 64-long K-cache resident below DRAM.
    let logit = attention::decode(64, 64, 4)
        .into_iter()
        .find(|l| l.name() == "logit")
        .expect("decode block has a logit layer");
    assert!(logit.is_kv_cache(Operand::W));
    let logit_m = mapping(
        &fusion.arch,
        &logit,
        &fusion.spatial,
        &[(Dim::C, 16), (Dim::K, 8), (Dim::B, 2), (Dim::K, 4)],
    );

    vec![
        ("toy", toy_run(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)])),
        (
            "toy_split_c_readbacks",
            toy_run(&[(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)]),
        ),
        ("case_study_128", case_study_point(128)),
        ("case_study_1024", case_study_point(1024)),
        // A 96-bit GB bus: 128-bit blocks take 4/3 cycles, so port busy
        // sums are inexact floats and pin the accumulation order.
        ("case_study_96", case_study_point(96)),
        ("validation", sim(&val.arch, &val_layer, &val_m)),
        ("decode_logit_kv", sim(&fusion.arch, &logit, &logit_m)),
        ("fusion_pinned_o_at_lb", fusion_pinned()),
    ]
}

/// A fusion-chip layer with its output pinned at the LB, run through
/// `simulate_lowered` over the pinned lowering.
fn fusion_pinned() -> SimReport {
    let chip = presets::fusion_chip();
    let layer = Layer::matmul("fused", 8, 8, 16, Precision::int8_acc24());
    let m = mapping(
        &chip.arch,
        &layer,
        &chip.spatial,
        &[
            (Dim::C, 4),
            (Dim::B, 2),
            (Dim::K, 4),
            (Dim::C, 4),
            (Dim::B, 2),
        ],
    );
    let view = MappedLayer::new(&layer, &chip.arch, &m).expect("valid view");
    let pinned = LoweredLayer::build_pinned(&view, DtlOptions::default(), [None, None, Some(1)]);
    let report = Simulator::new()
        .simulate_lowered(&view, &pinned)
        .expect("within cap");
    let schedule = build_schedule_lowered(&view, &pinned, u64::MAX).expect("uncapped");
    let (traced, _) = engine::run_traced(&schedule);
    assert_eq!(report, traced, "pinned traced run diverged");
    report
}

/// Recorded on the engine this oracle replaced.
const GOLDEN: &[Golden] = &[
    Golden {
        name: "toy",
        counts: [131, 32, 97, 6, 2, 68],
        ports: &[
            (0, 1, 0x4050000000000000),
            (1, 1, 0x4050000000000000),
            (2, 0, 0x4020000000000000),
            (3, 0, 0x4060000000000000),
            (3, 1, 0x4020000000000000),
        ],
    },
    Golden {
        name: "toy_split_c_readbacks",
        counts: [163, 32, 125, 6, 6, 76],
        ports: &[
            (0, 1, 0x4050000000000000),
            (1, 1, 0x4050000000000000),
            (2, 0, 0x4048000000000000),
            (2, 1, 0x4038000000000000),
            (3, 0, 0x4063000000000000),
            (3, 1, 0x4048000000000000),
        ],
    },
    Golden {
        name: "case_study_128",
        counts: [17680, 4096, 13560, 1537, 24, 8677],
        ports: &[
            (0, 1, 0x40b0000000000000),
            (1, 1, 0x40a0000000000000),
            (2, 0, 0x40b8000000000000),
            (2, 1, 0x40b5000000000000),
            (3, 0, 0x40b0000000000000),
            (3, 1, 0x4090000000000000),
            (4, 0, 0x40a0000000000000),
            (4, 1, 0x40a0000000000000),
            (5, 0, 0x40c0800000000000),
            (5, 1, 0x40b8000000000000),
        ],
    },
    Golden {
        name: "case_study_1024",
        counts: [8146, 4096, 4047, 1537, 3, 8677],
        ports: &[
            (0, 1, 0x40b0000000000000),
            (1, 1, 0x40a0000000000000),
            (2, 0, 0x4088000000000000),
            (2, 1, 0x4085000000000000),
            (3, 0, 0x40b0000000000000),
            (3, 1, 0x4090000000000000),
            (4, 0, 0x40a0000000000000),
            (4, 1, 0x40a0000000000000),
            (5, 0, 0x40ad400000000000),
            (5, 1, 0x4088000000000000),
        ],
    },
    Golden {
        name: "case_study_96",
        counts: [22336, 4096, 18208, 2049, 32, 8677],
        ports: &[
            (0, 1, 0x40b0000000000000),
            (1, 1, 0x40a0000000000000),
            (2, 0, 0x40c0000000000000),
            (2, 1, 0x40bc000000000000),
            (3, 0, 0x40b0000000000000),
            (3, 1, 0x4095555555555555),
            (4, 0, 0x40a0000000000000),
            (4, 1, 0x40a5555555555555),
            (5, 0, 0x40c6000000000000),
            (5, 1, 0x40c0000000000000),
        ],
    },
    Golden {
        name: "validation",
        counts: [66755, 2048, 64707, 1281, 0, 4354],
        ports: &[
            (0, 1, 0x40f0000000000000),
            (1, 1, 0x4090000000000000),
            (2, 0, 0x4050000000000000),
            (3, 0, 0x40f0000000000000),
            (3, 1, 0x4090000000000000),
            (4, 0, 0x4090000000000000),
            (4, 1, 0x4070000000000000),
            (5, 0, 0x4094000000000000),
            (5, 1, 0x4050000000000000),
        ],
    },
    Golden {
        name: "decode_logit_kv",
        counts: [4355, 1024, 3329, 262, 2, 2114],
        ports: &[
            (0, 1, 0x40a0000000000000),
            (1, 1, 0x40a0000000000000),
            (2, 0, 0x4060000000000000),
            (3, 0, 0x40b1000000000000),
            (3, 1, 0x4068000000000000),
            (4, 0, 0x4050000000000000),
            (4, 1, 0x4070000000000000),
        ],
    },
    Golden {
        name: "fusion_pinned_o_at_lb",
        counts: [1619, 256, 1357, 258, 6, 626],
        ports: &[
            (0, 1, 0x4080000000000000),
            (1, 1, 0x4080000000000000),
            (2, 0, 0x4078000000000000),
            (2, 1, 0x4072000000000000),
            (3, 0, 0x4094800000000000),
            (3, 1, 0x4084000000000000),
            (4, 0, 0x4070000000000000),
        ],
    },
];

#[test]
fn reports_match_the_recorded_bits() {
    let got = cases();
    assert_eq!(got.len(), GOLDEN.len(), "one golden row per case");
    for ((name, r), g) in got.iter().zip(GOLDEN) {
        assert_eq!(*name, g.name);
        let (counts, ports) = observed(r);
        assert_eq!(counts, g.counts, "{name}: cycle counts");
        assert_eq!(ports, g.ports, "{name}: port busy bits");
    }
}
