//! The discrete-event execution engine: runs a [`Schedule`] against the
//! physical ports and reports the observed cycle counts.
//!
//! Execution is one merge over two sorted arrays. The *start* array holds
//! every transfer keyed by `(ready_cycle, kind rank, Reverse(level),
//! operand, id)`, packed into one `u128`, so a single sort fixes both the
//! boundary order and the documented tie-break within a boundary (drains,
//! then refills, then read-backs; higher levels first). The *deadline*
//! array holds `(need_cycle, id)` for every transfer compute blocks on.
//! Walking the distinct boundary cycles of both arrays in order, the engine
//! starts the boundary's transfers, then enforces its deadlines.
//!
//! Port state lives in a dense table: each `(memory, port)` pair maps to
//! one slot of two `Vec<f64>` (free-at time and busy time), and completion
//! times are a plain `Vec<f64>`. Nothing is allocated per transfer.

use crate::schedule::{Schedule, Transfer, TransferKind};
use crate::trace::{Trace, TraceEvent};
use ulm_arch::{MemoryId, PortId};

/// Per-port occupancy statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PortBusy {
    /// The memory owning the port.
    pub mem: MemoryId,
    /// The port index.
    pub port: PortId,
    /// Cycles the port spent transferring (fractional: consecutive beats
    /// pack on the bus).
    pub busy_cycles: f64,
}

/// The simulator's observation of one layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end cycles: pre-load + compute (with stalls) + drain tail.
    pub total_cycles: u64,
    /// Pure compute cycles (`CC_spatial`).
    pub compute_cycles: u64,
    /// Cycles compute sat waiting for transfers (pre-load included).
    pub stall_cycles: u64,
    /// Cycles spent pre-loading before the first compute cycle.
    pub preload_cycles: u64,
    /// Cycles of drain tail after the last compute cycle.
    pub tail_cycles: u64,
    /// Number of transfers executed.
    pub transfers: u64,
    /// Port busy statistics.
    pub ports: Vec<PortBusy>,
}

impl SimReport {
    /// Observed MAC-array utilization against the executed schedule.
    pub fn utilization(&self, cc_ideal: f64) -> f64 {
        cc_ideal / self.total_cycles as f64
    }
}

/// Executes the schedule and returns the observed cycle counts.
///
/// Compute advances one loop-nest iteration per wall cycle except when a
/// transfer with a deadline at the current boundary has not finished;
/// transfers contend for their ports in deterministic FIFO order. Time is
/// tracked fractionally: a 768-bit block on a 512-bit bus occupies the
/// port for 1.5 cycles, and back-to-back blocks pack (real streaming
/// buses do not waste partial beats between consecutive bursts).
pub fn run(schedule: &Schedule) -> SimReport {
    execute(schedule, None)
}

/// [`run`], additionally recording a full [`Trace`] of every transfer and
/// compute-stall interval for timeline rendering.
pub fn run_traced(schedule: &Schedule) -> (SimReport, Trace) {
    let mut trace = Trace::default();
    let report = execute(schedule, Some(&mut trace));
    (report, trace)
}

/// Bits of the packed start key below the ready cycle: kind rank (2),
/// reversed level (8), operand (2), id (52).
const ID_BITS: u32 = 52;
const MAX_LEVEL: usize = 255;

/// The start-order key of one transfer. Within a boundary, drains release
/// registers first, then refills, then read-backs (which depend on
/// drains); higher levels go first so lower-level dependencies are
/// satisfied; operand and id break the remaining ties.
fn start_key(t: &Transfer) -> u128 {
    let rank: u64 = match t.kind {
        TransferKind::Drain => 0,
        TransferKind::Refill => 1,
        TransferKind::Readback => 2,
    };
    assert!(t.level <= MAX_LEVEL, "level {} out of key range", t.level);
    let low = rank << 62
        | ((MAX_LEVEL - t.level) as u64) << 54
        | (t.operand.index() as u64) << ID_BITS
        | t.id as u64;
    (u128::from(t.ready_cycle) << 64) | u128::from(low)
}

/// Dense `(memory, port)` → slot table with each slot's free-at and busy
/// time. Slots are laid out memory-major, so slot order is report order.
struct PortTable {
    /// Slots per memory (largest port id + 1).
    stride: usize,
    free: Vec<f64>,
    busy: Vec<f64>,
    /// Whether any started transfer occupied the slot.
    used: Vec<bool>,
}

impl PortTable {
    /// A table for memory ids `< mems` and port ids `< stride`.
    fn new(mems: usize, stride: usize) -> Self {
        Self {
            stride,
            free: vec![0.0; mems * stride],
            busy: vec![0.0; mems * stride],
            used: vec![false; mems * stride],
        }
    }

    fn slot(&self, (mem, port): (MemoryId, PortId)) -> usize {
        mem.0 * self.stride + port
    }

    fn report(&self) -> Vec<PortBusy> {
        (0..self.used.len())
            .filter(|&s| self.used[s])
            .map(|s| PortBusy {
                mem: MemoryId(s / self.stride),
                port: s % self.stride,
                busy_cycles: self.busy[s],
            })
            .collect()
    }
}

/// The engine: one body behind [`run`] and [`run_traced`].
fn execute(schedule: &Schedule, mut trace: Option<&mut Trace>) -> SimReport {
    let transfers = &schedule.transfers;
    let total = schedule.total_cycles;
    assert!(
        (transfers.len() as u64) < 1 << ID_BITS,
        "schedule too long for the start key"
    );

    // One pass: start keys, deadline keys `(need_cycle, id)` packed the
    // same way, and the port-id extents.
    let mut starts: Vec<u128> = Vec::with_capacity(transfers.len());
    let mut needs: Vec<u128> = Vec::with_capacity(transfers.len());
    let (mut mems, mut stride) = (0, 0);
    for t in transfers {
        // Transfers ready after the last compute boundary never start.
        if t.ready_cycle <= total {
            starts.push(start_key(t));
            for (mem, port) in t.ports {
                mems = mems.max(mem.0 + 1);
                stride = stride.max(port + 1);
            }
        }
        if t.need_cycle != u64::MAX && t.need_cycle <= total {
            needs.push((u128::from(t.need_cycle) << 64) | t.id as u128);
        }
    }
    // Generation order leaves long ascending runs per (operand, level),
    // which the stable sort merges instead of re-sorting.
    starts.sort();
    needs.sort();
    let mut ports = PortTable::new(mems, stride);

    let id_mask = (1u128 << ID_BITS) - 1;
    let mut wall: f64 = 0.0;
    let mut prev_cycle: u64 = 0;
    let mut stall: f64 = 0.0;
    let mut preload: f64 = 0.0;
    // NaN = not started yet.
    let mut done: Vec<f64> = vec![f64::NAN; transfers.len()];
    let (mut si, mut ni) = (0, 0);

    loop {
        // The next boundary: the earliest pending start or deadline, and
        // never past the end of compute.
        let next_start = starts.get(si).map_or(u64::MAX, |&k| (k >> 64) as u64);
        let next_need = needs.get(ni).map_or(u64::MAX, |&k| (k >> 64) as u64);
        let cycle = next_start.min(next_need).min(total);
        // Compute advances freely between boundaries.
        wall += (cycle - prev_cycle) as f64;
        prev_cycle = cycle;
        // Starts first: transfers become eligible the moment compute
        // arrives (a zero-window transfer — ready == need — starts here
        // and immediately stalls compute below).
        while let Some(&key) = starts.get(si).filter(|&&k| (k >> 64) as u64 == cycle) {
            si += 1;
            let id = (key & id_mask) as usize;
            let t = &transfers[id];
            let slots = t.ports.map(|p| ports.slot(p));
            let mut start = wall;
            for &dep in &t.deps {
                let d = done[dep];
                assert!(!d.is_nan(), "dependencies are scheduled first");
                start = start.max(d);
            }
            for &s in &slots {
                start = start.max(ports.free[s]);
            }
            let dur = t.bits as f64 / t.link_bw as f64;
            let finish = start + dur;
            for &s in &slots {
                ports.free[s] = finish;
                ports.busy[s] += dur;
                ports.used[s] = true;
            }
            done[id] = finish;
            if let Some(tr) = trace.as_deref_mut() {
                tr.events.push(TraceEvent {
                    operand: t.operand,
                    kind: t.kind,
                    level: t.level,
                    period: t.period,
                    start,
                    end: finish,
                    ports: t.ports,
                });
            }
        }
        // Deadlines: compute may not pass this boundary until met.
        while let Some(&key) = needs.get(ni).filter(|&&k| (k >> 64) as u64 == cycle) {
            ni += 1;
            let d = done[(key & id_mask) as usize];
            assert!(
                !d.is_nan(),
                "needed transfer was scheduled at or before its deadline"
            );
            if d > wall {
                let s = d - wall;
                stall += s;
                if cycle == 0 {
                    preload += s;
                }
                if let Some(tr) = trace.as_deref_mut() {
                    tr.stalls.push((wall, d));
                }
                wall = d;
            }
        }
        if cycle == total {
            break;
        }
    }

    // Drain tail: the layer finishes when the last transfer lands
    // (`f64::max` skips the NaN of never-started transfers).
    let compute_end = wall;
    let last_done = done.iter().copied().fold(0.0f64, f64::max);
    let total = compute_end.max(last_done);
    let total_cycles = total.ceil() as u64;
    let tail_cycles = (total - compute_end).round() as u64;

    if let Some(tr) = trace {
        tr.total = total;
    }
    SimReport {
        total_cycles,
        compute_cycles: schedule.total_cycles,
        stall_cycles: stall.round() as u64,
        preload_cycles: preload.round() as u64,
        tail_cycles,
        transfers: transfers.len() as u64,
        ports: ports.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{build_schedule, Deps};
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, MappedLayer, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Operand, Precision};

    fn toy_sim(stack: &[(Dim, u64)]) -> SimReport {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(stack),
        )
        .unwrap();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        run(&s)
    }

    #[test]
    fn same_cycle_starts_follow_the_documented_order() {
        // Six transfers become ready at cycle 2 and serialize on one
        // shared port, listed in an order unrelated to the expected one.
        let shared = (MemoryId(0), 0);
        let spec = [
            (Operand::O, TransferKind::Readback, 0),
            (Operand::W, TransferKind::Refill, 0),
            (Operand::O, TransferKind::Drain, 0),
            (Operand::W, TransferKind::Refill, 1),
            (Operand::O, TransferKind::Drain, 1),
            (Operand::O, TransferKind::Readback, 1),
        ];
        let transfers = spec
            .iter()
            .enumerate()
            .map(|(id, &(operand, kind, level))| Transfer {
                id,
                operand,
                kind,
                level,
                period: 0,
                ready_cycle: 2,
                need_cycle: u64::MAX,
                bits: 4,
                link_bw: 1,
                ports: [shared, (MemoryId(1 + id), 0)],
                deps: Deps::default(),
            })
            .collect();
        let schedule = Schedule {
            transfers,
            total_cycles: 10,
        };
        let (report, trace) = run_traced(&schedule);
        let order: Vec<(TransferKind, usize)> =
            trace.events.iter().map(|e| (e.kind, e.level)).collect();
        assert_eq!(
            order,
            [
                (TransferKind::Drain, 1),
                (TransferKind::Drain, 0),
                (TransferKind::Refill, 1),
                (TransferKind::Refill, 0),
                (TransferKind::Readback, 1),
                (TransferKind::Readback, 0),
            ]
        );
        // Back to back on the shared port, from the boundary on.
        for (k, e) in trace.events.iter().enumerate() {
            assert_eq!(e.start, 2.0 + 4.0 * k as f64);
            assert_eq!(e.end, e.start + 4.0);
        }
        assert_eq!(report.total_cycles, 26);
        assert_eq!(report.tail_cycles, 16);
        assert_eq!(report.stall_cycles, 0);
        assert_eq!(report.ports[0].busy_cycles, 24.0);
        assert_eq!(report.ports.len(), 7);
    }

    #[test]
    fn totals_decompose() {
        let r = toy_sim(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        assert_eq!(r.compute_cycles, 32);
        assert!(r.total_cycles >= r.compute_cycles);
        assert_eq!(
            r.total_cycles,
            r.compute_cycles + r.stall_cycles + r.tail_cycles
        );
        assert!(r.preload_cycles <= r.stall_cycles);
        assert!(r.transfers > 0);
    }

    #[test]
    fn contended_port_stalls_more_than_generous_port() {
        // The toy LB read port (16 b/cy) serves both W and I refills of
        // 16 bits each per cycle-long period: 2 cycles of transfer per
        // 1-cycle period -> heavy stalls.
        let r = toy_sim(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        assert!(r.stall_cycles > 0, "{r:?}");
    }

    #[test]
    fn port_busy_accounting_is_conserved() {
        let r = toy_sim(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        // Every transfer occupies at least one port; summed busy over
        // ports >= total transfer durations... at least nonzero and no
        // port is busy longer than the whole execution.
        for p in &r.ports {
            assert!(p.busy_cycles <= r.total_cycles as f64);
        }
        assert!(!r.ports.is_empty());
    }

    #[test]
    fn wider_ports_reduce_total_time() {
        // Same schedule shape, but compare the toy chip against one with
        // double LB bandwidth by scaling the layer instead: C16 doubles
        // compute per refill, relaxing pressure per cycle.
        let tight = toy_sim(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 16, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 16), (Dim::B, 2), (Dim::K, 2)]),
        )
        .unwrap();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        let bigger = run(&s);
        // Utilization comparison: the bigger-C layer has the same traffic
        // pattern per cycle, so stalls scale roughly with compute.
        let u_tight = 32.0 / tight.total_cycles as f64;
        let u_big = 64.0 / bigger.total_cycles as f64;
        assert!((u_tight - u_big).abs() < 0.2, "{u_tight} vs {u_big}");
    }
}
