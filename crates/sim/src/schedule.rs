//! Transfer-schedule extraction: turn a mapped layer into the exact list
//! of block transfers the memory system must perform, with each transfer's
//! readiness window, deadline and data dependencies.
//!
//! Unlike the analytical model — which reasons about *steady-state rates*
//! and periodic windows — the simulator enumerates every individual block
//! movement, discovers which loop-nest periods actually move data (pure
//! reuse across irrelevant loops moves none), and executes them against
//! port availability. This independence is what makes the model-vs-sim
//! comparison a meaningful validation.

use std::ops::Deref;
use ulm_arch::{MemoryId, PortId, PortUse};
use ulm_mapping::MappedLayer;
use ulm_model::{DtlOptions, LoweredLayer};
use ulm_workload::Operand;

/// What a scheduled transfer does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// W/I block moving down into a level.
    Refill,
    /// O block draining up out of a level.
    Drain,
    /// Partial sums returning down into a level.
    Readback,
}

/// The transfers one transfer waits on, stored inline: no path needs more
/// than two (a refill waits on its upper level's covering block; a strict
/// read-back waits on the drain that parked its psums and the drain that
/// frees the registers). Derefs to `&[usize]`.
// Unused slots stay zero (only `push` writes), so the derived equality
// is slice equality.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Deps {
    ids: [usize; 2],
    len: u8,
}

impl Deps {
    /// Appends a dependency.
    ///
    /// # Panics
    ///
    /// Panics if the transfer already has two dependencies.
    pub fn push(&mut self, id: usize) {
        assert!(self.len < 2, "a transfer has at most two dependencies");
        self.ids[usize::from(self.len)] = id;
        self.len += 1;
    }
}

impl Deref for Deps {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.ids[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Deps {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for Deps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One block transfer.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// Dense id (index into the schedule).
    pub id: usize,
    /// The operand moved.
    pub operand: Operand,
    /// Transfer kind.
    pub kind: TransferKind,
    /// Level (in the operand's chain) whose block moves.
    pub level: usize,
    /// The loop-nest period index this transfer serves.
    pub period: u64,
    /// Earliest compute cycle at which the transfer may begin.
    pub ready_cycle: u64,
    /// Compute cycle the transfer must precede (`u64::MAX` = only the
    /// final drain tail, no compute blocks on it).
    pub need_cycle: u64,
    /// Bits moved.
    pub bits: u64,
    /// Effective link bandwidth, bits/cycle (min over the two ports).
    pub link_bw: u64,
    /// The two ports occupied for the transfer's duration: the source
    /// memory's read port, then the destination memory's write port.
    pub ports: [(MemoryId, PortId); 2],
    /// Transfers that must complete before this one starts.
    pub deps: Deps,
}

impl Transfer {
    /// Cycles the transfer occupies its ports. Fractional: consecutive
    /// beats pack on the bus, so a 768-bit block on a 512-bit link takes
    /// 1.5 cycles, not 2.
    pub fn duration(&self) -> f64 {
        self.bits as f64 / self.link_bw as f64
    }
}

/// Where the schedule builder puts the transfers it emits, in id order.
pub(crate) trait Sink {
    /// Appends `t` under the next dense id (ignoring `t.id`) and returns
    /// that id.
    fn push(&mut self, t: Transfer) -> usize;
}

impl Sink for Vec<Transfer> {
    fn push(&mut self, t: Transfer) -> usize {
        let id = self.len();
        Vec::push(self, Transfer { id, ..t });
        id
    }
}

/// Error raised when a layer/mapping would generate an impractically large
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTooLarge {
    /// Transfers the schedule would need.
    pub transfers: u64,
    /// The configured cap.
    pub cap: u64,
}

impl std::fmt::Display for ScheduleTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation schedule needs {} transfers, cap is {}",
            self.transfers, self.cap
        )
    }
}

impl std::error::Error for ScheduleTooLarge {}

/// The full schedule for one mapped layer.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// All transfers, id-ordered.
    pub transfers: Vec<Transfer>,
    /// Total compute cycles (`CC_spatial`).
    pub total_cycles: u64,
}

/// Builds the schedule, lowering the view internally.
///
/// # Errors
///
/// Returns [`ScheduleTooLarge`] if more than `cap` transfers would be
/// generated.
pub fn build_schedule(view: &MappedLayer<'_>, cap: u64) -> Result<Schedule, ScheduleTooLarge> {
    build_schedule_lowered(view, &LoweredLayer::build(view, DtlOptions::default()), cap)
}

/// Builds the schedule from an already-lowered layer: every block count,
/// turnaround period and region comes from the same
/// [`LoweredLayer`] tables the analytical model and the energy model
/// read, so the three consumers cannot disagree about what data moves.
///
/// Periods are walked with [`LoweredLayer::regions`]; every side table is
/// sized by transfers, never by periods, so memory stays bounded by the
/// cap however long a level's pure-reuse runs are.
///
/// # Errors
///
/// Returns [`ScheduleTooLarge`] if more than `cap` transfers would be
/// generated.
pub fn build_schedule_lowered(
    view: &MappedLayer<'_>,
    lowered: &LoweredLayer,
    cap: u64,
) -> Result<Schedule, ScheduleTooLarge> {
    let est = estimate(lowered, cap)?;
    // The estimate bounds the count from above and has passed the cap;
    // reserving it up front saves the growth copies (untouched capacity
    // is never paged in).
    let mut transfers: Vec<Transfer> =
        Vec::with_capacity(usize::try_from(est).unwrap_or(usize::MAX));
    emit(view, lowered, &mut transfers);
    Ok(Schedule {
        transfers,
        total_cycles: lowered.cc_spatial(),
    })
}

/// Pre-flight size check: an upper bound on the transfer count from the
/// exact refill counts, refused if it exceeds `cap`. Interfaces above a
/// residency pin (KV-cache, fused intermediates) move nothing.
/// Saturating: a wrapped estimate could slip under the cap.
pub(crate) fn estimate(lowered: &LoweredLayer, cap: u64) -> Result<u64, ScheduleTooLarge> {
    let mut est: u64 = 0;
    for op in Operand::all() {
        for level in 0..lowered.active_interfaces(op) {
            // refills, or drains + read-backs
            est = est.saturating_add(lowered.level(op, level).refills.saturating_mul(2));
        }
    }
    if est > cap {
        return Err(ScheduleTooLarge {
            transfers: est,
            cap,
        });
    }
    Ok(est)
}

/// The one schedule builder: emits every transfer of the lowered layer
/// into `sink`, in id order. Within one `(operand, level, kind)` stream
/// the transfers come out in `(ready_cycle, id)` order and, among those
/// compute blocks on, in `(need_cycle, id)` order — the engine relies on
/// these runs being presorted. Transfers are built with `id: 0`; the sink
/// stamps the real one.
pub(crate) fn emit<S: Sink>(view: &MappedLayer<'_>, lowered: &LoweredLayer, sink: &mut S) {
    let h = view.arch().hierarchy();
    let layer = view.layer();
    let total = lowered.cc_spatial();

    // Build top-down so a lower level can reference its upper level's
    // covering transfers.
    for op in Operand::all() {
        let chain = h.chain(op);
        let active = lowered.active_interfaces(op);
        if active == 0 {
            continue;
        }
        let op_bits = layer.precision().bits(op);
        // The refills of the level above the current one (W/I): the id
        // of the first, and their need cycles — where each of that
        // level's covering runs starts, in order.
        let mut upper_first = 0;
        let mut upper_needs: Vec<u64> = Vec::new();
        for level in (0..active).rev() {
            let lower = chain[level];
            let upper = chain[level + 1];
            let lower_mem = h.mem(lower);
            let row = *lowered.level(op, level);
            let period = row.period;
            let z = row.z;
            let words = row.words;
            let run = row.run;
            let db = lower_mem.is_double_buffered();
            // The topmost *active* level never refills from above — for a
            // pinned operand its content is already resident there.
            let upper_is_top = level + 1 >= active;

            match op {
                Operand::W | Operand::I => {
                    let (wp, wbw) = h.port(lower, op, PortUse::WriteIn);
                    let (rp, rbw) = h.port(upper, op, PortUse::ReadOut);
                    let link_bw = wbw.min(rbw);
                    // Monotone cursor into `upper_needs`: the refill whose
                    // run covers the current need cycle.
                    let mut cover = 0;
                    let mut first = None;
                    // Only a level with a level below records its needs.
                    let record = level > 0;
                    let mut needs = Vec::with_capacity(if record {
                        usize::try_from(row.refills).unwrap_or(0)
                    } else {
                        0
                    });
                    let mut last_region = None;
                    for (j, region) in (0..z).zip(lowered.regions(op, level)) {
                        if last_region == Some(region) {
                            continue;
                        }
                        last_region = Some(region);
                        let ready_cycle = if db || run == 1 {
                            (j.saturating_sub(1)) * period
                        } else {
                            (j * period).saturating_sub(period / run)
                        };
                        let need_cycle = j * period;
                        // Data dependency: the upper-level block covering
                        // this period must already have arrived.
                        let mut deps = Deps::default();
                        if !upper_is_top {
                            while cover + 1 < upper_needs.len()
                                && upper_needs[cover + 1] <= need_cycle
                            {
                                cover += 1;
                            }
                            deps.push(upper_first + cover);
                        }
                        let id = sink.push(Transfer {
                            id: 0,
                            operand: op,
                            kind: TransferKind::Refill,
                            level,
                            period: j,
                            ready_cycle,
                            need_cycle,
                            bits: words * op_bits,
                            link_bw,
                            ports: [(upper, rp), (lower, wp)],
                            deps,
                        });
                        first.get_or_insert(id);
                        if record {
                            needs.push(need_cycle);
                        }
                    }
                    upper_first = first.expect("every level refills at least once");
                    upper_needs = needs;
                }
                Operand::O => {
                    // A replicated output register file is a reduction /
                    // drain pipeline: the extra physical copies buffer
                    // in-flight blocks, so draining and psum re-loading
                    // may overlap neighbouring periods like a
                    // double-buffered memory.
                    let relaxed = db || lower_mem.replication() > 1;
                    let out_bits = layer.precision().output_bits(row.final_above);
                    let (drp, drbw) = h.port(lower, op, PortUse::ReadOut);
                    let (dwp, dwbw) = h.port(upper, op, PortUse::WriteIn);
                    let drain_bw = drbw.min(dwbw);
                    let (rrp, rrbw) = h.port(upper, op, PortUse::ReadOut);
                    let (rwp, rwbw) = h.port(lower, op, PortUse::WriteIn);
                    let rb_bw = rrbw.min(rwbw);
                    // Last drain id per region (for read-back deps) and
                    // previous-period drain (for register-free deps). Every
                    // region drains at least once, so the table is bounded
                    // by the drain count.
                    let regions_above = usize::try_from(row.distinct_above)
                        .expect("distinct regions are bounded by the transfer cap");
                    let mut last_drain_of_region = vec![usize::MAX; regions_above];
                    let mut prev_drain: Option<usize> = None;
                    let mut regions = lowered.regions(op, level);
                    let mut prev_region = None;
                    let mut next_region = regions.next();
                    for j in 0..z {
                        let region = next_region.expect("one region per period");
                        next_region = regions.next();
                        // Read-back first: re-entering a region seen before.
                        let src = last_drain_of_region[region as usize];
                        if prev_region != Some(region) && src != usize::MAX {
                            // Strictly single-buffered registers must
                            // first drain the outgoing block before old
                            // psums can land; a pipeline (or double
                            // buffer) lets the read-back prefetch one
                            // period ahead.
                            let mut deps = Deps::default();
                            deps.push(src);
                            let ready_cycle = if relaxed {
                                (j.saturating_sub(1)) * period
                            } else {
                                if let Some(pd) = prev_drain {
                                    deps.push(pd);
                                }
                                j * period
                            };
                            sink.push(Transfer {
                                id: 0,
                                operand: op,
                                kind: TransferKind::Readback,
                                level,
                                period: j,
                                ready_cycle,
                                need_cycle: j * period,
                                bits: words * layer.precision().partial_sum_bits(),
                                link_bw: rb_bw,
                                ports: [(upper, rrp), (lower, rwp)],
                                deps,
                            });
                        }
                        prev_region = Some(region);
                        // Drain at the end of the region's last period.
                        if next_region != Some(region) {
                            let ready_cycle = if run == 1 {
                                // Streaming outputs finalize progressively:
                                // draining may overlap the whole period.
                                j * period
                            } else {
                                // Accumulated outputs finalize at period end
                                // (double-buffered or not).
                                (j + 1) * period
                            };
                            let need_cycle = if relaxed {
                                // One period of slack before the registers
                                // are needed again (shadow buffer or spare
                                // pipeline slots).
                                (j + 2) * period
                            } else {
                                (j + 1) * period
                            };
                            let need_cycle = if need_cycle >= total && j + 1 >= z {
                                u64::MAX // final tail: offload, not a stall
                            } else {
                                need_cycle
                            };
                            let id = sink.push(Transfer {
                                id: 0,
                                operand: op,
                                kind: TransferKind::Drain,
                                level,
                                period: j,
                                ready_cycle: ready_cycle.min(total),
                                need_cycle,
                                bits: words * out_bits,
                                link_bw: drain_bw,
                                ports: [(lower, drp), (upper, dwp)],
                                deps: Deps::default(),
                            });
                            last_drain_of_region[region as usize] = id;
                            prev_drain = Some(id);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn toy(stack: &[(Dim, u64)]) -> (ulm_arch::presets::PresetChip, Layer, Mapping) {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(stack),
        )
        .unwrap();
        (chip, layer, mapping)
    }

    #[test]
    fn transfer_counts_match_refill_counts() {
        let (chip, layer, mapping) = toy(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        let w_refills = s
            .transfers
            .iter()
            .filter(|t| t.operand == Operand::W && t.kind == TransferKind::Refill)
            .count() as u64;
        assert_eq!(w_refills, view.refill_count(Operand::W, 0));
        let drains = s
            .transfers
            .iter()
            .filter(|t| t.kind == TransferKind::Drain)
            .count() as u64;
        assert_eq!(drains, view.refill_count(Operand::O, 0));
        // Fully output stationary: no read-backs.
        assert!(s.transfers.iter().all(|t| t.kind != TransferKind::Readback));
    }

    #[test]
    fn split_c_generates_readbacks() {
        let (chip, layer, mapping) = toy(&[(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        let readbacks: Vec<&Transfer> = s
            .transfers
            .iter()
            .filter(|t| t.kind == TransferKind::Readback)
            .collect();
        // 4 regions, each revisited once by the outer C2 -> 4 read-backs.
        assert_eq!(readbacks.len(), 4);
        // Each read-back depends on the drain that parked its psums.
        for rb in readbacks {
            assert!(!rb.deps.is_empty());
        }
    }

    #[test]
    fn reuse_periods_produce_no_transfers() {
        // B2 innermost, W-Reg holds nothing: B-iterations reuse W fully.
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let stack = LoopStack::from_pairs(&[(Dim::B, 2), (Dim::C, 8), (Dim::K, 2)]);
        // Non-canonical W alloc on purpose: B2 stays above the regs.
        let allocs = ulm_workload::PerOperand::new(
            ulm_mapping::OperandAlloc::new(vec![0, 3]),
            ulm_mapping::OperandAlloc::new(vec![0, 3]),
            ulm_mapping::OperandAlloc::new(vec![0, 3]),
        );
        let mapping = Mapping::new(spatial, stack, allocs);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        let w_refills = s
            .transfers
            .iter()
            .filter(|t| t.operand == Operand::W && t.kind == TransferKind::Refill)
            .count() as u64;
        // Z = 32 periods but only 16 distinct blocks.
        assert_eq!(view.z(Operand::W, 0), 32);
        assert_eq!(w_refills, 16);
    }

    #[test]
    fn long_reuse_runs_resolve_deps_like_a_per_period_lookup() {
        // The reuse shape above, scaled up on a three-level chain: W's
        // registers hold nothing, so a B256 run reuses each W block for
        // 256 periods, and the LB's own loops start with an irrelevant
        // B4, so LB refills repeat in runs too.
        let chip = presets::fusion_chip();
        let layer = Layer::matmul("mm", 2 * 1024, 2 * 4, 16, Precision::int8_acc24());
        let stack = LoopStack::from_pairs(&[
            (Dim::B, 256),
            (Dim::C, 4),
            (Dim::B, 4),
            (Dim::K, 2),
            (Dim::C, 4),
            (Dim::K, 2),
        ]);
        let allocs = ulm_workload::PerOperand::new(
            ulm_mapping::OperandAlloc::new(vec![0, 2, 6]),
            ulm_mapping::OperandAlloc::new(vec![0, 0, 6]),
            ulm_mapping::OperandAlloc::new(vec![0, 0, 6]),
        );
        let mapping = Mapping::new(SpatialUnroll::new(chip.spatial.clone()), stack, allocs);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let lowered = LoweredLayer::build(&view, DtlOptions::default());
        let s = build_schedule_lowered(&view, &lowered, 1 << 20).unwrap();
        let refills = |level: usize| -> Vec<&Transfer> {
            s.transfers
                .iter()
                .filter(|t| {
                    t.operand == Operand::W && t.kind == TransferKind::Refill && t.level == level
                })
                .collect()
        };
        let (lo, up) = (refills(0), refills(1));
        let (z0, z1) = (
            lowered.level(Operand::W, 0).z,
            lowered.level(Operand::W, 1).z,
        );
        assert_eq!(z0, 256 * lo.len() as u64, "one W refill per B256 run");
        assert!((up.len() as u64) < z1, "the LB level has reuse runs too");

        // The per-period covering table: the latest upper refill issued
        // at or before each period.
        let mut cover = Vec::new();
        let mut issued = up.iter();
        let mut last = None;
        for j in 0..z1 {
            let region = lowered.region(Operand::W, 1, j);
            if last != Some(region) {
                last = Some(region);
                cover.push(issued.next().unwrap().id);
            } else {
                cover.push(*cover.last().unwrap());
            }
        }
        let up_period = lowered.level(Operand::W, 1).period;
        for t in &lo {
            assert_eq!(
                *t.deps,
                [cover[(t.need_cycle / up_period) as usize]],
                "{t:?}"
            );
        }
    }

    #[test]
    fn saturated_estimate_is_refused() {
        // 2^62 temporal cycles with C innermost: the W and I refill
        // counts are 2^62 each, so twice their sum overflows u64. The
        // estimate must saturate and be refused, not wrap to a small
        // number that passes the cap.
        let chip = presets::toy_chip();
        let layer = Layer::matmul("huge", 1 << 21, 1 << 21, 1 << 20, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::unit(),
            LoopStack::from_pairs(&[(Dim::C, 1 << 20), (Dim::B, 1 << 21), (Dim::K, 1 << 21)]),
        )
        .unwrap();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let err = build_schedule(&view, 1 << 44).unwrap_err();
        assert_eq!(err.transfers, u64::MAX);
        assert_eq!(err.cap, 1 << 44);
    }

    #[test]
    fn cap_is_enforced() {
        let (chip, layer, mapping) = toy(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let err = build_schedule(&view, 4).unwrap_err();
        assert!(err.transfers > 4);
    }

    #[test]
    fn deadlines_are_consistent() {
        let (chip, layer, mapping) = toy(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]);
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let s = build_schedule(&view, 1 << 20).unwrap();
        for t in &s.transfers {
            assert!(t.ready_cycle <= t.need_cycle, "{t:?}");
            // Fractional: packed beats, never more than whole beats.
            let d = t.duration();
            assert!(d > 0.0 && d <= t.bits.div_ceil(t.link_bw) as f64, "{t:?}");
            for &d in &t.deps {
                assert!(d < t.id, "deps must precede: {t:?}");
            }
        }
    }
}
