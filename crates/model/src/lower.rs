//! The **`LoweredLayer` evaluation IR**: one lowering pass from a
//! [`MappedLayer`] to everything the downstream consumers need.
//!
//! The paper's Step 1 ("Divide") produces exactly one artifact — the
//! per-operand unit-memory/DTL graph with `Mem_DATA`, `Mem_CC`, `ReqBW_u`
//! and `Z` — yet latency, energy and simulation all read overlapping
//! pieces of it. `LoweredLayer` materializes that artifact once:
//!
//! ```text
//! Layer → Mapping → MappedLayer → LoweredLayer → {latency, energy, sim, network}
//! ```
//!
//! The IR holds, per `(operand, level)`:
//!
//! * the residency/turnaround table ([`LevelLowering`]): `Mem_DATA` words,
//!   `Mem_CC`, `Z`, the top irrelevant-run, the exact distinct-content
//!   transfer count, the distinct-block count, and output finality;
//! * the loops above the level (a flat `(size, relevant)` arena) together
//!   with the mixed-radix [`region`](LoweredLayer::region) arithmetic and
//!   its incremental odometer form, [`regions`](LoweredLayer::regions),
//!   which the simulator uses to discover which periods move data;
//!
//! plus the layer-wide quantities: the Step-1 DTL list, per-operand
//! compute feed rates, and the phase inputs (`preload`, `offload`,
//! `CC_ideal`, `CC_spatial`).
//!
//! Construction is a single pass, `LoweredLayer::rebuild_full`,
//! over a source of residency rows: the view, whose accessors re-derive
//! every row from scratch (the oracle — [`LoweredLayer::build`],
//! [`build_into`](LoweredLayer::build_into), `build_pinned`), or the
//! fast paths' memoized [`Residency`](crate::Residency) routine
//! ([`ModelScratch::lower_residency`](crate::ModelScratch::lower_residency)).
//! Both refill an IR in place, which keeps the search hot paths
//! allocation-free (the IR lives inside
//! [`ModelScratch`](crate::ModelScratch)).

use crate::delta::{InputDelta, RebuildStats, Stage};
use crate::dtl::{self, Dtl, DtlOptions, LevelRows};
use crate::fast::FastLatency;
use crate::phases;
use crate::slots::{ArchSlots, LiveSlots};
use ulm_mapping::MappedLayer;
use ulm_workload::{Layer, Operand, Relevance};

/// Residency pins for one lowering: `Some(level)` per operand keeps that
/// operand resident at `level`, eliding every inter-memory interface at
/// or above it (no refills from / drains to the levels above — the
/// depth-first-fusion and KV-cache contract). `None` leaves the operand's
/// full chain active.
pub type ResidencyPins = [Option<usize>; 3];

/// Interfaces of `op`'s chain that carry traffic for an *unpinned*
/// lowering of `layer`: normally `chain_len - 1` (every inter-memory
/// interface), one fewer for a KV-cache resident operand, whose top
/// interface never moves data within a decode step.
///
/// Reads only workload structure — never capacities or bandwidths — so
/// incremental-relowering deltas can ignore it.
pub fn kv_active_interfaces(layer: &Layer, op: Operand, chain_len: usize) -> usize {
    let base = chain_len.saturating_sub(1);
    if layer.is_kv_cache(op) {
        base.min(chain_len.saturating_sub(2))
    } else {
        base
    }
}

/// The lowered residency/turnaround table of one `(operand, level)`.
///
/// All fields are exact integers derived from the mapping, so consumers
/// reading them reproduce the source arithmetic bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLowering {
    /// `Mem_DATA` in words: data of the operand resident at this level.
    pub words: u64,
    /// `Mem_CC`: the block turnaround period in cycles.
    pub period: u64,
    /// `Z`: number of periods over the computation phase.
    pub z: u64,
    /// Product of the consecutive irrelevant-loop run at the top of the
    /// level's own loop range (the Table-I window scale factor).
    pub run: u64,
    /// Exact number of distinct-content block transfers into (W/I) or out
    /// of (O) the level over the whole layer.
    pub refills: u64,
    /// Number of distinct blocks seen above the level (revisits ignored).
    pub distinct_above: u64,
    /// True when no loop irrelevant to the operand remains above the
    /// level. For outputs this means blocks crossing the interface above
    /// are final (fully accumulated), not partial sums.
    pub final_above: bool,
    /// Range into the flat loops-above arena (empty for a row that is
    /// not part of a [`LoweredLayer`]).
    pub(crate) loops: (u32, u32),
}

/// The build-once evaluation IR shared by the latency model (slow and
/// fast paths), the energy model, the simulator's schedule extraction and
/// the network evaluator. See the [module docs](self).
#[derive(Debug, Default)]
pub struct LoweredLayer {
    opts: DtlOptions,
    /// Residency pins requested at build time (fused segments).
    pins: ResidencyPins,
    /// Interfaces that carry traffic per operand: the pin-aware prefix
    /// length of each chain. Everything at or above it is elided.
    active: [u32; 3],
    /// Per-(operand, level) tables, operand-major.
    levels: Vec<LevelLowering>,
    /// `levels` range per operand: operand `k` owns
    /// `levels[offsets[k]..offsets[k + 1]]`.
    offsets: [usize; 4],
    /// Flat `(size, relevant)` arena of the loops above each level,
    /// innermost-above first, indexed by [`LevelLowering::loops`].
    loops: Vec<(u64, bool)>,
    /// The Step-1 DTL list, in canonical build order.
    dtls: Vec<Dtl>,
    /// Distinct words of each operand the MAC array touches per cycle
    /// (the product of operand-relevant spatial unroll factors).
    words_per_cycle: [u64; 3],
    preload: u64,
    offload: u64,
    cc_ideal: f64,
    cc_spatial: u64,
    spatial_stall: f64,
}

impl LoweredLayer {
    /// Lowers `view` into a fresh, owned IR.
    pub fn build(view: &MappedLayer<'_>, opts: DtlOptions) -> Self {
        let mut out = Self::default();
        Self::build_into(view, opts, &mut out);
        out
    }

    /// Lowers `view` into `out`, reusing its buffers — the steady-state
    /// path allocates nothing once the buffers have grown to size.
    ///
    /// Runs the four pipeline stages in build order (see
    /// [`Stage`]); [`rebuild_dirty`](Self::rebuild_dirty) re-runs the
    /// same stage functions selectively.
    pub fn build_into(view: &MappedLayer<'_>, opts: DtlOptions, out: &mut LoweredLayer) {
        out.rebuild_full(
            view.layer(),
            view,
            opts,
            [None; 3],
            &LiveSlots::new(view.arch().hierarchy()),
        );
    }

    /// Lowers `view` with explicit residency pins: `pins[op]` keeps that
    /// operand resident at the given chain level, eliding every interface
    /// at or above it. A fused segment prices its elided DRAM round-trips
    /// by pinning the producer's output and the consumer's input at the
    /// fusion buffer; `[None; 3]` is bit-identical to [`build`](Self::build).
    pub fn build_pinned(view: &MappedLayer<'_>, opts: DtlOptions, pins: ResidencyPins) -> Self {
        let mut out = Self::default();
        out.rebuild_full(
            view.layer(),
            view,
            opts,
            pins,
            &LiveSlots::new(view.arch().hierarchy()),
        );
        out
    }

    /// The one lowering driver: runs the four stages in build order,
    /// reading the residency rows from `rows` and every architecture
    /// constant from `slots`. The oracle paths pass the view (rows
    /// re-derived by its accessors) and [`LiveSlots`]; the fast paths
    /// pass a [`Residency`](crate::Residency) and its folded table, built through
    /// `LiveSlots` from the same hierarchy, so both produce the same
    /// bits.
    pub(crate) fn rebuild_full(
        &mut self,
        layer: &Layer,
        rows: &impl ResidencySource,
        opts: DtlOptions,
        pins: ResidencyPins,
        slots: &impl ArchSlots,
    ) {
        self.opts = opts;
        self.pins = pins;
        self.stage_residency(rows);
        self.stage_feed_rates(rows);
        self.stage_phases(layer, slots);
        self.stage_dtl_graph(layer, slots);
    }

    /// [`Stage::Residency`]: the per-`(operand, level)` tables, the
    /// loops-above arena and the layer scalars, copied from `rows`.
    /// Reads workload, mapping and architecture structure (chain shapes)
    /// — never bandwidths or capacities.
    fn stage_residency(&mut self, rows: &impl ResidencySource) {
        self.levels.clear();
        self.loops.clear();

        self.cc_ideal = rows.cc_ideal();
        self.cc_spatial = rows.cc_spatial();
        self.spatial_stall = self.cc_spatial as f64 - self.cc_ideal;

        for op in Operand::all() {
            self.offsets[op.index()] = self.levels.len();
            for level in 0..rows.levels(op) {
                let lo = self.loops.len() as u32;
                rows.extend_loops_above(op, level, &mut self.loops);
                self.levels.push(LevelLowering {
                    loops: (lo, self.loops.len() as u32),
                    ..rows.row(op, level)
                });
            }
            let pinned = self.pins[op.index()].unwrap_or(usize::MAX);
            self.active[op.index()] = rows.active_interfaces(op).min(pinned) as u32;
        }
        self.offsets[3] = self.levels.len();
    }

    /// [`Stage::FeedRates`]: per-operand distinct words per cycle. Reads
    /// workload relevance and the spatial unroll only.
    fn stage_feed_rates(&mut self, rows: &impl ResidencySource) {
        for op in Operand::all() {
            self.words_per_cycle[op.index()] = rows.words_per_cycle(op);
        }
    }

    /// [`Stage::Phases`]: pre-load / off-load cycle counts. Reads port
    /// bandwidths, so a bandwidth delta re-runs it; block sizes come from
    /// the (clean) residency tables built by the stage before it.
    fn stage_phases(&mut self, layer: &Layer, slots: &impl ArchSlots) {
        self.preload = phases::preload_cycles_with(layer, self, slots);
        self.offload = phases::offload_cycles_with(layer, self, slots);
    }

    /// [`Stage::DtlGraph`]: Step 1 proper, read off the tables the
    /// earlier stages built, with every architecture constant answered
    /// by `slots`.
    fn stage_dtl_graph(&mut self, layer: &Layer, slots: &impl ArchSlots) {
        let mut dtls = std::mem::take(&mut self.dtls);
        dtl::build_dtls_with(layer, self.opts, &*self, slots, &mut dtls);
        self.dtls = dtls;
    }

    /// Recomputes only the stages invalidated by `delta`, bit-identical
    /// to [`build_into`](Self::build_into) on the same view.
    ///
    /// The dirty decision per stage is `delta.intersects(stage.reads())`
    /// (see [`Stage::reads`]). Because the residency tables and feed
    /// rates feed every later stage, a delta touching them degrades to a
    /// full rebuild; a pure-bandwidth delta re-runs the phase stage and
    /// refreshes the bandwidth-dependent DTL columns (`RealBW`,
    /// `X_REAL`, `SS_u`) in place; a capacity-only or empty delta skips
    /// all four stages.
    ///
    /// The caller is responsible for `view` matching the previous
    /// lowering up to `delta`: pass the *same* layer and mapping with an
    /// architecture whose difference is described by `delta` (use
    /// [`InputDelta::between`](crate::InputDelta::between)). A never-built
    /// or differently-optioned IR falls back to a full rebuild.
    pub fn rebuild_dirty(
        &mut self,
        view: &MappedLayer<'_>,
        opts: DtlOptions,
        delta: InputDelta,
    ) -> RebuildStats {
        let dirty = |s: Stage| delta.intersects(s.reads());
        let never_built = self.levels.is_empty();
        if never_built || self.opts != opts || dirty(Stage::Residency) || dirty(Stage::FeedRates) {
            // Preserves `self.pins` (unlike `build_into`): a pinned IR
            // stays pinned across incremental rebuilds.
            self.rebuild_full(
                view.layer(),
                view,
                opts,
                self.pins,
                &LiveSlots::new(view.arch().hierarchy()),
            );
            return RebuildStats::full();
        }
        let mut stats = RebuildStats {
            stages_rebuilt: 0,
            stages_skipped: 2, // residency + feed rates reused
        };
        if dirty(Stage::Phases) {
            self.stage_phases(view.layer(), &LiveSlots::new(view.arch().hierarchy()));
            stats.stages_rebuilt += 1;
        } else {
            stats.stages_skipped += 1;
        }
        if dirty(Stage::DtlGraph) {
            // Structure (periods, windows, endpoints) is clean here —
            // only the bandwidth columns can have moved.
            dtl::refresh_bandwidth(view, self);
            stats.stages_rebuilt += 1;
        } else {
            stats.stages_skipped += 1;
        }
        stats
    }

    /// The options the DTL list was built with.
    pub fn options(&self) -> DtlOptions {
        self.opts
    }

    /// The Step-1 DTL list.
    pub fn dtls(&self) -> &[Dtl] {
        &self.dtls
    }

    pub(crate) fn dtls_mut(&mut self) -> &mut Vec<Dtl> {
        &mut self.dtls
    }

    /// Consumes the IR, returning the DTL list.
    pub fn into_dtls(self) -> Vec<Dtl> {
        self.dtls
    }

    /// Interfaces of `op`'s chain that carry traffic under this lowering:
    /// normally `chain.len() - 1`, fewer when a residency pin or a
    /// KV-cache flag elides the top of the chain. Consumers pricing
    /// transfers iterate `0..active_interfaces(op)` instead of the full
    /// chain; the residency tables themselves stay full-length.
    pub fn active_interfaces(&self, op: Operand) -> usize {
        self.active[op.index()] as usize
    }

    /// The residency pins this IR was built with.
    pub fn pins(&self) -> ResidencyPins {
        self.pins
    }

    /// The residency tables of one operand's chain, innermost first.
    pub fn levels(&self, op: Operand) -> &[LevelLowering] {
        &self.levels[self.offsets[op.index()]..self.offsets[op.index() + 1]]
    }

    /// The residency table of one `(operand, level)`.
    pub fn level(&self, op: Operand, level: usize) -> &LevelLowering {
        &self.levels(op)[level]
    }

    /// The `(size, relevant)` loops above `level`, innermost-above first.
    pub fn loops_above(&self, op: Operand, level: usize) -> &[(u64, bool)] {
        let (lo, hi) = self.level(op, level).loops;
        &self.loops[lo as usize..hi as usize]
    }

    /// The distinct-data region id active during period `j` of
    /// `(op, level)`: the mixed-radix digits of `j` restricted to the
    /// operand-relevant loops above the level. Periods sharing a region
    /// reuse the same block, so no transfer happens between them.
    pub fn region(&self, op: Operand, level: usize, j: u64) -> u64 {
        let mut rem = j;
        let mut id = 0u64;
        let mut mul = 1u64;
        for &(size, relevant) in self.loops_above(op, level) {
            let d = rem % size;
            rem /= size;
            if relevant {
                id += d * mul;
                mul *= size;
            }
        }
        id
    }

    /// The region ids of every period of `(op, level)` in order — the
    /// same values as [`region`](Self::region) for `j = 0..z`, produced by
    /// an incremental mixed-radix odometer (amortized O(1) per period, no
    /// division).
    pub fn regions(&self, op: Operand, level: usize) -> Regions<'_> {
        let loops = self.loops_above(op, level);
        let mut mul = 1u64;
        let weights = loops
            .iter()
            .map(|&(size, relevant)| {
                if !relevant {
                    return 0;
                }
                let w = mul;
                mul *= size;
                w
            })
            .collect();
        Regions {
            loops,
            weights,
            digits: vec![0; loops.len()],
            id: 0,
            left: self.level(op, level).z,
        }
    }

    /// Distinct words of `op` the MAC array touches per cycle.
    pub fn words_per_cycle(&self, op: Operand) -> u64 {
        self.words_per_cycle[op.index()]
    }

    /// Pre-load phase cycles.
    pub fn preload(&self) -> u64 {
        self.preload
    }

    /// Off-load phase cycles.
    pub fn offload(&self) -> u64 {
        self.offload
    }

    /// `CC_ideal` (may be fractional).
    pub fn cc_ideal(&self) -> f64 {
        self.cc_ideal
    }

    /// `CC_spatial`: the temporal iteration count.
    pub fn cc_spatial(&self) -> u64 {
        self.cc_spatial
    }

    /// Spatial stall: `CC_spatial − CC_ideal`.
    pub fn spatial_stall(&self) -> f64 {
        self.spatial_stall
    }

    /// Composes the phase totals with a given temporal stall — the single
    /// implementation of `CC_total = preload + CC_spatial + SS_overall +
    /// offload` shared by the slow and fast latency paths.
    pub fn totals(&self, ss_overall: f64) -> FastLatency {
        FastLatency::compose(
            self.preload,
            self.offload,
            self.cc_ideal,
            self.cc_spatial,
            ss_overall,
        )
    }
}

/// Iterator over the per-period region ids of one `(operand, level)`;
/// see [`LoweredLayer::regions`].
#[derive(Debug, Clone)]
pub struct Regions<'a> {
    /// `(size, relevant)` loops above the level, innermost first.
    loops: &'a [(u64, bool)],
    /// Region-id weight of each loop's digit (0 for an irrelevant loop).
    weights: Vec<u64>,
    /// The current period's mixed-radix digits, innermost first.
    digits: Vec<u64>,
    /// Region id of the current period.
    id: u64,
    /// Periods still to yield.
    left: u64,
}

impl Iterator for Regions<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let id = self.id;
        // Advance one period: increment the innermost digit, carrying
        // outwards past every digit that wraps.
        for ((&(size, _), &w), digit) in self.loops.iter().zip(&self.weights).zip(&mut self.digits)
        {
            *digit += 1;
            if *digit < size {
                self.id += w;
                break;
            }
            *digit = 0;
            self.id -= (size - 1) * w;
        }
        Some(id)
    }
}

/// A source of the rows the lowering's Residency stage copies: the
/// view (the from-scratch oracle, every row re-derived by the
/// [`MappedLayer`] accessors) or a [`Residency`](crate::Residency) (the fast paths' memoized
/// split). [`LevelRows::active_interfaces`] is the unpinned count.
pub(crate) trait ResidencySource: LevelRows {
    /// Levels in `op`'s memory chain.
    fn levels(&self, op: Operand) -> usize;
    /// Appends the `(size, relevant)` loops above `(op, level)`,
    /// innermost-above first.
    fn extend_loops_above(&self, op: Operand, level: usize, out: &mut Vec<(u64, bool)>);
    /// `CC_ideal` (may be fractional).
    fn cc_ideal(&self) -> f64;
    /// `CC_spatial`: the temporal iteration count.
    fn cc_spatial(&self) -> u64;
}

impl LevelRows for MappedLayer<'_> {
    fn active_interfaces(&self, op: Operand) -> usize {
        kv_active_interfaces(self.layer(), op, self.arch().hierarchy().chain(op).len())
    }

    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        LevelLowering {
            words: self.mem_data_words(op, level),
            period: self.mem_cc(op, level),
            z: self.z(op, level),
            run: self.top_ir_run(op, level),
            refills: self.refill_count(op, level),
            distinct_above: self.distinct_blocks_above(op, level),
            final_above: !self.has_ir_above(op, level),
            loops: (0, 0),
        }
    }

    fn words_per_cycle(&self, op: Operand) -> u64 {
        let rel = self.layer().operand_relevance(op);
        self.mapping()
            .spatial()
            .factors()
            .iter()
            .filter(|(d, _)| rel.get(*d) != Relevance::Irrelevant)
            .map(|&(_, f)| f)
            .product()
    }
}

impl ResidencySource for MappedLayer<'_> {
    fn levels(&self, op: Operand) -> usize {
        self.arch().hierarchy().chain(op).len()
    }

    fn extend_loops_above(&self, op: Operand, level: usize, out: &mut Vec<(u64, bool)>) {
        let rel = self.layer().operand_relevance(op);
        let from = self.mapping().alloc(op).upper(level);
        out.extend(
            self.mapping().stack().loops()[from..]
                .iter()
                .map(|l| (l.size, rel.get(l.dim).is_relevant())),
        );
    }

    fn cc_ideal(&self) -> f64 {
        MappedLayer::cc_ideal(self)
    }

    fn cc_spatial(&self) -> u64 {
        MappedLayer::cc_spatial(self)
    }
}

impl LevelRows for LoweredLayer {
    fn active_interfaces(&self, op: Operand) -> usize {
        self.active_interfaces(op)
    }

    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        *self.level(op, level)
    }

    fn words_per_cycle(&self, op: Operand) -> u64 {
        self.words_per_cycle(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn toy_view() -> (ulm_arch::presets::PresetChip, Layer, Mapping) {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
        )
        .unwrap();
        (chip, layer, mapping)
    }

    #[test]
    fn tables_match_view_accessors() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let lw = LoweredLayer::build(&view, DtlOptions::default());
        let h = chip.arch.hierarchy();
        for op in Operand::all() {
            assert_eq!(lw.levels(op).len(), h.chain(op).len());
            for (level, e) in lw.levels(op).iter().enumerate() {
                assert_eq!(e.words, view.mem_data_words(op, level));
                assert_eq!(e.period, view.mem_cc(op, level));
                assert_eq!(e.z, view.z(op, level));
                assert_eq!(e.run, view.top_ir_run(op, level));
                assert_eq!(e.refills, view.refill_count(op, level));
                assert_eq!(e.distinct_above, view.distinct_blocks_above(op, level));
                assert_eq!(e.final_above, !view.has_ir_above(op, level));
            }
        }
        assert_eq!(lw.cc_spatial(), view.cc_spatial());
        assert_eq!(lw.cc_ideal().to_bits(), view.cc_ideal().to_bits());
    }

    #[test]
    fn build_into_reuses_buffers_and_matches_build() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let owned = LoweredLayer::build(&view, DtlOptions::default());
        let mut reused = LoweredLayer::default();
        LoweredLayer::build_into(&view, DtlOptions::default(), &mut reused);
        LoweredLayer::build_into(&view, DtlOptions::default(), &mut reused);
        assert_eq!(owned.dtls(), reused.dtls());
        assert_eq!(owned.levels, reused.levels);
        assert_eq!(owned.loops, reused.loops);
        assert_eq!(owned.preload(), reused.preload());
        assert_eq!(owned.offload(), reused.offload());
    }

    #[test]
    fn regions_collapse_irrelevant_loops() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let lw = LoweredLayer::build(&view, DtlOptions::default());
        // W at level 0: loops above are C8 (relevant), B2 (irrelevant),
        // K2 (relevant). Periods that differ only in the B digit share a
        // region.
        let regions: Vec<u64> = (0..lw.level(Operand::W, 0).z)
            .map(|j| lw.region(Operand::W, 0, j))
            .collect();
        let distinct = {
            let mut r = regions.clone();
            r.sort_unstable();
            r.dedup();
            r.len() as u64
        };
        assert_eq!(distinct, lw.level(Operand::W, 0).distinct_above);
    }

    #[test]
    fn regions_odometer_matches_region() {
        let arch = presets::case_study_chip(128);
        let layer = Layer::matmul("mm", 64, 64, 256, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &arch,
            &layer,
            SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]),
            LoopStack::from_pairs(&[
                (Dim::C, 16),
                (Dim::K, 2),
                (Dim::B, 4),
                (Dim::C, 8),
                (Dim::B, 2),
                (Dim::K, 2),
            ]),
        )
        .unwrap();
        let view = MappedLayer::new(&layer, &arch, &mapping).unwrap();
        let lw = LoweredLayer::build(&view, DtlOptions::default());
        for op in Operand::all() {
            for level in 0..lw.levels(op).len() {
                let z = lw.level(op, level).z;
                let walked: Vec<u64> = lw.regions(op, level).collect();
                let direct: Vec<u64> = (0..z).map(|j| lw.region(op, level, j)).collect();
                assert_eq!(walked, direct, "{op:?} level {level}");
            }
        }
    }
}
