//! Lane-width policy for the ordering search: [`BatchKernel`] packs the
//! residency rows of up to `lanes` orderings into structure-of-arrays
//! lanes, computes the phase-floor and roofline bounds for all lanes in
//! lockstep (so the compiler can autovectorize), and pays for Steps 1–3
//! only on the lanes that survive pruning. The rows come from the shared
//! [`Residency`] routine, a survivor's DTLs from the shared Step-1 body
//! and its stall from the shared Step-2/3 helper, so every score is
//! bit-identical to [`LatencyModel::evaluate_fast`] by construction.

use crate::dtl::{build_dtls_with, Dtl, LevelRows};
use crate::fast::FastLatency;
use crate::lower::{LevelLowering, ResidencySource};
use crate::residency::Residency;
use crate::slots::ArchSlots;
use crate::stall::{Reuse, StallScratch};
use crate::LatencyModel;
use ulm_arch::Architecture;
use ulm_mapping::SpatialUnroll;
use ulm_workload::{Dim, Layer, Operand};

/// Outcome of one lane after a [`BatchKernel::drain`] pass, mirroring
/// the scalar search's per-ordering outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneOutcome {
    /// No legal greedy allocation for this ordering.
    Illegal,
    /// Legal, but a monotone lower bound proved the ordering cannot beat
    /// the incumbent passed to `drain`.
    Pruned,
    /// Fully evaluated: `CC_total`, bit-identical to
    /// [`LatencyModel::evaluate_fast`] on the same ordering.
    Scored(f64),
}

/// A reusable batched evaluator for one (architecture, layer, spatial,
/// factor-multiset) search context. See the module docs.
pub struct BatchKernel<'a> {
    arch: &'a Architecture,
    layer: &'a Layer,
    model: LatencyModel,
    lanes: usize,
    /// Factors per ordering.
    n: usize,
    /// Lanes currently filled.
    count: usize,
    res: Residency,

    // --- SoA lane rows, stride = `lanes` ---
    row_off: [usize; 3],
    rows: usize,
    r_words: Vec<u64>,
    r_period: Vec<u64>,
    r_z: Vec<u64>,
    r_run: Vec<u64>,
    r_refills: Vec<u64>,
    r_distinct: Vec<u64>,
    r_final: Vec<bool>,
    lane_ord: Vec<(Dim, u64)>,
    lane_illegal: Vec<bool>,
    lane_pre: Vec<u64>,
    lane_off: Vec<u64>,
    lane_tmp: Vec<u64>,
    lane_floor: Vec<f64>,
    lane_roof: Vec<f64>,

    // --- survivor evaluation ---
    out_final_bits: u64,
    out_partial_bits: u64,
    psum_bits: u64,
    dtls: Vec<Dtl>,
    stall: StallScratch,
    /// Survivor-score memo: a lane's score is a pure function of its SoA
    /// row tuple (the constants are fixed per kernel), and the rows
    /// depend only on level-boundary *multisets*, so many orderings
    /// collapse onto one signature. A hit returns the exact `f64` the
    /// full pipeline computed, so memoization preserves bit-identity.
    score_sig: Vec<u64>,
    score_cache: std::collections::HashMap<Vec<u64>, f64>,
}

impl<'a> BatchKernel<'a> {
    /// Builds a kernel for `factors` (the temporal factor multiset every
    /// pushed ordering permutes; sizes must all be > 1, as produced by
    /// the mapper's factorizer) holding up to `lanes` orderings.
    pub fn new(
        arch: &'a Architecture,
        layer: &'a Layer,
        spatial: &SpatialUnroll,
        model: LatencyModel,
        factors: &[(Dim, u64)],
        lanes: usize,
    ) -> Self {
        let lanes = lanes.max(1);
        let n = factors.len();
        let prec = layer.precision();
        let res = Residency::new(arch, layer, spatial, factors);
        let row_off = [
            0,
            res.levels(Operand::W),
            res.levels(Operand::W) + res.levels(Operand::I),
        ];
        let rows = row_off[2] + res.levels(Operand::O);
        Self {
            arch,
            layer,
            model,
            lanes,
            n,
            count: 0,
            res,
            row_off,
            rows,
            r_words: vec![0; rows * lanes],
            r_period: vec![0; rows * lanes],
            r_z: vec![0; rows * lanes],
            r_run: vec![0; rows * lanes],
            r_refills: vec![0; rows * lanes],
            r_distinct: vec![0; rows * lanes],
            r_final: vec![false; rows * lanes],
            lane_ord: vec![(Dim::B, 0); n * lanes],
            lane_illegal: vec![false; lanes],
            lane_pre: vec![0; lanes],
            lane_off: vec![0; lanes],
            lane_tmp: vec![0; lanes],
            lane_floor: vec![0.0; lanes],
            lane_roof: vec![0.0; lanes],
            out_final_bits: prec.output_bits(true),
            out_partial_bits: prec.output_bits(false),
            psum_bits: prec.partial_sum_bits(),
            dtls: Vec::with_capacity(16),
            stall: StallScratch::default(),
            score_sig: Vec::with_capacity(rows * 7),
            score_cache: std::collections::HashMap::new(),
        }
    }

    /// The lane capacity this kernel was built with.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lanes currently filled (reset by [`drain`](Self::drain)).
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no lanes are filled.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True when a [`drain`](Self::drain) is required before `push`.
    pub fn is_full(&self) -> bool {
        self.count == self.lanes
    }

    /// Prefix quantities reused from the previously pushed ordering —
    /// the same accounting as the one-lane search.
    pub fn cache_hits(&self) -> u64 {
        self.res.cache_hits()
    }

    /// Packs one ordering (innermost factor first, a permutation of the
    /// constructor's factor multiset) into the next lane: the shared
    /// [`Residency`] takes the greedy split, and the lane's SoA rows are
    /// filled from its rows. Panics if the kernel [`is_full`](Self::is_full).
    pub fn push(&mut self, ordering: &[(Dim, u64)]) {
        assert!(self.count < self.lanes, "kernel is full; drain first");
        let n = self.n;
        let lane = self.count;
        self.count += 1;
        self.lane_ord[lane * n..(lane + 1) * n].copy_from_slice(ordering);
        let illegal = self.res.push(self.layer, ordering).is_err();
        self.lane_illegal[lane] = illegal;
        if illegal {
            return;
        }
        for op in Operand::all() {
            for level in 0..self.res.levels(op) {
                let row = self.res.row(op, level);
                let idx = (self.row_off[op.index()] + level) * self.lanes + lane;
                self.r_words[idx] = row.words;
                self.r_period[idx] = row.period;
                self.r_z[idx] = row.z;
                self.r_run[idx] = row.run;
                self.r_refills[idx] = row.refills;
                self.r_distinct[idx] = row.distinct_above;
                self.r_final[idx] = row.final_above;
            }
        }
    }

    /// Evaluates every filled lane in push order and resets the kernel.
    ///
    /// The phase floor and (for bw-aware models) the roofline bound are
    /// computed for all lanes in lockstep first; the per-lane walk then
    /// prunes against the running `incumbent`, fully evaluating only the
    /// survivors. `visit` receives each lane's ordering and outcome and
    /// returns the updated incumbent (the chunk-local best so far), so
    /// prune decisions replay the scalar search's sequence exactly.
    /// Returns the final incumbent.
    pub fn drain(
        &mut self,
        mut incumbent: Option<f64>,
        mut visit: impl FnMut(&[(Dim, u64)], LaneOutcome) -> Option<f64>,
    ) -> Option<f64> {
        let cnt = self.count;
        if cnt == 0 {
            return incumbent;
        }
        self.compute_bounds(cnt);
        for lane in 0..cnt {
            let outcome = if self.lane_illegal[lane] {
                LaneOutcome::Illegal
            } else {
                let pruned = incumbent.is_some_and(|inc| {
                    self.model
                        .prunes(self.lane_floor[lane], || self.lane_roof[lane], inc)
                });
                if pruned {
                    LaneOutcome::Pruned
                } else {
                    LaneOutcome::Scored(self.score_lane(lane))
                }
            };
            let ordering = &self.lane_ord[lane * self.n..(lane + 1) * self.n];
            incumbent = visit(ordering, outcome);
        }
        self.count = 0;
        incumbent
    }

    /// Lockstep phase-floor and roofline bounds over lanes `0..cnt`.
    /// Illegal lanes hold garbage rows; their bounds are never read.
    fn compute_bounds(&mut self, cnt: usize) {
        let lanes = self.lanes;
        let slots = self.res.slots();
        // Preload: max over W and I of the per-level refill sums.
        self.lane_pre[..cnt].fill(0);
        for (oi, op) in [Operand::W, Operand::I].into_iter().enumerate() {
            self.lane_tmp[..cnt].fill(0);
            for lvl in 0..self.res.active_interfaces(op) {
                let base = (self.row_off[oi] + lvl) * lanes;
                let bw = slots.interface(op, lvl).bw_bits;
                let bits = self.res.bits(op);
                let words = &self.r_words[base..base + cnt];
                for (acc, &w) in self.lane_tmp[..cnt].iter_mut().zip(words) {
                    *acc += (w * bits).div_ceil(bw);
                }
            }
            for (pre, &t) in self.lane_pre[..cnt].iter_mut().zip(&self.lane_tmp[..cnt]) {
                *pre = if oi == 0 { t } else { (*pre).max(t) };
            }
        }
        // Offload: per-level drain sums of O at the crossing precision.
        self.lane_off[..cnt].fill(0);
        {
            for lvl in 0..self.res.active_interfaces(Operand::O) {
                let base = (self.row_off[2] + lvl) * lanes;
                let bw = slots.interface(Operand::O, lvl).bw_bits;
                for lane in 0..cnt {
                    let bits = if self.r_final[base + lane] {
                        self.out_final_bits
                    } else {
                        self.out_partial_bits
                    };
                    self.lane_off[lane] += (self.r_words[base + lane] * bits).div_ceil(bw);
                }
            }
        }
        // Phase floor: the stall-free composition, through the same
        // `FastLatency::compose` every other path uses.
        for lane in 0..cnt {
            self.lane_floor[lane] = FastLatency::compose(
                self.lane_pre[lane],
                self.lane_off[lane],
                self.res.cc_ideal(),
                self.res.cc_spatial(),
                0.0,
            )
            .cc_total;
        }
        // Roofline bound, folded in the same (operand, level) order as
        // the roofline report so the float max chain matches.
        if !self.model.options().bw_aware {
            return;
        }
        self.lane_roof[..cnt].fill(self.res.cc_ideal());
        for (oi, op) in Operand::all().enumerate() {
            for lvl in 0..self.res.active_interfaces(op) {
                let base = (self.row_off[oi] + lvl) * lanes;
                let bw = slots.interface(op, lvl).bw_bits as f64;
                let bits = self.res.bits(op);
                for lane in 0..cnt {
                    let idx = base + lane;
                    let traffic = if oi < 2 {
                        self.r_words[idx] * bits * self.r_refills[idx]
                    } else {
                        let drains = self.r_refills[idx];
                        let revisits = drains - self.r_distinct[idx];
                        let ob = if self.r_final[idx] {
                            self.out_final_bits
                        } else {
                            self.out_partial_bits
                        };
                        self.r_words[idx] * ob * drains
                            + self.r_words[idx] * self.psum_bits * revisits
                    };
                    self.lane_roof[lane] = self.lane_roof[lane].max(traffic as f64 / bw);
                }
            }
        }
    }

    /// Full evaluation of one surviving lane: build its DTL list from
    /// the lane's rows through the shared Step-1 body, run Steps 2–3,
    /// compose.
    fn score_lane(&mut self, lane: usize) -> f64 {
        // Memo lookup: the score is fully determined by the lane's row
        // tuple (everything else in the pipeline is a kernel constant).
        self.score_sig.clear();
        for r in 0..self.rows {
            let idx = r * self.lanes + lane;
            self.score_sig.extend_from_slice(&[
                self.r_words[idx],
                self.r_period[idx],
                self.r_z[idx],
                self.r_run[idx],
                self.r_refills[idx],
                self.r_distinct[idx],
                self.r_final[idx] as u64,
            ]);
        }
        if let Some(&score) = self.score_cache.get(self.score_sig.as_slice()) {
            return score;
        }
        let mut dtls = std::mem::take(&mut self.dtls);
        build_dtls_with(
            self.layer,
            self.model.dtl_options(),
            &Lane { kernel: self, lane },
            self.res.slots(),
            &mut dtls,
        );
        let ss_overall =
            self.model
                .ss_overall(self.arch, &dtls, &mut self.stall, Reuse::Nothing, false);
        self.dtls = dtls;
        let score = FastLatency::compose(
            self.lane_pre[lane],
            self.lane_off[lane],
            self.res.cc_ideal(),
            self.res.cc_spatial(),
            ss_overall,
        )
        .cc_total;
        // Bounded memo: stop inserting (lookups still work) rather than
        // grow without limit on adversarial workloads.
        if self.score_cache.len() < (1 << 16) {
            self.score_cache.insert(self.score_sig.clone(), score);
        }
        score
    }
}

/// One lane of the kernel's SoA rows, read as the residency tables
/// Step 1 consumes.
struct Lane<'k, 'a> {
    kernel: &'k BatchKernel<'a>,
    lane: usize,
}

impl LevelRows for Lane<'_, '_> {
    fn active_interfaces(&self, op: Operand) -> usize {
        self.kernel.res.active_interfaces(op)
    }

    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        let k = self.kernel;
        let idx = (k.row_off[op.index()] + level) * k.lanes + self.lane;
        LevelLowering {
            words: k.r_words[idx],
            period: k.r_period[idx],
            z: k.r_z[idx],
            run: k.r_run[idx],
            refills: k.r_refills[idx],
            distinct_above: k.r_distinct[idx],
            final_above: k.r_final[idx],
            loops: (0, 0),
        }
    }

    fn words_per_cycle(&self, op: Operand) -> u64 {
        self.kernel.res.words_per_cycle(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residency::tests::permutations;
    use crate::ModelScratch;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, MappedLayer, Mapping};
    use ulm_workload::Precision;

    /// Every permutation of the toy factor multiset, kernel vs scalar:
    /// identical legality and bit-identical scores, for both models.
    #[test]
    fn kernel_matches_scalar_on_toy_permutations() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        // The toy factor multiset: B2, K2, C2, C2, C2.
        let factors = vec![
            (Dim::B, 2),
            (Dim::K, 2),
            (Dim::C, 2),
            (Dim::C, 2),
            (Dim::C, 2),
        ];
        let orderings = permutations(&factors);
        for model in [LatencyModel::new(), LatencyModel::bw_unaware()] {
            let mut kernel = BatchKernel::new(&chip.arch, &layer, &spatial, model, &factors, 8);
            let mut scalar_scratch = ModelScratch::default();
            let mut results: Vec<LaneOutcome> = Vec::new();
            for ord in &orderings {
                if kernel.is_full() {
                    kernel.drain(None, |_, o| {
                        results.push(o);
                        None
                    });
                }
                kernel.push(ord);
            }
            kernel.drain(None, |_, o| {
                results.push(o);
                None
            });
            assert_eq!(results.len(), orderings.len());
            for (ord, got) in orderings.iter().zip(&results) {
                let scalar = scalar_eval(
                    &chip.arch,
                    &layer,
                    &spatial,
                    model,
                    ord,
                    &mut scalar_scratch,
                );
                match (scalar, got) {
                    (None, LaneOutcome::Illegal) => {}
                    (Some(want), LaneOutcome::Scored(s)) => {
                        assert_eq!(want.to_bits(), s.to_bits(), "ordering {ord:?}");
                    }
                    other => panic!("mismatch for {ord:?}: {other:?}"),
                }
            }
        }
    }

    /// The from-scratch oracle: greedy mapping, validated view, full
    /// lowering.
    fn scalar_eval(
        arch: &ulm_arch::Architecture,
        layer: &Layer,
        spatial: &SpatialUnroll,
        model: LatencyModel,
        ordering: &[(Dim, u64)],
        scratch: &mut ModelScratch,
    ) -> Option<f64> {
        let stack = LoopStack::from_pairs(ordering);
        let mapping = Mapping::with_greedy_alloc(arch, layer, spatial.clone(), stack).ok()?;
        let view = MappedLayer::new(layer, arch, &mapping).ok()?;
        Some(model.evaluate_fast(&view, scratch).cc_total)
    }

    /// Incumbent-driven pruning: outcomes must replay the scalar
    /// bounded-search sequence (same pruned set, same survivor scores).
    #[test]
    fn pruning_replays_scalar_sequence() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let factors = vec![
            (Dim::B, 2),
            (Dim::K, 2),
            (Dim::C, 2),
            (Dim::C, 2),
            (Dim::C, 2),
        ];
        let orderings = permutations(&factors);
        let model = LatencyModel::new();

        // Scalar reference sequence with floor-only-style incumbents:
        // replicate the mapper's bounded walk using full scores.
        let mut scalar_scratch = ModelScratch::default();
        let mut best: Option<f64> = None;
        let mut want = Vec::new();
        for ord in &orderings {
            match scalar_eval(
                &chip.arch,
                &layer,
                &spatial,
                model,
                ord,
                &mut scalar_scratch,
            ) {
                None => want.push(None),
                Some(score) => {
                    want.push(Some(score));
                    if best.map(|b| score < b).unwrap_or(true) {
                        best = Some(score);
                    }
                }
            }
        }

        let mut kernel = BatchKernel::new(&chip.arch, &layer, &spatial, model, &factors, 7);
        let mut running: Option<f64> = None;
        let mut outcomes = Vec::new();
        let drain = |k: &mut BatchKernel<'_>,
                     running: &mut Option<f64>,
                     outcomes: &mut Vec<LaneOutcome>| {
            let r = k.drain(*running, |_, o| {
                outcomes.push(o);
                if let LaneOutcome::Scored(s) = o {
                    if running.map(|b| s < b).unwrap_or(true) {
                        *running = Some(s);
                    }
                }
                *running
            });
            *running = r;
        };
        for ord in &orderings {
            if kernel.is_full() {
                drain(&mut kernel, &mut running, &mut outcomes);
            }
            kernel.push(ord);
        }
        drain(&mut kernel, &mut running, &mut outcomes);

        assert_eq!(outcomes.len(), want.len());
        // The final best must match the unpruned best exactly, and no
        // scored lane may disagree with the scalar score.
        assert_eq!(running.unwrap().to_bits(), best.unwrap().to_bits());
        for (o, w) in outcomes.iter().zip(&want) {
            match (o, w) {
                (LaneOutcome::Illegal, None) => {}
                (LaneOutcome::Scored(s), Some(w)) => assert_eq!(s.to_bits(), w.to_bits()),
                (LaneOutcome::Pruned, Some(_)) => {}
                other => panic!("{other:?}"),
            }
        }
    }
}
