//! Step 1's residency half for the fast paths: the greedy level split
//! and the per-`(operand, level)` rows (`Mem_DATA`, `Mem_CC`, `Z`, the
//! irrelevant-loop run, refills, distinct blocks, finality) of one
//! ordering of a fixed factor multiset.
//!
//! Everything that does not depend on the factor *order* — capacity
//! budgets in words, the spatial-fit and coverage verdict, `CC_ideal`,
//! `CC_spatial`, the folded link constants — is computed once per
//! target. Per pushed ordering, the prefix memos are extended only past
//! the inner prefix shared with the previous ordering; the split and
//! every row then come from closed-form prefix/suffix products instead
//! of loop-stack walks.
//!
//! The batched kernel, the one-lane and energy/EDP searches and the
//! surrogate all read their rows here. The from-scratch oracle is
//! [`Mapping::with_greedy_alloc`](ulm_mapping::Mapping::with_greedy_alloc)
//! plus the [`MappedLayer`](ulm_mapping::MappedLayer) accessors, which
//! share no code with this module.

use crate::dtl::LevelRows;
use crate::lower::{kv_active_interfaces, LevelLowering, ResidencySource};
use crate::slots::FoldedSlots;
use ulm_arch::{Architecture, MemoryId};
use ulm_mapping::SpatialUnroll;
use ulm_workload::{Dim, DimSizes, Layer, Operand, Relevance, ALL_DIMS};

/// Why [`Residency::push`] rejected an ordering, in check order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// No greedy split: some level cannot hold even the block arriving
    /// from the level below.
    NoSplit,
    /// The split exists, but the spatial unroll overflows the MAC array,
    /// a dimension is under-covered, or a memory overflows.
    Invalid,
}

/// Constant per-operand data of one target.
#[derive(Debug, Clone, Default)]
struct OpSpec {
    /// Resident precision in bits (partial-sum width for O).
    bits: u64,
    chain: Vec<MemoryId>,
    /// Per dim: does a temporal factor of this dim grow the operand's
    /// resident words multiplicatively (strictly relevant)?
    step: [bool; 7],
    /// Per dim: `is_relevant()` (partials included) — drives runs,
    /// refill counts and output finality.
    rel: [bool; 7],
    /// All factor dims are strictly relevant or irrelevant to this
    /// operand, so resident words grow by pure factor products.
    words_mult: bool,
    /// Interfaces that carry traffic (KV-cache aware, unpinned).
    active: usize,
    /// Per level below the top: greedy capacity budget in *words*
    /// (`mapper_capacity_bits / sharers / bits`, floored).
    cap_words: Vec<u64>,
    /// Compute-facing link: relevant spatial words per cycle.
    words_per_cycle: u64,
}

/// The prefix-memoized residency routine for one (architecture, layer,
/// spatial unroll, factor multiset) target. See the module docs.
#[derive(Debug)]
pub struct Residency {
    ops: [OpSpec; 3],
    /// Per physical memory: capacity in bits, `None` for backing stores
    /// (exempt from the residency check).
    mem_caps: Vec<Option<u64>>,
    /// Link constants per interface, folded once from the hierarchy.
    slots: FoldedSlots,
    /// Spatial fit + coverage verdict (order-independent).
    fits: bool,
    cc_ideal: f64,
    cc_spatial: u64,
    /// The last pushed ordering, innermost first.
    ordering: Vec<(Dim, u64)>,
    /// `prefix_cycles[p]` = product of the innermost `p` factor sizes.
    prefix_cycles: Vec<u64>,
    /// `words_at[op][p]` = operand words resident under the innermost
    /// `p` factors (entry 0 = spatial extents alone).
    words_at: [Vec<u64>; 3],
    /// `prefix_ext[p]`: full extents, maintained only when some operand
    /// is non-multiplicative (conv inputs).
    prefix_ext: Vec<DimSizes>,
    /// `rel_at[op][p]` = product of the operand-*relevant* sizes among
    /// the innermost `p` factors, so `rel_at[op][n] / rel_at[op][upper]`
    /// is the exact distinct-block count above `upper`.
    rel_at: [Vec<u64>; 3],
    need_ext: bool,
    cache_hits: u64,
    /// `suffix_all[p]` = product of the factor sizes from `p` outwards.
    suffix_all: Vec<u64>,
    /// Greedy split per operand: the loop count below each level's top.
    bounds: [Vec<u32>; 3],
    /// Per-memory resident bits, scratch for the capacity check.
    residency: Vec<u64>,
}

impl Residency {
    /// Builds the routine for orderings of `factors` (sizes all > 1, as
    /// the mapper's factorizer produces them).
    pub fn new(
        arch: &Architecture,
        layer: &Layer,
        spatial: &SpatialUnroll,
        factors: &[(Dim, u64)],
    ) -> Self {
        let mut out = Self {
            ops: Default::default(),
            mem_caps: Vec::new(),
            slots: FoldedSlots::fold(arch.hierarchy()),
            fits: false,
            cc_ideal: 0.0,
            cc_spatial: 0,
            ordering: Vec::new(),
            prefix_cycles: Vec::new(),
            words_at: Default::default(),
            prefix_ext: Vec::new(),
            rel_at: Default::default(),
            need_ext: false,
            cache_hits: 0,
            suffix_all: Vec::new(),
            bounds: Default::default(),
            residency: Vec::new(),
        };
        out.retarget(arch, layer, spatial, factors);
        out
    }

    /// Re-targets the routine in place at a new layer and factor
    /// multiset over the *same* architecture (the folded link constants
    /// are kept), reusing every buffer. The prefix memo starts empty.
    pub(crate) fn retarget(
        &mut self,
        arch: &Architecture,
        layer: &Layer,
        spatial: &SpatialUnroll,
        factors: &[(Dim, u64)],
    ) {
        debug_assert!(factors.iter().all(|&(_, s)| s > 1));
        let n = factors.len();
        let h = arch.hierarchy();
        let macs = arch.mac_array().num_macs();

        let mut temporal = DimSizes::new(1, 1, 1, 1, 1, 1, 1);
        for &(d, s) in factors {
            temporal.multiply(d, s);
        }
        self.fits = spatial.product() <= macs
            && layer
                .shape()
                .dims()
                .iter()
                .all(|(dim, required)| spatial.extent(dim) * temporal[dim] >= required);
        self.cc_ideal = layer.total_macs() as f64 / macs as f64;
        self.cc_spatial = factors.iter().map(|&(_, s)| s).product();

        let spatial_ext = spatial.extents();
        self.need_ext = false;
        for (oi, op) in Operand::all().enumerate() {
            let rel_table = layer.operand_relevance(op);
            let spec = &mut self.ops[oi];
            spec.bits = layer.precision().bits(op);
            spec.chain.clear();
            spec.chain.extend_from_slice(h.chain(op));
            for d in ALL_DIMS {
                let r = rel_table.get(d);
                spec.step[d.index()] = r == Relevance::Relevant;
                spec.rel[d.index()] = r.is_relevant();
            }
            spec.words_mult = factors.iter().all(|&(d, _)| {
                matches!(
                    rel_table.get(d),
                    Relevance::Relevant | Relevance::Irrelevant
                )
            });
            spec.active = kv_active_interfaces(layer, op, spec.chain.len());
            spec.cap_words.clear();
            let bits = spec.bits;
            spec.cap_words
                .extend(
                    spec.chain[..spec.chain.len().saturating_sub(1)]
                        .iter()
                        .map(|&lower| {
                            let sharers = h.served_operand_count(lower) as u64;
                            h.mem(lower).mapper_capacity_bits() / sharers / bits
                        }),
                );
            spec.words_per_cycle = spatial
                .factors()
                .iter()
                .filter(|(d, _)| rel_table.get(*d) != Relevance::Irrelevant)
                .map(|&(_, f)| f)
                .product();
            self.need_ext |= !spec.words_mult;

            self.words_at[oi].clear();
            self.words_at[oi].resize(n + 1, 0);
            self.words_at[oi][0] = layer.data_words(op, &spatial_ext);
            self.rel_at[oi].clear();
            self.rel_at[oi].resize(n + 1, 1);
        }

        self.mem_caps.clear();
        self.mem_caps.extend(
            h.memories()
                .iter()
                .map(|m| (!m.is_backing_store()).then(|| m.mapper_capacity_bits())),
        );
        self.residency.clear();
        self.residency.resize(h.memories().len(), 0);
        self.prefix_cycles.clear();
        self.prefix_cycles.resize(n + 1, 1);
        self.prefix_ext.clear();
        self.prefix_ext.resize(n + 1, spatial_ext);
        self.suffix_all.clear();
        self.suffix_all.resize(n + 1, 1);
        self.ordering.clear();
    }

    /// Prefix entries reused from the previously pushed ordering (one
    /// per shared inner-prefix factor).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Makes `ordering` (innermost first, a permutation of the target's
    /// factor multiset) current: extends the prefix memos past the
    /// prefix it shares with the previous ordering, takes the greedy
    /// split, and checks the split against every memory's capacity.
    /// `layer` must be the layer the routine was targeted at. On `Err`
    /// the rows are unspecified until the next accepted push.
    ///
    /// # Panics
    ///
    /// Panics when `ordering` is not as long as the target's factor
    /// multiset. A same-length ordering of another multiset is not
    /// detected: its rows would use the target's verdict and `CC_spatial`.
    pub fn push(&mut self, layer: &Layer, ordering: &[(Dim, u64)]) -> Result<(), Reject> {
        let n = self.prefix_cycles.len() - 1;
        assert_eq!(
            ordering.len(),
            n,
            "ordering is not a permutation of the target's factors"
        );
        let shared = self
            .ordering
            .iter()
            .zip(ordering)
            .take_while(|(a, b)| *a == *b)
            .count();
        self.cache_hits += shared as u64;
        self.ordering.clear();
        self.ordering.extend_from_slice(ordering);
        for (p, &(d, s)) in ordering.iter().enumerate().skip(shared) {
            self.prefix_cycles[p + 1] = self.prefix_cycles[p] * s;
            if self.need_ext {
                let mut ext = self.prefix_ext[p];
                ext.multiply(d, s);
                self.prefix_ext[p + 1] = ext;
            }
            for (oi, op) in Operand::all().enumerate() {
                let spec = &self.ops[oi];
                self.words_at[oi][p + 1] = if spec.words_mult {
                    let f = if spec.step[d.index()] { s } else { 1 };
                    self.words_at[oi][p] * f
                } else {
                    layer.data_words(op, &self.prefix_ext[p + 1])
                };
                self.rel_at[oi][p + 1] =
                    self.rel_at[oi][p] * if spec.rel[d.index()] { s } else { 1 };
            }
        }
        self.suffix_all[n] = 1;
        for p in (0..n).rev() {
            self.suffix_all[p] = self.suffix_all[p + 1] * ordering[p].1;
        }

        // Greedy split: each level takes the longest prefix whose words
        // fit its budget; the top level takes the rest.
        for (oi, spec) in self.ops.iter().enumerate() {
            let words = &self.words_at[oi];
            let bounds = &mut self.bounds[oi];
            bounds.clear();
            let mut prev = 0usize;
            for &cap in &spec.cap_words {
                if words[prev] > cap {
                    return Err(Reject::NoSplit);
                }
                let mut p = prev;
                while p < n && words[p + 1] <= cap {
                    p += 1;
                }
                bounds.push(p as u32);
                prev = p;
            }
            bounds.push(n as u32);
        }
        if !self.fits {
            return Err(Reject::Invalid);
        }

        // Capacity: per physical memory, summed over resident operands.
        self.residency.fill(0);
        for (oi, spec) in self.ops.iter().enumerate() {
            for (&mid, &upper) in spec.chain.iter().zip(&self.bounds[oi]) {
                self.residency[mid.0] += self.words_at[oi][upper as usize] * spec.bits;
            }
        }
        let overflows = self
            .residency
            .iter()
            .zip(&self.mem_caps)
            .any(|(&needed, cap)| cap.is_some_and(|cap| needed > cap));
        if overflows {
            Err(Reject::Invalid)
        } else {
            Ok(())
        }
    }

    /// Resident precision of `op` in bits.
    pub(crate) fn bits(&self, op: Operand) -> u64 {
        self.ops[op.index()].bits
    }

    /// The folded link constants of the target architecture.
    pub(crate) fn slots(&self) -> &FoldedSlots {
        &self.slots
    }
}

impl LevelRows for Residency {
    fn active_interfaces(&self, op: Operand) -> usize {
        self.ops[op.index()].active
    }

    /// Closed-form over the prefix and suffix memos of the current
    /// ordering.
    #[inline]
    fn row(&self, op: Operand, level: usize) -> LevelLowering {
        let oi = op.index();
        let rel = &self.ops[oi].rel;
        let bounds = &self.bounds[oi];
        let upper = bounds[level] as usize;
        let lower = if level == 0 {
            0
        } else {
            bounds[level - 1] as usize
        };
        let irrelevant = |&(d, _): &&(Dim, u64)| !rel[d.index()];
        let run = self.ordering[lower..upper]
            .iter()
            .rev()
            .take_while(irrelevant)
            .map(|&(_, s)| s)
            .product();
        // Refills multiply from the first relevant loop above outwards.
        let first_relevant = upper + self.ordering[upper..].iter().take_while(irrelevant).count();
        let rel_at = &self.rel_at[oi];
        // Exact: `rel_at[upper]` divides the total, and (sizes being
        // > 1) everything above is relevant iff the full and
        // relevant-only suffix products agree.
        let distinct = rel_at[self.ordering.len()] / rel_at[upper];
        LevelLowering {
            words: self.words_at[oi][upper],
            period: self.prefix_cycles[upper],
            z: self.suffix_all[upper],
            run,
            refills: self.suffix_all[first_relevant],
            distinct_above: distinct,
            final_above: self.suffix_all[upper] == distinct,
            loops: (0, 0),
        }
    }

    fn words_per_cycle(&self, op: Operand) -> u64 {
        self.ops[op.index()].words_per_cycle
    }
}

impl ResidencySource for Residency {
    fn levels(&self, op: Operand) -> usize {
        self.ops[op.index()].chain.len()
    }

    fn extend_loops_above(&self, op: Operand, level: usize, out: &mut Vec<(u64, bool)>) {
        let rel = &self.ops[op.index()].rel;
        let upper = self.bounds[op.index()][level] as usize;
        out.extend(
            self.ordering[upper..]
                .iter()
                .map(|&(d, s)| (s, rel[d.index()])),
        );
    }

    fn cc_ideal(&self) -> f64 {
        self.cc_ideal
    }

    fn cc_spatial(&self) -> u64 {
        self.cc_spatial
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, MappedLayer, Mapping};
    use ulm_workload::{LayerShape, Precision};

    /// Every distinct permutation of a factor multiset.
    pub(crate) fn permutations(factors: &[(Dim, u64)]) -> Vec<Vec<(Dim, u64)>> {
        fn rec(
            factors: &[(Dim, u64)],
            used: &mut [bool],
            cur: &mut Vec<(Dim, u64)>,
            out: &mut Vec<Vec<(Dim, u64)>>,
        ) {
            if cur.len() == factors.len() {
                out.push(cur.clone());
                return;
            }
            let mut seen = Vec::new();
            for i in 0..factors.len() {
                if used[i] || seen.contains(&factors[i]) {
                    continue;
                }
                seen.push(factors[i]);
                used[i] = true;
                cur.push(factors[i]);
                rec(factors, used, cur, out);
                cur.pop();
                used[i] = false;
            }
        }
        let mut out = Vec::new();
        rec(
            factors,
            &mut vec![false; factors.len()],
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// Pushes every permutation of `factors` through one routine and
    /// checks legality and every row against the from-scratch oracle:
    /// `Mapping::with_greedy_alloc` + `MappedLayer::new` + the view's
    /// accessors (its `LevelRows` impl).
    fn check_against_oracle(
        arch: &Architecture,
        layer: &Layer,
        spatial: &SpatialUnroll,
        factors: &[(Dim, u64)],
    ) -> usize {
        let mut res = Residency::new(arch, layer, spatial, factors);
        let mut legal = 0;
        for ord in permutations(factors) {
            let pushed = res.push(layer, &ord);
            let mapping = Mapping::with_greedy_alloc(
                arch,
                layer,
                spatial.clone(),
                LoopStack::from_pairs(&ord),
            );
            let view = mapping
                .as_ref()
                .ok()
                .and_then(|m| MappedLayer::new(layer, arch, m).ok());
            assert_eq!(pushed.is_ok(), view.is_some(), "legality of {ord:?}");
            assert_eq!(
                pushed == Err(Reject::NoSplit),
                mapping.is_err(),
                "split of {ord:?}"
            );
            let Some(view) = view else { continue };
            legal += 1;
            assert_eq!(res.cc_spatial(), view.cc_spatial());
            assert_eq!(res.cc_ideal().to_bits(), view.cc_ideal().to_bits());
            for op in Operand::all() {
                assert_eq!(res.levels(op), arch.hierarchy().chain(op).len());
                for level in 0..res.levels(op) {
                    assert_eq!(
                        res.row(op, level),
                        view.row(op, level),
                        "{ord:?} {op:?} level {level}"
                    );
                }
            }
        }
        legal
    }

    #[test]
    fn rows_match_the_oracle_on_a_toy_matmul() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let factors = [
            (Dim::B, 2),
            (Dim::K, 2),
            (Dim::C, 2),
            (Dim::C, 2),
            (Dim::C, 2),
        ];
        assert!(check_against_oracle(&chip.arch, &layer, &spatial, &factors) > 0);
    }

    #[test]
    fn rows_match_the_oracle_on_a_conv_layer() {
        // Input words grow by halo arithmetic, not factor products.
        let chip = presets::conv_native_chip();
        let layer = Layer::conv2d(
            "cv",
            LayerShape::conv(1, 4, 2, 4, 4, 3, 3),
            Precision::int8_acc24(),
        );
        let spatial = SpatialUnroll::new(vec![(Dim::K, 2)]);
        let factors = [
            (Dim::K, 2),
            (Dim::C, 2),
            (Dim::OY, 2),
            (Dim::OY, 2),
            (Dim::OX, 4),
            (Dim::FY, 3),
            (Dim::FX, 3),
        ];
        let res = Residency::new(&chip.arch, &layer, &spatial, &factors);
        assert!(res.need_ext, "conv inputs must take the extents path");
        assert!(check_against_oracle(&chip.arch, &layer, &spatial, &factors) > 0);
    }

    #[test]
    fn rows_match_the_oracle_on_a_kv_cache_layer() {
        let arch = presets::case_study_chip(128);
        let layer =
            Layer::matmul("attend", 1, 64, 128, Precision::int8_out24()).with_kv_cache(Operand::W);
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::C, 2)]);
        let factors = [
            (Dim::K, 2),
            (Dim::K, 2),
            (Dim::C, 4),
            (Dim::C, 4),
            (Dim::C, 4),
        ];
        let res = Residency::new(&arch, &layer, &spatial, &factors);
        let chain = arch.hierarchy().chain(Operand::W).len();
        assert_eq!(res.active_interfaces(Operand::W), chain - 2);
        assert!(check_against_oracle(&arch, &layer, &spatial, &factors) > 0);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn push_rejects_an_ordering_of_another_length() {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let mut res = Residency::new(&chip.arch, &layer, &spatial, &[(Dim::C, 2), (Dim::C, 4)]);
        let _ = res.push(&layer, &[(Dim::C, 8)]);
    }
}
