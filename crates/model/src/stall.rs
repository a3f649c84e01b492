//! Steps 2 and 3: combine DTL attributes over shared ports and memory
//! modules (Eq. (1)/(2)), then integrate across the hierarchy into the
//! overall temporal stall `SS_overall`.

use crate::dtl::Dtl;
use ulm_arch::{Architecture, MemoryId, PortId, StallIntegration};
use ulm_periodic::PeriodicWindow;
use ulm_periodic::{union_measure_scratch, UnionOptions, UnionScratch};

/// Step-2 result for one memory module: the maximum over its ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemStall {
    /// The memory.
    pub mem: MemoryId,
    /// `max` of the memory's port `SS_comb` values, cycles.
    pub ss: f64,
}

/// The Step-2 numbers of one port group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortGroupCore {
    /// The memory owning the port.
    pub mem: MemoryId,
    /// The port index within the memory.
    pub port: PortId,
    /// `ReqBW_comb`: summed required bandwidth on the port, bits/cycle.
    pub req_bw_comb: f64,
    /// `MUW_comb`: measure of the union of the links' updating windows.
    pub muw_comb: f64,
    /// Whether `MUW_comb` was computed exactly.
    pub muw_exact: bool,
    /// `SS_comb`: combined stall (+) or slack (−) of the port, cycles.
    pub ss_comb: f64,
    /// The minimum physical port bandwidth (bits/cycle) that would make
    /// this port stall-free, assuming it is the binding link constraint:
    /// `max(max_i ReqBW_u(i), Σ(data·Z) / MUW_comb)` — the paper's
    /// Section V-A guidance of "matching ReqBW with RealBW".
    pub min_stall_free_bw: f64,
}

/// What a Step-2 call may take over from the previous call on the same
/// [`StallScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reuse {
    /// Recompute everything.
    Nothing,
    /// The sorted port grouping (the endpoint keys), when it still
    /// describes the DTL list. Windows and every group scalar are
    /// recomputed: the surrogate's workload-dim queries move them.
    Grouping,
    /// The grouping plus each port's window union (`MUW_comb`), the
    /// expensive half of Eq. (1)/(2). Only the caller knows the windows
    /// did not move — a bandwidth-only delta never moves them.
    Unions,
}

/// Reusable buffers for the allocation-free Step-2/3 pipeline.
///
/// After [`combine_and_integrate`](Self::combine_and_integrate) the
/// scratch retains the per-port groups and per-memory stalls it computed,
/// so report assembly can read the very numbers that produced
/// `SS_overall` instead of re-running the pipeline. `groups[g]` always
/// belongs to the `g`-th `(memory, port)` run of the sorted `keys`: every
/// call rewrites both together, which is what lets a later call reuse
/// them.
#[derive(Debug, Default)]
pub struct StallScratch {
    keys: Vec<(MemoryId, PortId, usize)>,
    windows: Vec<PeriodicWindow>,
    union: UnionScratch,
    groups: Vec<PortGroupCore>,
    mem_stalls: Vec<MemStall>,
    grouped: Vec<MemoryId>,
    reused_grouping: bool,
}

impl StallScratch {
    /// The Step-2 port groups of the most recent
    /// [`combine_and_integrate`](Self::combine_and_integrate), in
    /// ascending `(memory, port)` order.
    pub fn port_groups(&self) -> &[PortGroupCore] {
        &self.groups
    }

    /// The per-memory maxima of the most recent
    /// [`combine_and_integrate`](Self::combine_and_integrate).
    pub fn memory_stalls(&self) -> &[MemStall] {
        &self.mem_stalls
    }

    /// Whether the most recent Step 2 took its port grouping from the
    /// call before it.
    pub(crate) fn reused_grouping(&self) -> bool {
        self.reused_grouping
    }

    /// Steps 2 and 3 without allocating: per-port Eq. (1)/(2), the
    /// per-memory max, and the cross-memory integration policy, all on
    /// internal buffers. Returns `SS_overall` before the clamp at zero.
    ///
    /// Equation (1) — no link on a port stalls by itself (`SS_u ≤ 0` for
    /// all): the port stalls by however much the summed busy time exceeds
    /// the combined window. Equation (2) — some links already stall:
    /// their stalls add up and can never be cancelled by other links'
    /// slack; the remaining links' busy time is checked against the
    /// window as in Eq. (1).
    pub fn combine_and_integrate(
        &mut self,
        arch: &Architecture,
        dtls: &[Dtl],
        union_opts: UnionOptions,
        oversubscription_bound: bool,
    ) -> f64 {
        self.combine(
            arch,
            dtls,
            union_opts,
            oversubscription_bound,
            Reuse::Nothing,
        )
    }

    /// The one Step-2/3 engine. `reuse` says what may be taken from the
    /// previous call; the cached grouping is taken only when its keys are
    /// still exactly the endpoint multiset of `dtls`, otherwise this is
    /// a full combine. Every policy runs the same per-group arithmetic
    /// over the same key order, so results and the retained
    /// [`port_groups`](Self::port_groups) /
    /// [`memory_stalls`](Self::memory_stalls) are bit-identical to a full
    /// combine whenever the policy's precondition holds.
    pub(crate) fn combine(
        &mut self,
        arch: &Architecture,
        dtls: &[Dtl],
        union_opts: UnionOptions,
        oversubscription_bound: bool,
        reuse: Reuse,
    ) -> f64 {
        let Self {
            keys,
            windows,
            union,
            groups,
            mem_stalls,
            grouped,
            reused_grouping,
        } = self;
        *reused_grouping = reuse != Reuse::Nothing && keys_describe(keys, dtls);
        if !*reused_grouping {
            keys.clear();
            for (i, d) in dtls.iter().enumerate() {
                for ep in &d.endpoints {
                    keys.push((ep.mem, ep.port, i));
                }
            }
            // Sorting on (mem, port, index) yields the groups in
            // ascending (mem, port) order, members in DTL order.
            keys.sort_unstable();
        }
        let reuse_unions = *reused_grouping && reuse == Reuse::Unions;
        if !reuse_unions {
            groups.clear();
        }
        mem_stalls.clear();
        let mut start = 0;
        let mut gi = 0;
        while start < keys.len() {
            let (mem, port, _) = keys[start];
            let mut end = start + 1;
            while end < keys.len() && keys[end].0 == mem && keys[end].1 == port {
                end += 1;
            }
            let group = &keys[start..end];
            let (muw_comb, muw_exact) = if reuse_unions {
                (groups[gi].muw_comb, groups[gi].muw_exact)
            } else {
                windows.clear();
                windows.extend(group.iter().map(|&(_, _, i)| dtls[i].window));
                let muw = union_measure_scratch(windows, union_opts, union);
                (muw.value(), muw.is_exact())
            };
            let core = group_scalars(
                dtls,
                group,
                mem,
                port,
                muw_comb,
                muw_exact,
                oversubscription_bound,
            );
            if reuse_unions {
                groups[gi] = core;
            } else {
                groups.push(core);
            }
            // "Combine SS @same served mem" (Fig. 2b): the max over the
            // memory's ports.
            match mem_stalls.last_mut() {
                Some(last) if last.mem == mem => last.ss = last.ss.max(core.ss_comb),
                _ => mem_stalls.push(MemStall {
                    mem,
                    ss: core.ss_comb,
                }),
            }
            gi += 1;
            start = end;
        }
        integrate(arch, mem_stalls, grouped)
    }
}

/// True when the cached sorted `keys` are exactly the endpoint multiset
/// of `dtls`: the same total count, every entry present on its link.
fn keys_describe(keys: &[(MemoryId, PortId, usize)], dtls: &[Dtl]) -> bool {
    let total: usize = dtls.iter().map(|d| d.endpoints.len()).sum();
    keys.len() == total
        && keys.iter().all(|&(mem, port, i)| {
            dtls.get(i)
                .is_some_and(|d| d.endpoints.iter().any(|e| e.mem == mem && e.port == port))
        })
}

/// The Eq. (1)/(2) scalar math of one port group, given its combined
/// window measure. The window union (`MUW_comb`) is the expensive,
/// bandwidth-*independent* half of Step 2; this function is the cheap,
/// bandwidth-*dependent* half — every reuse policy runs it, so their
/// floats agree bit for bit.
fn group_scalars(
    dtls: &[Dtl],
    group: &[(MemoryId, PortId, usize)],
    mem: MemoryId,
    port: PortId,
    muw_comb: f64,
    muw_exact: bool,
    oversubscription_bound: bool,
) -> PortGroupCore {
    // One pass over the members; every accumulator folds in member order,
    // so the floats match the per-quantity iterator sums they replace.
    let (mut sum_pos, mut all_busy, mut neg_busy) = (0.0f64, 0.0f64, 0.0f64);
    let (mut req_bw_comb, mut per_link, mut total_bits) = (0.0f64, 0.0f64, 0.0f64);
    for &(_, _, i) in group {
        let d = &dtls[i];
        let busy = d.busy();
        all_busy += busy;
        if d.ss_u <= 0.0 {
            neg_busy += busy;
        } else {
            sum_pos += d.ss_u;
        }
        req_bw_comb += d.req_bw;
        per_link = per_link.max(d.req_bw);
        total_bits += d.data_bits as f64 * d.z_stall as f64;
    }
    let ss_comb = ss_comb_from(
        sum_pos,
        all_busy,
        neg_busy,
        muw_comb,
        oversubscription_bound,
    );
    // Stall-free condition: every link individually non-positive
    // (bw >= its ReqBW_u) and the port not oversubscribed
    // (total bits through the window).
    let min_stall_free_bw = if muw_comb > 0.0 {
        per_link.max(total_bits / muw_comb)
    } else {
        per_link
    };
    PortGroupCore {
        mem,
        port,
        req_bw_comb,
        muw_comb,
        muw_exact,
        ss_comb,
        min_stall_free_bw,
    }
}

/// The Eq. (1)/(2) decision over a group's stall accumulators.
fn ss_comb_from(
    sum_pos: f64,
    all_busy: f64,
    neg_busy: f64,
    muw_comb: f64,
    oversubscription_bound: bool,
) -> f64 {
    if sum_pos == 0.0 {
        // Eq. (1): Σ (MUW_u + SS_u) − MUW_comb = Σ busy − MUW_comb.
        all_busy - muw_comb
    } else {
        // Eq. (2): positive stalls survive; the rest combine as (1).
        let eq2 = sum_pos + (neg_busy - muw_comb).max(0.0);
        if oversubscription_bound {
            // Refinement over the paper's literal Eq. (2): a link
            // that stalls by itself still *occupies* the shared
            // window, so the port can never beat the Eq. (1)
            // oversubscription bound. Take the tighter (larger).
            eq2.max(all_busy - muw_comb)
        } else {
            eq2
        }
    }
}

/// Step 3: integrates per-memory stalls into the overall temporal stall
/// (before the final clamp at zero), using `grouped` as the Groups
/// policy's bookkeeping buffer.
///
/// Concurrent memories hide each other's stalls (`max`); sequential ones
/// accumulate (`sum` of the positive parts — one memory's slack cannot
/// run another memory's transfers).
fn integrate(arch: &Architecture, mem_stalls: &[MemStall], grouped: &mut Vec<MemoryId>) -> f64 {
    match arch.stall_integration() {
        StallIntegration::Concurrent => {
            if mem_stalls.is_empty() {
                0.0
            } else {
                mem_stalls
                    .iter()
                    .map(|m| m.ss)
                    .fold(f64::NEG_INFINITY, f64::max)
            }
        }
        StallIntegration::Sequential => mem_stalls.iter().map(|m| m.ss.max(0.0)).sum(),
        StallIntegration::Groups(groups) => {
            let mut best: f64 = 0.0;
            grouped.clear();
            for g in groups {
                let sum: f64 = mem_stalls
                    .iter()
                    .filter(|m| g.contains(&m.mem))
                    .map(|m| m.ss.max(0.0))
                    .sum();
                best = best.max(sum);
                grouped.extend_from_slice(g);
            }
            for m in mem_stalls {
                if !grouped.contains(&m.mem) {
                    best = best.max(m.ss);
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtl::{DtlKind, Endpoint};
    use ulm_arch::{presets, PortUse};
    use ulm_periodic::PeriodicWindow;
    use ulm_workload::Operand;

    /// Runs Steps 2–3 over `dtls` and returns the retained scratch.
    fn combine(dtls: &[Dtl]) -> StallScratch {
        let mut scratch = StallScratch::default();
        scratch.combine_and_integrate(
            &presets::toy_chip().arch,
            dtls,
            UnionOptions::default(),
            true,
        );
        scratch
    }

    /// Hand-built DTL with the given stall characteristics on port
    /// (mem 0, port `port`).
    fn dtl(port: usize, period: u64, z: u64, x_req: f64, x_real: f64) -> Dtl {
        Dtl {
            operand: Operand::W,
            kind: DtlKind::RefillDown,
            level: 0,
            data_bits: 1,
            period,
            z,
            z_stall: z,
            req_bw: 1.0 / x_req,
            x_req,
            real_bw: 1.0 / x_real,
            x_real,
            ss_u: (x_real - x_req) * z as f64,
            window: if x_req >= period as f64 {
                PeriodicWindow::full(period as f64, z).unwrap()
            } else {
                PeriodicWindow::trailing(period as f64, x_req, z).unwrap()
            },
            endpoints: crate::dtl::Endpoints::one(Endpoint {
                mem: MemoryId(0),
                port,
                usage: PortUse::WriteIn,
            }),
        }
    }

    #[test]
    fn single_slack_dtl_passes_through() {
        let d = dtl(0, 4, 8, 4.0, 1.0); // busy 8 of 32 -> slack -24
        let scratch = combine(&[d]);
        let groups = scratch.port_groups();
        assert_eq!(groups.len(), 1);
        assert!((groups[0].ss_comb - (-24.0)).abs() < 1e-9);
    }

    #[test]
    fn eq1_two_slack_dtls_can_still_stall_the_port() {
        // Two full-window links on one port, each using 3/4 of the time:
        // individually slack, together 1.5x oversubscribed.
        let a = dtl(0, 4, 8, 4.0, 3.0);
        let b = dtl(0, 4, 8, 4.0, 3.0);
        let scratch = combine(&[a, b]);
        let groups = scratch.port_groups();
        // Σ busy = 48, MUW_comb = 32 -> stall 16.
        assert!((groups[0].ss_comb - 16.0).abs() < 1e-9);
    }

    #[test]
    fn eq2_positive_stall_not_cancelled_by_slack() {
        // One link stalls by itself (+8); the other has huge slack.
        let a = dtl(0, 4, 8, 1.0, 2.0); // trailing window, ss_u = +8
        let b = dtl(0, 4, 8, 4.0, 0.5); // busy 4 only
        let scratch = combine(&[a, b]);
        let groups = scratch.port_groups();
        // Eq (2): 8 + max(0, 4 − 32) = 8. Slack must NOT cancel it.
        assert!((groups[0].ss_comb - 8.0).abs() < 1e-9);
    }

    #[test]
    fn eq2_adds_residual_oversubscription() {
        let a = dtl(0, 4, 8, 1.0, 2.0); // ss_u = +8, busy 16
        let b = dtl(0, 4, 8, 4.0, 5.0); // busy 40 > window
        let scratch = combine(&[a, b]);
        let groups = scratch.port_groups();
        // Literal Eq. (2) gives 8 + max(0, 40 − 32) = 16, but the port
        // must move 56 busy cycles through a 32-cycle window: the
        // oversubscription bound (56 − 32 = 24) dominates.
        assert!((groups[0].ss_comb - 24.0).abs() < 1e-9);
    }

    #[test]
    fn separate_ports_do_not_interact() {
        let a = dtl(0, 4, 8, 4.0, 3.0);
        let b = dtl(1, 4, 8, 4.0, 3.0);
        let scratch = combine(&[a, b]);
        let groups = scratch.port_groups();
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.ss_comb < 0.0));
    }

    #[test]
    fn memory_takes_max_over_ports() {
        let a = dtl(0, 4, 8, 4.0, 3.0); // slack
        let b = dtl(1, 4, 8, 1.0, 2.0); // stall +8
        let scratch = combine(&[a, b]);
        let groups = scratch.port_groups();
        assert_eq!(groups.len(), 2);
        let mems = scratch.memory_stalls();
        assert_eq!(mems.len(), 1);
        assert!((mems[0].ss - 8.0).abs() < 1e-9);
    }

    #[test]
    fn req_bw_comb_is_summed() {
        let a = dtl(0, 4, 8, 2.0, 1.0);
        let b = dtl(0, 4, 8, 4.0, 1.0);
        let scratch = combine(&[a, b]);
        let groups = scratch.port_groups();
        assert!((groups[0].req_bw_comb - (0.5 + 0.25)).abs() < 1e-9);
    }

    #[test]
    fn reuse_falls_back_to_a_full_combine_when_the_grouping_moved() {
        let arch = presets::toy_chip().arch;
        let a = dtl(0, 4, 8, 4.0, 3.0);
        let b = dtl(1, 4, 8, 1.0, 2.0);
        let want = combine(&[a, b]);
        for reuse in [Reuse::Grouping, Reuse::Unions] {
            let mut scratch = combine(&[a]);
            let run = |s: &mut StallScratch| {
                s.combine(&arch, &[a, b], UnionOptions::default(), true, reuse)
            };
            // One link more than the cached grouping: full combine.
            let first = run(&mut scratch);
            assert!(!scratch.reused_grouping());
            assert_eq!(scratch.port_groups(), want.port_groups());
            assert_eq!(scratch.memory_stalls(), want.memory_stalls());
            // The same list again: the cached grouping is taken.
            let second = run(&mut scratch);
            assert!(scratch.reused_grouping());
            assert_eq!(first.to_bits(), second.to_bits());
            assert_eq!(scratch.port_groups(), want.port_groups());
            assert_eq!(scratch.memory_stalls(), want.memory_stalls());
        }
    }
}
