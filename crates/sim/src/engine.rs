//! The discrete-event execution engine: runs a schedule against the
//! physical ports and reports the observed cycle counts.
//!
//! # Runs
//!
//! The schedule builder emits each `(operand, level, kind)` stream of
//! transfers already in `(ready_cycle, id)` order, and the transfers of a
//! stream that compute blocks on in `(need_cycle, id)` order. The engine
//! therefore never sorts the whole schedule. It fills a `Plan` — per id
//! the duration, the two port slots (resolved once, at push time) and the
//! dependencies — and keeps two runs per stream: the *start* run of
//! `(ready_cycle, id)` and the *deadline* run of `(need_cycle, id)`. A run
//! that arrives out of order (a hand-built [`Schedule`] given to [`run`])
//! is sorted on entry. The order check is one comparison per push, so
//! for builder output the sort is that linear pass and nothing more.
//!
//! # Boundary walk
//!
//! The next boundary is the minimum of the run heads. At each boundary
//! the start runs are visited in `(kind rank, Reverse(level), operand)`
//! order — drains, then refills, then read-backs; higher levels first —
//! so the starts follow `(ready_cycle, kind rank, Reverse(level),
//! operand, id)`. Then the deadlines due at that cycle are collected from
//! every deadline run and enforced in id order, which fixes the float
//! accumulation of stall time.
//!
//! # Arena
//!
//! The plan's vectors, the completion times and the port table live in a
//! per-thread arena: cleared between simulations, their capacity kept, so
//! repeated simulations on one thread neither allocate per transfer nor
//! fault fresh pages in. What a thread retains is sized by the largest
//! schedule it has run (about 64 bytes per transfer), which the transfer
//! cap bounds. The arena is per thread because `Simulator` is a `Copy`
//! configuration that callers build afresh for every call.

use crate::schedule::{self, Schedule, ScheduleTooLarge, Sink, Transfer, TransferKind};
use crate::trace::{Trace, TraceEvent};
use std::cell::RefCell;
use std::cmp::Reverse;
use ulm_arch::{MemoryId, PortId};
use ulm_mapping::MappedLayer;
use ulm_model::LoweredLayer;
use ulm_workload::ALL_OPERANDS;

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
    with_plan(|plan| {
        plan.fill(schedule);
        execute(plan, schedule.total_cycles, None)
    })
}

/// [`run`], additionally recording a full [`Trace`] of every transfer and
/// compute-stall interval for timeline rendering.
pub fn run_traced(schedule: &Schedule) -> (SimReport, Trace) {
    with_plan(|plan| {
        plan.fill(schedule);
        let mut trace = Trace::default();
        let report = execute(
            plan,
            schedule.total_cycles,
            Some((&mut trace, &schedule.transfers)),
        );
        (report, trace)
    })
}

/// Builds the lowered layer's schedule straight into the arena's plan and
/// executes it, never materializing the transfers.
pub(crate) fn simulate_lowered(
    view: &MappedLayer<'_>,
    lowered: &LoweredLayer,
    cap: u64,
) -> Result<SimReport, ScheduleTooLarge> {
    let est = schedule::estimate(lowered, cap)?;
    Ok(with_plan(|plan| {
        plan.reserve(usize::try_from(est).unwrap_or(usize::MAX));
        schedule::emit(view, lowered, plan);
        execute(plan, lowered.cc_spatial(), None)
    }))
}

thread_local! {
    static ARENA: RefCell<Plan> = RefCell::new(Plan::default());
}

/// Runs `f` on this thread's arena plan, cleared first.
fn with_plan<R>(f: impl FnOnce(&mut Plan) -> R) -> R {
    ARENA.with(|arena| {
        let mut plan = arena.borrow_mut();
        plan.clear();
        f(&mut plan)
    })
}

/// The later of two times — `f64::max` for the engine's times, which are
/// never NaN or negative zero, with a predictable branch in place of the
/// NaN handling.
fn later(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// Marks an absent port slot or dependency.
const NONE: u32 = u32::MAX;
/// Transfer kinds, the stride of the stream index.
const KINDS: usize = 3;

/// The start-order rank of a kind: drains release registers first, then
/// refills, then read-backs (which depend on drains).
fn kind_rank(kind: TransferKind) -> usize {
    match kind {
        TransferKind::Drain => 0,
        TransferKind::Refill => 1,
        TransferKind::Readback => 2,
    }
}

/// The dense index of a `(level, operand, kind)` stream.
fn stream_index(t: &Transfer) -> usize {
    (t.level * ALL_OPERANDS.len() + t.operand.index()) * KINDS + kind_rank(t.kind)
}

/// Where a stream's start run goes in the boundary walk: kind rank, then
/// higher levels first (so lower-level dependencies are satisfied), then
/// operand.
fn run_order(stream: usize) -> (usize, Reverse<usize>, usize) {
    let (rest, rank) = (stream / KINDS, stream % KINDS);
    let (level, operand) = (rest / ALL_OPERANDS.len(), rest % ALL_OPERANDS.len());
    (rank, Reverse(level), operand)
}

/// The two runs of one `(operand, level, kind)` stream.
#[derive(Default)]
struct Stream {
    /// `(ready_cycle, id)` of every transfer.
    starts: Run,
    /// `(need_cycle, id)` of every transfer compute blocks on.
    needs: Run,
    /// The last link pushed (ports, bits, bandwidth) with its resolved
    /// slots and duration: a stream's transfers share one link, so
    /// nearly every push resolves from here.
    link: Option<(Link, [u32; 2], f64)>,
}

/// What a transfer's port slots and duration depend on.
type Link = ([(MemoryId, PortId); 2], u64, u64);

/// `(cycle, id)` entries. Ids arrive ascending (they are push order), so
/// the run is out of order only if a cycle ever decreased.
#[derive(Default)]
struct Run {
    entries: Vec<(u64, u32)>,
    /// The last cycle pushed.
    last: u64,
    unsorted: bool,
}

impl Run {
    fn push(&mut self, cycle: u64, id: u32) {
        self.unsorted |= cycle < self.last;
        self.last = cycle;
        self.entries.push((cycle, id));
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.last = 0;
        self.unsorted = false;
    }

    /// The entries in `(cycle, id)` order: the order check ran on entry,
    /// so a presorted run costs nothing more here.
    fn sorted(&mut self) -> &[(u64, u32)] {
        if self.unsorted {
            self.entries.sort_unstable();
            self.unsorted = false;
        }
        &self.entries
    }
}

/// The unvisited rest of one run, with its head cycle (`u64::MAX` once
/// spent).
struct Cursor<'a> {
    stream: usize,
    rest: &'a [(u64, u32)],
    head: u64,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `run`, if it has any entry.
    fn new(stream: usize, run: &'a [(u64, u32)]) -> Option<Self> {
        run.first().map(|&(head, _)| Self {
            stream,
            rest: run,
            head,
        })
    }

    /// Pops the head entry's id and moves on.
    fn advance(&mut self) -> u32 {
        let id = self.rest[0].1;
        self.rest = &self.rest[1..];
        self.head = self.rest.first().map_or(u64::MAX, |&(c, _)| c);
        id
    }
}

/// Dense `(memory, port)` → slot table with each slot's free-at and busy
/// time. Slots are numbered in order of first sight.
#[derive(Default)]
struct PortTable {
    /// `slot_of[mem][port]`, `NONE` for a port not seen yet.
    slot_of: Vec<Vec<u32>>,
    free: Vec<f64>,
    busy: Vec<f64>,
    /// Whether any started transfer occupied the slot.
    used: Vec<bool>,
}

impl PortTable {
    fn clear(&mut self) {
        for row in &mut self.slot_of {
            row.clear();
        }
        self.free.clear();
        self.busy.clear();
        self.used.clear();
    }

    /// The slot of `(mem, port)`, allocating one on first sight.
    fn slot(&mut self, (mem, port): (MemoryId, PortId)) -> u32 {
        if self.slot_of.len() <= mem.0 {
            self.slot_of.resize_with(mem.0 + 1, Vec::new);
        }
        let row = &mut self.slot_of[mem.0];
        if row.len() <= port {
            row.resize(port + 1, NONE);
        }
        if row[port] == NONE {
            row[port] = u32::try_from(self.free.len()).expect("few ports");
            self.free.push(0.0);
            self.busy.push(0.0);
            self.used.push(false);
        }
        row[port]
    }

    /// Busy time of every used port, memory-major.
    fn report(&self) -> Vec<PortBusy> {
        let mut out = Vec::with_capacity(self.free.len());
        for (mem, row) in self.slot_of.iter().enumerate() {
            for (port, &s) in row.iter().enumerate() {
                if s != NONE && self.used[s as usize] {
                    out.push(PortBusy {
                        mem: MemoryId(mem),
                        port,
                        busy_cycles: self.busy[s as usize],
                    });
                }
            }
        }
        out
    }
}

/// What starting one transfer needs.
#[derive(Clone, Copy)]
struct Node {
    /// Cycles the transfer occupies its ports.
    dur: f64,
    /// Source and destination port slots.
    slots: [u32; 2],
    /// Dependencies, `NONE`-padded.
    deps: [u32; 2],
}

/// What the engine needs of a schedule, by id, plus the execution state.
/// Every vector keeps its capacity across simulations (see the module
/// docs on the arena).
#[derive(Default)]
pub(crate) struct Plan {
    /// Per id: what starting the transfer needs.
    nodes: Vec<Node>,
    /// Indexed by [`stream_index`].
    streams: Vec<Stream>,
    ports: PortTable,
    /// Completion time per id (NaN = not started yet).
    done: Vec<f64>,
    /// Deadlines due at the current boundary.
    due: Vec<u32>,
}

impl Sink for Plan {
    fn push(&mut self, t: Transfer) -> usize {
        let id = self.nodes.len();
        let id32 = u32::try_from(id)
            .ok()
            .filter(|&i| i != NONE)
            .expect("schedule too long for 32-bit ids");
        let s = stream_index(&t);
        if self.streams.len() <= s {
            self.streams.resize_with(s + 1, Stream::default);
        }
        let stream = &mut self.streams[s];
        stream.starts.push(t.ready_cycle, id32);
        if t.need_cycle != u64::MAX {
            stream.needs.push(t.need_cycle, id32);
        }
        let link = (t.ports, t.bits, t.link_bw);
        let (slots, dur) = match stream.link {
            Some((l, slots, dur)) if l == link => (slots, dur),
            _ => {
                let slots = t.ports.map(|p| self.ports.slot(p));
                stream.link = Some((link, slots, t.duration()));
                (slots, t.duration())
            }
        };
        let mut deps = [NONE; 2];
        for (d, &dep) in deps.iter_mut().zip(t.deps.iter()) {
            *d = u32::try_from(dep).expect("dependencies precede");
        }
        self.nodes.push(Node { dur, slots, deps });
        id
    }
}

impl Plan {
    fn clear(&mut self) {
        self.nodes.clear();
        for s in &mut self.streams {
            s.starts.clear();
            s.needs.clear();
            s.link = None;
        }
        self.ports.clear();
    }

    /// Room for `n` more transfers in the per-id table.
    fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
    }

    /// Pushes every transfer of a materialized schedule (ids = indices).
    fn fill(&mut self, schedule: &Schedule) {
        self.reserve(schedule.transfers.len());
        for t in &schedule.transfers {
            self.push(t.clone());
        }
    }
}

/// The engine: one body behind [`run`], [`run_traced`] and the
/// simulator's lowered path. `trace` also carries the transfers the
/// trace events describe.
fn execute(plan: &mut Plan, total: u64, mut trace: Option<(&mut Trace, &[Transfer])>) -> SimReport {
    let Plan {
        nodes,
        streams,
        ports,
        done,
        due,
    } = plan;
    let n = nodes.len();
    done.clear();
    done.resize(n, f64::NAN);

    // Open a cursor on every non-empty run, sorted.
    let mut starts: Vec<Cursor> = Vec::with_capacity(streams.len());
    let mut needs: Vec<Cursor> = Vec::with_capacity(streams.len());
    for (i, s) in streams.iter_mut().enumerate() {
        starts.extend(Cursor::new(i, s.starts.sorted()));
        needs.extend(Cursor::new(i, s.needs.sorted()));
    }
    starts.sort_unstable_by_key(|c| run_order(c.stream));

    let mut wall: f64 = 0.0;
    let mut prev_cycle: u64 = 0;
    let mut stall: f64 = 0.0;
    let mut preload: f64 = 0.0;
    let mut last_done: f64 = 0.0;
    // The first boundary: the earliest head, never past the end of
    // compute (entries beyond it never start, nor block).
    let mut cycle = starts
        .iter()
        .chain(needs.iter())
        .map(|c| c.head)
        .min()
        .unwrap_or(u64::MAX)
        .min(total);

    loop {
        // Compute advances freely between boundaries.
        wall += (cycle - prev_cycle) as f64;
        prev_cycle = cycle;
        let mut next = u64::MAX;
        // Starts first: transfers become eligible the moment compute
        // arrives (a zero-window transfer — ready == need — starts here
        // and immediately stalls compute below).
        for c in starts.iter_mut() {
            while c.head == cycle {
                let id = c.advance() as usize;
                let node = nodes[id];
                let mut start = wall;
                for dep in node.deps {
                    if dep != NONE {
                        let d = done[dep as usize];
                        assert!(!d.is_nan(), "dependencies are scheduled first");
                        start = later(start, d);
                    }
                }
                let pair = node.slots.map(|s| s as usize);
                for s in pair {
                    start = later(start, ports.free[s]);
                }
                let finish = start + node.dur;
                for s in pair {
                    ports.free[s] = finish;
                    ports.busy[s] += node.dur;
                    ports.used[s] = true;
                }
                done[id] = finish;
                last_done = later(last_done, finish);
                if let Some((tr, transfers)) = trace.as_mut() {
                    let t = &transfers[id];
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
            next = next.min(c.head);
        }
        // Deadlines: compute may not pass this boundary until met; across
        // runs they are enforced in id order.
        due.clear();
        for c in needs.iter_mut() {
            while c.head == cycle {
                due.push(c.advance());
            }
            next = next.min(c.head);
        }
        due.sort_unstable();
        for &id in due.iter() {
            let d = done[id as usize];
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
                if let Some((tr, _)) = trace.as_mut() {
                    tr.stalls.push((wall, d));
                }
                wall = d;
            }
        }
        if cycle == total {
            break;
        }
        cycle = next.min(total);
    }

    // Drain tail: the layer finishes when the last transfer lands.
    let compute_end = wall;
    let end = compute_end.max(last_done);
    let total_cycles = end.ceil() as u64;
    let tail_cycles = (end - compute_end).round() as u64;

    if let Some((tr, _)) = trace {
        tr.total = end;
    }
    SimReport {
        total_cycles,
        compute_cycles: total,
        stall_cycles: stall.round() as u64,
        preload_cycles: preload.round() as u64,
        tail_cycles,
        transfers: n as u64,
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

    /// A level-0 refill of `operand` on its own port pair, `period` = id.
    fn refill(
        id: usize,
        operand: Operand,
        ready_cycle: u64,
        need_cycle: u64,
        bits: u64,
        ports: [(MemoryId, PortId); 2],
    ) -> Transfer {
        Transfer {
            id,
            operand,
            kind: TransferKind::Refill,
            level: 0,
            period: id as u64,
            ready_cycle,
            need_cycle,
            bits,
            link_bw: 1,
            ports,
            deps: Deps::default(),
        }
    }

    #[test]
    fn out_of_order_run_starts_in_ready_order() {
        // One stream listed out of ready order, serialized on one port:
        // the run is sorted on entry, so starts follow (ready, id).
        let shared = [(MemoryId(0), 0), (MemoryId(1), 0)];
        let transfers = [5, 1, 3, 1]
            .into_iter()
            .enumerate()
            .map(|(id, ready)| refill(id, Operand::W, ready, u64::MAX, 2, shared))
            .collect();
        let schedule = Schedule {
            transfers,
            total_cycles: 10,
        };
        let (report, trace) = run_traced(&schedule);
        let order: Vec<(u64, f64, f64)> = trace
            .events
            .iter()
            .map(|e| (e.period, e.start, e.end))
            .collect();
        assert_eq!(
            order,
            [(1, 1.0, 3.0), (3, 3.0, 5.0), (2, 5.0, 7.0), (0, 7.0, 9.0)]
        );
        assert_eq!(report.total_cycles, 10);
        assert_eq!(report.stall_cycles, 0);
        assert_eq!(report, run(&schedule));
    }

    #[test]
    fn deadlines_at_one_boundary_are_enforced_in_id_order() {
        // Two deadlines at cycle 5 from different runs. The W run comes
        // first in stream order but holds the higher id; enforcing in id
        // order stalls 5 -> 9 (id 0) and then 9 -> 12 (id 1), where
        // stream order would record one stall 5 -> 12.
        let transfers = vec![
            refill(0, Operand::I, 5, 5, 4, [(MemoryId(0), 0), (MemoryId(1), 0)]),
            refill(1, Operand::W, 5, 5, 7, [(MemoryId(2), 0), (MemoryId(3), 0)]),
        ];
        let schedule = Schedule {
            transfers,
            total_cycles: 10,
        };
        let (report, trace) = run_traced(&schedule);
        assert_eq!(trace.stalls, [(5.0, 9.0), (9.0, 12.0)]);
        // Same-cycle starts: W before I.
        let periods: Vec<u64> = trace.events.iter().map(|e| e.period).collect();
        assert_eq!(periods, [1, 0]);
        assert_eq!(report.stall_cycles, 7);
        assert_eq!(report.preload_cycles, 0);
        assert_eq!(report.total_cycles, 17);
        assert_eq!(report.tail_cycles, 0);
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
