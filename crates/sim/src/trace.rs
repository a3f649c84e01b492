//! Execution traces: per-port transfer timelines and compute-stall
//! intervals, with an ASCII renderer in the spirit of the paper's Fig. 4
//! "memory-compute timeline" illustration.

use crate::schedule::TransferKind;
use std::fmt::Write as _;
use ulm_arch::{MemoryId, PortId};
use ulm_workload::Operand;

/// One transfer as executed (wall-clock timed).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The operand moved.
    pub operand: Operand,
    /// The transfer kind.
    pub kind: TransferKind,
    /// The level served.
    pub level: usize,
    /// The loop-nest period index.
    pub period: u64,
    /// Wall-clock start.
    pub start: f64,
    /// Wall-clock end.
    pub end: f64,
    /// Ports occupied: the source's read port, then the destination's
    /// write port.
    pub ports: [(MemoryId, PortId); 2],
}

/// A recorded execution: transfers plus compute-stall intervals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Executed transfers in start order: by start boundary, and within
    /// one boundary in the engine's documented tie-break (see
    /// [`crate::engine`]).
    pub events: Vec<TraceEvent>,
    /// Wall-clock intervals during which computation was stalled.
    pub stalls: Vec<(f64, f64)>,
    /// Total wall-clock cycles.
    pub total: f64,
}

impl Trace {
    /// Renders an ASCII timeline: one lane per (memory, port) plus a
    /// compute lane, `width` characters across the whole execution.
    ///
    /// Lane glyphs: `#` transfer in flight, `.` idle; the compute lane
    /// shows `=` for active computation and `!` for stall.
    pub fn render_ascii(
        &self,
        width: usize,
        port_name: impl Fn(MemoryId, PortId) -> String,
    ) -> String {
        let width = width.max(10);
        let scale = self.total / width as f64;
        let mut lanes: Vec<((MemoryId, PortId), Vec<char>)> = Vec::new();
        let lane_of =
            |p: (MemoryId, PortId), lanes: &mut Vec<((MemoryId, PortId), Vec<char>)>| -> usize {
                if let Some(i) = lanes.iter().position(|(q, _)| *q == p) {
                    i
                } else {
                    lanes.push((p, vec!['.'; width]));
                    lanes.len() - 1
                }
            };
        for e in &self.events {
            for p in e.ports {
                let li = lane_of(p, &mut lanes);
                let lo = ((e.start / scale) as usize).min(width - 1);
                let hi = ((e.end / scale).ceil() as usize).clamp(lo + 1, width);
                for c in &mut lanes[li].1[lo..hi] {
                    *c = '#';
                }
            }
        }
        let mut compute = vec!['='; width];
        for &(lo, hi) in &self.stalls {
            let a = ((lo / scale) as usize).min(width - 1);
            let b = ((hi / scale).ceil() as usize).clamp(a + 1, width);
            for c in &mut compute[a..b] {
                *c = '!';
            }
        }
        lanes.sort_by_key(|((m, p), _)| (*m, *p));
        let mut out = String::new();
        let name_width = lanes
            .iter()
            .map(|((m, p), _)| port_name(*m, *p).len())
            .chain(["compute".len()])
            .max()
            .unwrap_or(7);
        for ((m, p), lane) in &lanes {
            let _ = writeln!(
                out,
                "{:<name_width$} |{}|",
                port_name(*m, *p),
                lane.iter().collect::<String>()
            );
        }
        let _ = writeln!(
            out,
            "{:<name_width$} |{}|",
            "compute",
            compute.iter().collect::<String>()
        );
        out
    }

    /// Fraction of wall-clock time computation was stalled.
    pub fn stall_fraction(&self) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        self.stalls.iter().map(|(a, b)| b - a).sum::<f64>() / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::MemoryId;

    /// A refill from the shared memory 2 (read port 0) into `mem` (write
    /// port 1).
    fn ev(start: f64, end: f64, mem: usize) -> TraceEvent {
        TraceEvent {
            operand: Operand::W,
            kind: TransferKind::Refill,
            level: 0,
            period: 0,
            start,
            end,
            ports: [(MemoryId(2), 0), (MemoryId(mem), 1)],
        }
    }

    #[test]
    fn render_marks_busy_and_stall_regions() {
        let trace = Trace {
            events: vec![ev(0.0, 5.0, 0), ev(5.0, 10.0, 1)],
            stalls: vec![(2.0, 4.0)],
            total: 10.0,
        };
        let s = trace.render_ascii(20, |m, p| format!("m{}p{p}", m.0));
        // First lane busy in the first half, second in the second half,
        // the shared source port throughout.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("m0p1"));
        assert!(lines[0][..lines[0].len() / 2].contains('#'));
        assert!(lines[1].ends_with('|'));
        assert!(lines[2].contains("m2p0"));
        assert!(!lines[2].contains('.'), "{s}");
        assert!(lines[3].contains('!'), "{s}");
        assert!(lines[3].contains('='), "{s}");
    }

    #[test]
    fn stall_fraction_is_measured() {
        let trace = Trace {
            events: vec![],
            stalls: vec![(0.0, 2.0), (8.0, 10.0)],
            total: 10.0,
        };
        assert!((trace.stall_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(Trace::default().stall_fraction(), 0.0);
    }
}
