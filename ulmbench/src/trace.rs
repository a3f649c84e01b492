//! Spans recorded from the benchmark's own code around its calls into
//! each crate. Spans stay in memory and are summarized after the run.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's span log. Disabled tracers record nothing and cost one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (a `crate.function` label).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Nanoseconds covered by at least one span.
    pub fn covered_ns(&self) -> u64 {
        let mut iv: Vec<(u64, u64)> = self.spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        iv.sort_unstable();
        let mut total = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            match &mut cur {
                Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
                _ => {
                    if let Some((cs, ce)) = cur {
                        total += ce - cs;
                    }
                    cur = Some((s, e));
                }
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// Total span time per name, in first-seen order.
    pub fn totals_ns(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.spans {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += s.end_ns - s.start_ns,
                None => out.push((s.name, s.end_ns - s.start_ns)),
            }
        }
        out
    }

    /// Share of `wall_ns` covered by no span.
    pub fn unattributed_frac(&self, wall_ns: u64) -> f64 {
        1.0 - self.covered_ns() as f64 / wall_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_spans_count_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 10,
            },
            Span {
                name: "b",
                start_ns: 5,
                end_ns: 15,
            },
            Span {
                name: "a",
                start_ns: 20,
                end_ns: 30,
            },
        ];
        assert_eq!(t.covered_ns(), 25);
        assert_eq!(t.totals_ns(), vec![("a", 20), ("b", 10)]);
        assert!((t.unattributed_frac(50) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert_eq!(t.covered_ns(), 0);
    }
}
