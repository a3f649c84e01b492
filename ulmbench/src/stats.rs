//! Summary statistics for timing samples, the seeded generator, and the
//! digest every correctness gate folds outputs into.

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend
/// on `--seed` alone and never on a library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for one named sub-stream of `seed`.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut d = Digest::new();
        d.str(name);
        Self::new(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ d.value())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over a stream of typed fields; the committed digests are
/// values of this function.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Exact: hashes the bit pattern, so any change in the last place shows.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The `q`-quantile (0..=1) of sorted `xs`, linearly interpolated.
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The `q`-quantile (0..=1) of `xs` in any order.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The quantile at which repeated set-up timings are read: the fast end,
/// where the program runs with the least interference from the host's
/// other tenants, without resting on one sample.
pub const STEADY_Q: f64 = 0.1;

/// The percentiles a tail may be reported at, highest first. The ladder
/// stops at p99: further out, a shared two-core machine's scheduler
/// noise swamps the program's own tail.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile on the ladder with at least ten samples beyond
/// it, or `None` when even the median has fewer than ten above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| (n as f64) * (100.0 - p) >= 1000.0)
}

/// A timing summary: median, the tail percentile with at least ten
/// samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let median = quantile_sorted(&v, 0.5);
        // Too few samples for any tail: report the maximum, labelled p100.
        let (tail_pct, tail) = match tail_percentile(v.len()) {
            Some(p) => (p, quantile_sorted(&v, p / 100.0)),
            None => (100.0, *v.last().expect("non-empty")),
        };
        Self {
            n: v.len(),
            median,
            tail_pct,
            tail,
        }
    }

    pub fn label(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit}, n={}",
            self.median, self.tail_pct, self.tail, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 0.0), 0.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile(&[4.0, 0.0, 2.0, 1.0, 3.0], 0.25), 1.0);
        assert_eq!(quantile(&[0.0, 10.0], STEADY_Q), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.n, s.tail_pct), (1000, 99.0));
        assert!((s.median - 500.5).abs() < 1e-9);
        assert!((s.tail - 990.01).abs() < 1e-9);
        let few = Summary::of(&[2.0, 1.0]);
        assert_eq!((few.tail_pct, few.tail), (100.0, 2.0));
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(5);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(5);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(6);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(
            Rng::stream(5, "x").next_u64(),
            Rng::stream(5, "y").next_u64()
        );
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::new();
        a.f64(1.0);
        let mut b = Digest::new();
        b.f64(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a.value(), b.value());
    }
}
