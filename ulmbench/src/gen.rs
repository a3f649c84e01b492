//! Seeded inputs: the Fig. 8 layer set and the Fig. 5 layer order.
//! Everything here is a pure function of the seed.

use crate::stats::Rng;

/// Layer-dimension exponents of the Fig. 7 range, 2^3 = 8 .. 2^9 = 512.
const EXP_LO: u32 = 3;
const EXP_HI: u32 = 9;

/// Every power-of-two (B, K, C) shape of the Fig. 7 range, 7^3 = 343 of
/// them, in seeded order.
pub fn fig7_grid(seed: u64) -> Vec<(u64, u64, u64)> {
    let pow: Vec<u64> = (EXP_LO..=EXP_HI).map(|e| 1u64 << e).collect();
    let mut grid = Vec::new();
    for &b in &pow {
        for &k in &pow {
            for &c in &pow {
                grid.push((b, k, c));
            }
        }
    }
    Rng::stream(seed, "fig7-grid").shuffle(&mut grid);
    grid
}

/// The seeded order in which every `fig5-validate` round visits its `n`
/// layers.
pub fn layer_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::stream(seed, "fig5-order").shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_layers_other_seed_other_layers() {
        assert_eq!(fig7_grid(3), fig7_grid(3));
        assert_ne!(fig7_grid(3), fig7_grid(4));
        assert_eq!(fig7_grid(3).len(), 343);
        assert_eq!(layer_order(3, 14), layer_order(3, 14));
        assert_ne!(layer_order(3, 14), layer_order(4, 14));
    }
}
