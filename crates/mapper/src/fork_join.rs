//! The one order-preserving fork-join behind every parallel map in the
//! workspace: a mapping search's ordering ranges and sampled candidates,
//! a DSE run's designs, and a network's layers.
//!
//! Work is split into at most `threads` contiguous chunks of
//! `len.div_ceil(threads)` items. Each chunk runs on its own scoped
//! thread, or on the calling thread when there is only one, and the
//! per-chunk results come back in item order. Callers fold them in that
//! order, so a parallel run reproduces the serial fold exactly.
//!
//! This is also the one place the thread count is bounded: whatever a
//! caller (or a client request) asks for, one call starts at most
//! [`MAX_THREADS`] threads.

use std::ops::Range;

/// The most threads one fork-join call starts, whatever it is asked for.
///
/// A fixed constant rather than a property of the machine: below it the
/// split, and so every result and search statistic, is the same on every
/// machine.
pub const MAX_THREADS: usize = 256;

/// The thread count one call over `len` items uses when asked for
/// `requested`: `requested` clamped to `1..=min(len, MAX_THREADS)` (1 for
/// an empty input).
fn chunk_count(requested: usize, len: u128) -> usize {
    let cap = len.min(MAX_THREADS as u128) as usize;
    requested.clamp(1, cap.max(1))
}

/// Splits `0..len` into contiguous ranges of `len.div_ceil(threads)`
/// indices (`threads` clamped by [`chunk_count`]), runs `f` on each and
/// returns the results in range order. One range runs on the calling
/// thread; several run on scoped threads. An empty input yields no
/// ranges. A panic in `f` propagates to the caller.
pub(crate) fn map_ranges<R, F>(len: u128, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<u128>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let per = len.div_ceil(chunk_count(threads, len) as u128);
    if per == len {
        return vec![f(0..len)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..len.div_ceil(per))
            .map(|i| {
                let range = per * i..(per * (i + 1)).min(len);
                s.spawn(move || f(range))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// [`map_ranges`] over a slice: `f` receives each contiguous chunk.
pub(crate) fn map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    map_ranges(items.len() as u128, threads, |r| {
        f(&items[r.start as usize..r.end as usize])
    })
}

/// The fork-join over a slice with one result per item, in item order:
/// `f` runs on each item of each contiguous chunk.
pub fn map_each<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_chunks(items, threads, |chunk| {
        chunk.iter().map(&f).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_come_back_in_order_at_every_chunk_count() {
        for len in 0..12usize {
            let items: Vec<usize> = (0..len).collect();
            for threads in 1..=len + 2 {
                let chunks = map_chunks(&items, threads, |c| c.to_vec());
                assert!(
                    chunks.len() <= threads.max(1),
                    "len {len}, threads {threads}"
                );
                // Every chunk but the last holds exactly div_ceil items.
                let per = len.div_ceil(threads.min(len).max(1));
                for c in chunks.iter().rev().skip(1) {
                    assert_eq!(c.len(), per, "len {len}, threads {threads}");
                }
                assert_eq!(chunks.concat(), items, "len {len}, threads {threads}");
                assert_eq!(map_each(&items, threads, |&x| x * 2), {
                    items.iter().map(|&x| x * 2).collect::<Vec<_>>()
                });
            }
        }
    }

    #[test]
    fn empty_input_runs_nothing() {
        let items: [u8; 0] = [];
        assert!(map_chunks(&items, 4, |_| -> u8 { panic!("no chunk to run") }).is_empty());
        assert!(map_ranges(0, 4, |_| -> u8 { panic!("no range to run") }).is_empty());
    }

    #[test]
    fn a_single_chunk_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        for (len, threads) in [(1usize, 1usize), (1, 8), (5, 1), (5, 0)] {
            let items = vec![0u8; len];
            assert_eq!(
                map_chunks(&items, threads, |_| std::thread::current().id()),
                vec![me]
            );
        }
        // Several chunks run off the calling thread.
        let ids = map_chunks(&[0u8; 4], 2, |_| std::thread::current().id());
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|&id| id != me));
    }

    #[test]
    fn thread_count_is_clamped_to_len_and_max_threads() {
        assert_eq!(chunk_count(0, 10), 1);
        assert_eq!(chunk_count(1, 0), 1);
        assert_eq!(chunk_count(8, 0), 1);
        assert_eq!(chunk_count(8, 3), 3);
        assert_eq!(chunk_count(8, 100), 8);
        assert_eq!(chunk_count(MAX_THREADS, 1 << 20), MAX_THREADS);
        // One client-sized request for a million threads over the default
        // 50,000-ordering exhaustive space gets MAX_THREADS.
        assert_eq!(chunk_count(1_000_000, 50_000), MAX_THREADS);
        assert_eq!(chunk_count(usize::MAX, u128::MAX), MAX_THREADS);
    }
}
