//! Deterministic parallel execution over entry index ranges.
//!
//! Both solver steps decompose over entries (§2.7: the weight update is a
//! per-source sum of per-entry deviations, the truth update is independent
//! per entry), so the hot kernels in [`solver`](crate::solver) shard the
//! entry range into chunks and run the chunks on a small in-tree pool.
//!
//! ## Determinism contract
//!
//! The pool guarantees **bit-identical output for every thread count,
//! including 1**:
//!
//! * Chunk boundaries are a pure function of the item count `n`
//!   ([`Pool::chunk_ranges`]) — never of the thread count — so the
//!   floating-point association order inside each chunk is fixed.
//! * Every chunk writes into its own pre-allocated slot; nothing is
//!   accumulated into shared state from worker threads.
//! * Partial results are merged **by chunk index, never completion order**
//!   ([`Pool::par_map_reduce`] folds in chunk order; the slot layout of
//!   [`Pool::par_chunks`] / [`Pool::run_jobs`] lets the solver merge with
//!   a fixed pairwise tree over the chunk index — see
//!   [`kernels::pairwise_accumulate`](crate::kernels::pairwise_accumulate)),
//!   so the cross-chunk association order is fixed too.
//! * Chunks are assigned to workers round-robin up front; there is no
//!   queue, no lock, no clock and no RNG anywhere in the scheduling.
//!
//! The sequential path (`threads == 1`, or fewer chunks than threads) runs
//! the *same* chunked computation in chunk order on the calling thread, so
//! `threads = 1` is exactly the parallel result, not a separate code path
//! with a different summation order.
//!
//! ## Why scoped workers
//!
//! The workspace forbids `unsafe` code, and safe Rust cannot lend
//! non-`'static` borrows (the observation table, the scratch buffers) to
//! long-lived worker threads. Workers are therefore spawned with
//! [`std::thread::scope`] per parallel region — the same slot-limiting
//! pattern as the MapReduce engine — while the [`Pool`] itself is the
//! persistent object: built once per run, it pins the thread count and is
//! reused by every region of every iteration. Spawn cost is bounded by the
//! chunk floor: inputs smaller than one chunk never spawn at all.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use std::ops::Range;

/// Minimum number of items per chunk. Below this, per-chunk bookkeeping
/// (and potential thread spawns) would outweigh the work; small inputs
/// collapse to a single chunk and run on the calling thread.
const MIN_CHUNK: usize = 256;

/// Upper bound on the number of chunks, which bounds the size of the
/// per-chunk partial buffers held by a solver scratch.
const MAX_CHUNKS: usize = 64;

/// A deterministic entry-sharding thread pool. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Pool {
    /// Build a pool with a fixed worker count. `0` selects the machine's
    /// available parallelism (falling back to 1 if it cannot be queried);
    /// `1` is the exact sequential path.
    ///
    /// The thread count affects wall-clock time only — results are
    /// bit-identical for every value.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// The exact sequential pool (`threads = 1`).
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Deterministic chunk boundaries over `0..n`: a pure function of `n`
    /// (never of the thread count), so the reduction order — and therefore
    /// every floating-point sum — is fixed per input size.
    pub fn chunk_ranges(n: usize) -> Vec<Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let size = MIN_CHUNK.max(n.div_ceil(MAX_CHUNKS));
        let mut out = Vec::with_capacity(n.div_ceil(size));
        let mut start = 0usize;
        while start < n {
            let end = (start + size).min(n);
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Number of chunks [`chunk_ranges`](Self::chunk_ranges) produces for
    /// `n` items (used to size per-chunk slot buffers).
    pub fn num_chunks(n: usize) -> usize {
        if n == 0 {
            0
        } else {
            let size = MIN_CHUNK.max(n.div_ceil(MAX_CHUNKS));
            n.div_ceil(size)
        }
    }

    /// Run `work` once per job, in parallel. Job `i` is statically assigned
    /// to worker `i % t` (round-robin — no queue, no completion-order
    /// effects); each job mutates only its own slot, so the caller's
    /// slot layout fixes the merge order regardless of scheduling.
    pub fn run_jobs<J, F>(&self, jobs: &mut [J], work: F)
    where
        J: Send,
        F: Fn(&mut J) + Sync,
    {
        let t = self.threads.min(jobs.len());
        if t <= 1 {
            for job in jobs.iter_mut() {
                work(job);
            }
            return;
        }
        // Round-robin static partition: worker w takes jobs w, w+t, w+2t, …
        let mut parts: Vec<Vec<&mut J>> = (0..t).map(|_| Vec::new()).collect();
        for (i, job) in jobs.iter_mut().enumerate() {
            parts[i % t].push(job);
        }
        let work = &work;
        std::thread::scope(|s| {
            let mut parts = parts.into_iter();
            let own = parts.next();
            for part in parts {
                s.spawn(move || {
                    for job in part {
                        work(job);
                    }
                });
            }
            // The calling thread is worker 0.
            if let Some(part) = own {
                for job in part {
                    work(job);
                }
            }
        });
    }

    /// Apply `work` to each deterministic chunk of `0..n`, writing into the
    /// chunk's slot of `slots`. `slots` must hold exactly
    /// [`num_chunks(n)`](Self::num_chunks) elements; slot `c` belongs to
    /// chunk `c`, so a chunk-order scan of `slots` afterwards is a
    /// deterministic reduction.
    pub fn par_chunks<S, F>(&self, n: usize, slots: &mut [S], work: F)
    where
        S: Send,
        F: Fn(Range<usize>, &mut S) + Sync,
    {
        let ranges = Self::chunk_ranges(n);
        assert_eq!(
            ranges.len(),
            slots.len(),
            "par_chunks needs one slot per chunk"
        );
        let mut jobs: Vec<(Range<usize>, &mut S)> =
            ranges.into_iter().zip(slots.iter_mut()).collect();
        self.run_jobs(&mut jobs, |(range, slot)| work(range.clone(), slot));
    }

    /// Map each deterministic chunk of `0..n` to a value in parallel, then
    /// fold the values **in chunk order** on the calling thread.
    pub fn par_map_reduce<T, A, M, F>(&self, n: usize, map: M, init: A, mut fold: F) -> A
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        F: FnMut(A, T) -> A,
    {
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(Self::num_chunks(n), || None);
        self.par_chunks(n, &mut slots, |range, slot| *slot = Some(map(range)));
        let mut acc = init;
        for v in slots.into_iter().flatten() {
            acc = fold(acc, v);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for n in [0usize, 1, 255, 256, 257, 4096, 100_000, 1_000_000] {
            let ranges = Pool::chunk_ranges(n);
            assert_eq!(ranges.len(), Pool::num_chunks(n));
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous at n={n}");
                assert!(r.end > r.start, "non-empty at n={n}");
                next = r.end;
            }
            assert_eq!(next, n, "full coverage at n={n}");
            assert!(ranges.len() <= MAX_CHUNKS);
        }
    }

    #[test]
    fn chunk_geometry_is_independent_of_pool() {
        // chunk_ranges is an associated function of n only — this pins the
        // contract that thread count can never change the reduction order.
        let a = Pool::chunk_ranges(10_000);
        let b = Pool::chunk_ranges(10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_reduce_is_bit_identical_across_thread_counts() {
        // A sum of f64s whose value depends on association order: if the
        // merge ever followed completion order, thread counts would differ.
        let n = 50_000usize;
        let term = |i: usize| 1.0f64 / (i as f64 + 1.0);
        let reference = Pool::sequential().par_map_reduce(
            n,
            |r| r.map(term).sum::<f64>(),
            0.0f64,
            |a, b| a + b,
        );
        for threads in [1usize, 2, 3, 5, 8, 16] {
            let got = Pool::new(threads).par_map_reduce(
                n,
                |r| r.map(term).sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            );
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn par_chunks_writes_every_slot() {
        let n = 10_000usize;
        let pool = Pool::new(4);
        let mut slots = vec![0usize; Pool::num_chunks(n)];
        pool.par_chunks(n, &mut slots, |range, slot| *slot = range.len());
        assert_eq!(slots.iter().sum::<usize>(), n);
        assert!(slots.iter().all(|&len| len > 0));
    }

    #[test]
    fn run_jobs_handles_empty_and_single() {
        let pool = Pool::new(8);
        let mut none: [usize; 0] = [];
        pool.run_jobs(&mut none, |_| {});
        let mut one = [41usize];
        pool.run_jobs(&mut one, |x| *x += 1);
        assert_eq!(one[0], 42);
    }

    #[test]
    fn zero_thread_count_resolves_to_available_parallelism() {
        assert!(Pool::new(0).threads() >= 1);
        assert_eq!(Pool::sequential().threads(), 1);
        assert_eq!(Pool::default().threads(), Pool::new(0).threads());
    }

    #[test]
    fn small_inputs_stay_on_one_chunk() {
        assert_eq!(Pool::chunk_ranges(MIN_CHUNK).len(), 1);
        assert_eq!(Pool::chunk_ranges(10).len(), 1);
    }
}
