//! Fork/join over a handful of stripes with `std::thread::scope`.
//!
//! The threaded tier of the engine (the packed pair loop, the repack and
//! the cell-list neighbour build) cuts its work into one stripe per
//! hardware thread, each writing only memory it owns, and joins before
//! the caller continues. Stripe boundaries depend only on the stripe
//! count, never on scheduling, so results are reproducible run to run.
//! Threads are spawned per call: the callers gate on a work-size
//! threshold below which the serial path is used instead.

use std::thread;

/// Stripes to cut threaded work into: one per hardware thread.
pub(crate) fn available() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Run `work` once per stripe and return when all are done. The first
/// stripe runs on the calling thread, every other one on its own scoped
/// thread; a panic in any stripe propagates to the caller.
pub(crate) fn for_each<T: Send>(stripes: impl IntoIterator<Item = T>, work: impl Fn(T) + Sync) {
    let mut stripes = stripes.into_iter();
    let Some(first) = stripes.next() else {
        return;
    };
    let work = &work;
    thread::scope(|scope| {
        for stripe in stripes {
            scope.spawn(move || work(stripe));
        }
        work(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stripe_runs_once_and_writes_its_own_slice() {
        for n_stripes in [1usize, 2, 3, 7] {
            let mut data = vec![0u32; 20];
            let chunk = data.len().div_ceil(n_stripes);
            for_each(data.chunks_mut(chunk).enumerate(), |(s, out)| {
                for x in out {
                    *x += s as u32 + 1;
                }
            });
            let expected: Vec<u32> = (0..20).map(|k| (k / chunk) as u32 + 1).collect();
            assert_eq!(data, expected);
        }
        for_each(std::iter::empty::<()>(), |()| unreachable!());
        assert!(available() >= 1);
    }
}
