//! # hive-par — deterministic scoped worker pool
//!
//! All concurrency in the workspace flows through this crate (enforced
//! by lint rule R6). Its one primitive, [`par_tasks`], runs a handful of
//! **coarse** independent tasks (file scans, reader loops, follower
//! replays) on one worker loop over `std::thread::scope`: one dispatch
//! unit per task, no chunking and no item-count cutoff, with the
//! results returned in input order. Each result lands in its own slot,
//! so which worker ran a task is scheduling noise; what it computed is
//! not.
//!
//! Loops that fold numbers stay plain loops in their crates. They share
//! one chunk layout, [`chunk_len`], a pure function of the item count:
//! hive-graph's PPR power iteration and hive-scent's CP-ALS fold their
//! sums per chunk and add the chunk partials in chunk order, which fixes
//! the floating-point association of every sum.
//!
//! ## Worker count
//!
//! Pool size comes from the `HIVE_THREADS` environment variable (read
//! once), defaulting to `min(available_parallelism, 8)` and clamped to
//! [`host_parallelism`]: four workers on a one-core box would serialize
//! through the scheduler anyway and pay spawn and contention for
//! nothing. [`force_workers`] sets an exact, scoped, thread-local count
//! that bypasses the host clamp, for the serve soak, the bench fan-outs
//! and tests that must exercise the pool machinery on any host.
//!
//! Every worker the loop starts is counted as `par.workers`; a
//! multi-worker pool handed a single task runs it on the caller thread
//! and counts `par.serial_fallback`. An obs report alone therefore tells
//! whether work reached the pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Hard ceiling on the pool size, to keep a typo'd `HIVE_THREADS` sane.
pub const MAX_THREADS: usize = 256;

/// Maximum number of chunks [`chunk_len`] splits an input into.
pub const MAX_CHUNKS: usize = 64;

/// Minimum items per chunk once an input is large enough to split:
/// [`chunk_len`] never goes below `MIN_CHUNK.min(n)`.
pub const MIN_CHUNK: usize = 256;

static POOL_SIZE: OnceLock<usize> = OnceLock::new();
static HOST: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// The [`force_workers`] count in force on this thread, if any.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The host's hardware thread count (cached; 1 if undetectable). The
/// ceiling of the default pool size.
pub fn host_parallelism() -> usize {
    *HOST.get_or_init(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

fn default_threads() -> usize {
    let configured = std::env::var("HIVE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    configured.unwrap_or(8).min(host_parallelism()).min(MAX_THREADS)
}

/// The worker count for [`par_tasks`] on this thread: the innermost
/// [`force_workers`] count if one is active, else the process-wide pool
/// size (`HIVE_THREADS`, read once, defaulting to 8), clamped to
/// [`host_parallelism`] — oversubscribing a small host only adds spawn
/// and contention cost.
pub fn threads() -> usize {
    OVERRIDE.with(Cell::get).unwrap_or_else(|| *POOL_SIZE.get_or_init(default_threads))
}

struct OverrideGuard {
    prev: Option<usize>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Runs `f` with **exactly** `n` workers on this thread (clamped to
/// `1..=MAX_THREADS`, restored on exit, panic-safe), bypassing the host
/// clamp. For the serve soak's readers, the bench fan-outs and tests
/// that must exercise the pool machinery (task queue, counter harvest)
/// even on hosts with fewer cores. `force_workers(1, f)` runs every
/// task serially on the caller thread.
pub fn force_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.with(|c| c.replace(Some(n.clamp(1, MAX_THREADS))));
    let _guard = OverrideGuard { prev };
    f()
}

/// The fixed chunk length for `n` items — a pure function of `n`, so a
/// chunked fold's association depends on nothing else.
/// `ceil(n / MAX_CHUNKS)`, raised to [`MIN_CHUNK`] (or `n`, if smaller)
/// so mid-sized inputs split into a few substantial chunks rather than
/// 64 slivers.
pub fn chunk_len(n: usize) -> usize {
    ((n + MAX_CHUNKS - 1) / MAX_CHUNKS).max(MIN_CHUNK.min(n)).max(1)
}

fn lock_set<T>(slot: &Mutex<T>, value: T) {
    match slot.lock() {
        Ok(mut guard) => *guard = value,
        Err(poisoned) => *poisoned.into_inner() = value,
    }
}

fn unlock<T>(slot: Mutex<T>) -> T {
    match slot.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Pins nested parallel calls inside worker closures to serial, so a
/// task that itself uses hive-par does not oversubscribe.
fn pin_serial() {
    OVERRIDE.with(|c| c.set(Some(1)));
}

/// Carries the caller's observability level into scoped workers and
/// collects the named counters and gauges they record, so
/// per-operation counts (store scans inside a task, say) survive the
/// scope join. Both harvested kinds merge commutatively — counters by
/// sum, gauges by max — so totals and peaks are identical for any
/// worker count or scheduling; spans opened inside workers stay
/// worker-local and are deliberately dropped.
struct ObsHarvest {
    level: hive_obs::Level,
    sink: Mutex<Vec<(String, u64)>>,
    gauge_sink: Mutex<Vec<(String, u64)>>,
}

impl ObsHarvest {
    fn new() -> Self {
        ObsHarvest {
            level: hive_obs::level(),
            sink: Mutex::new(Vec::new()),
            gauge_sink: Mutex::new(Vec::new()),
        }
    }

    /// Called inside a fresh worker thread, after [`pin_serial`].
    fn enter_worker(&self) {
        hive_obs::set_level(self.level);
    }

    /// Called as the worker finishes: drains its thread-local counters
    /// and gauges into the shared sinks.
    fn exit_worker(&self) {
        if self.level == hive_obs::Level::Off {
            return;
        }
        let drained = hive_obs::drain_counters();
        if !drained.is_empty() {
            match self.sink.lock() {
                Ok(mut g) => g.extend(drained),
                Err(poisoned) => poisoned.into_inner().extend(drained),
            }
        }
        let gauges = hive_obs::drain_gauges();
        if !gauges.is_empty() {
            match self.gauge_sink.lock() {
                Ok(mut g) => g.extend(gauges),
                Err(poisoned) => poisoned.into_inner().extend(gauges),
            }
        }
    }

    /// Called on the caller thread after the scope join: folds every
    /// harvested counter and gauge back into the caller's registry.
    fn merge(self) {
        if self.level == hive_obs::Level::Off {
            return;
        }
        let pairs = unlock(self.sink);
        hive_obs::merge_counters(&pairs);
        let gauges = unlock(self.gauge_sink);
        hive_obs::merge_gauges(&gauges);
    }
}

/// Runs `f(index, &item)` once per item, in parallel, and returns the
/// results **in input order**. There is no item-count cutoff: tasks
/// are coarse by contract — a whole file scan, a reader loop, a writer
/// loop — so even two of them are worth a scope spawn. Each task is its
/// own dispatch unit (no chunking).
///
/// Up to [`threads`] scoped workers pull task indices from a shared
/// counter and write each result into its own slot. Workers run with
/// nested calls pinned serial and their counters and gauges harvested;
/// each started worker counts once as `par.workers`. The serial path
/// (one worker, or a single task) runs the tasks in index order on the
/// caller thread — identical output, since each result lands in its own
/// slot either way.
pub fn par_tasks<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let t = threads();
    if t <= 1 || n <= 1 {
        if t > 1 {
            hive_obs::count("par.serial_fallback", 1);
        }
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let workers = t.min(n);
    hive_obs::count("par.workers", workers as u64);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let harvest = ObsHarvest::new();
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                pin_serial();
                harvest.enter_worker();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    lock_set(&slots[i], Some(f(i, &items[i])));
                }
                harvest.exit_worker();
            });
        }
    });
    harvest.merge();
    slots.into_iter().filter_map(unlock).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` at `Level::Counts` on a fresh registry and returns its
    /// result with the snapshot it left.
    fn counted<R>(f: impl FnOnce() -> R) -> (R, hive_obs::Registry) {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            let out = f();
            let snap = hive_obs::snapshot();
            hive_obs::reset();
            (out, snap)
        })
    }

    #[test]
    fn chunk_layout_depends_only_on_n() {
        let count = |n: usize| n.div_ceil(chunk_len(n));
        assert_eq!(chunk_len(0), 1);
        assert_eq!(chunk_len(1), 1);
        // Below MIN_CHUNK the whole input is one chunk...
        assert_eq!(chunk_len(64), 64);
        assert_eq!(chunk_len(MIN_CHUNK), MIN_CHUNK);
        assert_eq!(count(MIN_CHUNK), 1);
        // ...just past it the floor splits off a second chunk...
        assert_eq!(chunk_len(MIN_CHUNK + 1), MIN_CHUNK);
        assert_eq!(count(MIN_CHUNK + 1), 2);
        // ...and for large n the MAX_CHUNKS ceiling takes over.
        assert_eq!(chunk_len(MIN_CHUNK * MAX_CHUNKS), MIN_CHUNK);
        assert_eq!(count(MIN_CHUNK * MAX_CHUNKS), MAX_CHUNKS);
        assert_eq!(chunk_len(100_000), 1_563);
        assert_eq!(count(100_000), MAX_CHUNKS);
        for n in [0usize, 1, 7, 63, 64, 65, 255, 256, 257, 1000, 4097, 100_000] {
            let total: usize =
                (0..count(n)).map(|ci| (n - ci * chunk_len(n)).min(chunk_len(n))).sum();
            assert_eq!(total, n, "chunks must tile exactly for n={n}");
        }
    }

    #[test]
    fn force_workers_overrides_and_restores() {
        let outer = threads();
        force_workers(3, || {
            assert_eq!(threads(), 3);
            force_workers(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn the_default_pool_respects_the_host_but_force_workers_does_not() {
        let host = host_parallelism();
        assert!(threads() <= host, "default pool must respect the host clamp");
        force_workers(host + 3, || assert_eq!(threads(), host + 3));
        force_workers(MAX_THREADS + 1, || assert_eq!(threads(), MAX_THREADS));
        force_workers(0, || assert_eq!(threads(), 1));
    }

    #[test]
    fn nested_parallel_calls_are_pinned_serial() {
        let items: Vec<u32> = (0..8).collect();
        let out = force_workers(4, || {
            // Inside a worker the pool pins nested calls to serial.
            par_tasks(&items, |_, &x| x + threads() as u32)
        });
        assert_eq!(out, (1..9).collect::<Vec<u32>>());
    }

    #[test]
    fn worker_counters_are_harvested_across_thread_counts() {
        let items: Vec<u64> = (0..64).collect();
        let run = |t: usize| {
            let (out, snap) = counted(|| {
                force_workers(t, || {
                    par_tasks(&items, |_, &x| {
                        hive_obs::count("test.work", x);
                        x
                    })
                })
            });
            (out.iter().sum::<u64>(), snap.counter("test.work"), snap.counter("par.workers"))
        };
        // Worker-side counts survive the scope join and match serial.
        assert_eq!(run(1), (2_016, 2_016, 0));
        assert_eq!(run(4), (2_016, 2_016, 4));
    }

    #[test]
    fn small_inputs_fall_back_to_serial_and_count_it() {
        let run = |t: usize, n: u64| {
            let items: Vec<u64> = (0..n).collect();
            let (out, snap) = counted(|| force_workers(t, || par_tasks(&items, |_, &x| x * 10)));
            (out, snap.counter("par.serial_fallback"), snap.counter("par.workers"))
        };
        // Workers available, but one task: the pool declines it and
        // records the decision.
        assert_eq!(run(4, 1), (vec![0], 1, 0));
        // Two tasks reach the workers.
        assert_eq!(run(4, 2), (vec![0, 10], 0, 2));
        // With one worker the serial path is the only path — no
        // fallback is recorded because nothing was declined.
        assert_eq!(run(1, 2), (vec![0, 10], 0, 0));
    }

    #[test]
    fn par_tasks_preserves_input_order_even_for_tiny_inputs() {
        // Four tasks still go to real workers: there is no size gate.
        let items: Vec<u64> = (0..4).collect();
        let serial = force_workers(1, || par_tasks(&items, |i, &x| (i, x * 10)));
        let (parallel, snap) =
            counted(|| force_workers(4, || par_tasks(&items, |i, &x| (i, x * 10))));
        assert_eq!(serial, parallel);
        assert_eq!(serial, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        assert_eq!(snap.counter("par.workers"), 4);
        let empty: Vec<u64> = Vec::new();
        assert!(force_workers(2, || par_tasks(&empty, |i, &x| (i, x))).is_empty());
    }

    #[test]
    fn worker_gauges_are_harvested_by_max() {
        let items: Vec<u64> = (0..6).collect();
        let (_, snap) = counted(|| {
            force_workers(3, || {
                par_tasks(&items, |_, &x| {
                    hive_obs::gauge_max("test.peak", x);
                    x
                })
            })
        });
        assert_eq!(snap.gauge("test.peak"), 5, "peak survives the scope join");
    }
}
