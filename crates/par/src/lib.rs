//! # hive-par — deterministic scoped worker pool
//!
//! All concurrency in the workspace flows through this crate (enforced
//! by lint rule R6). It has two primitives, both built on one worker
//! loop over `std::thread::scope`:
//!
//! * [`par_tasks`] runs a handful of **coarse** independent tasks (file
//!   scans, reader loops) — one dispatch unit per task, no chunking and
//!   no item-count cutoff — returning results in input order.
//! * [`par_reduce`] folds fixed chunks of a slice and merges the chunk
//!   partials **in chunk order**. Its serial path performs the exact
//!   same chunked merge, so `HIVE_THREADS=1` and `HIVE_THREADS=64`
//!   produce the same bits (floating-point association included).
//!
//! The determinism contract: the chunk layout depends only on the item
//! count ([`chunk_len`]), never on the worker count, and results land
//! in pre-assigned slots. Which worker executes a chunk is scheduling
//! noise; what each chunk computes is not.
//!
//! Small loops stay plain loops in their crates. hive-graph's PPR power
//! iteration is one serial kernel that uses [`chunk_len`] only to fix
//! the order in which it folds its per-sweep sums.
//!
//! ## Execution policy
//!
//! Determinism makes the execution strategy a pure performance knob:
//!
//! * **Host clamp** — the effective worker count never exceeds
//!   [`host_parallelism`], even under [`with_threads`]: requesting four
//!   workers on a one-core box would serialize through the scheduler
//!   anyway and pay spawn + contention for nothing. Tests that must
//!   exercise the pool machinery regardless of the host use
//!   [`force_workers`].
//! * **One size gate** — [`par_reduce`] runs serial below
//!   [`PAR_REDUCE_MIN_ITEMS`] items, too few to amortize a scope spawn.
//!   Declining available workers is counted as `par.serial_fallback`;
//!   every worker the loop starts is counted as `par.workers`, so an
//!   obs report alone tells whether work reached the pool.
//! * **Work-aware chunk sizing** — [`chunk_len`] keeps chunks at or
//!   above [`MIN_CHUNK`] items (still a pure function of `n`), so
//!   mid-sized inputs dispatch a handful of substantial chunks instead
//!   of 64 slivers whose queue traffic eats the speedup.
//!
//! Pool size comes from the `HIVE_THREADS` environment variable (read
//! once), defaulting to `min(available_parallelism, 8)` and clamped to
//! the host. Tests and benches use [`with_threads`] for a scoped,
//! thread-local override instead of mutating the environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Hard ceiling on the pool size, to keep a typo'd `HIVE_THREADS` sane.
pub const MAX_THREADS: usize = 256;

/// Maximum number of chunks a slice is split into. Chunk layout is a
/// pure function of the item count so results never depend on the
/// worker count.
pub const MAX_CHUNKS: usize = 64;

/// Minimum items per chunk once an input is large enough to split.
/// Chunks below this size cost more in queue traffic than their work
/// is worth; [`chunk_len`] never goes below `MIN_CHUNK.min(n)`.
pub const MIN_CHUNK: usize = 256;

/// [`par_reduce`] runs serial below this many items. Calibrated on
/// CP-ALS, the one reduction big enough to use the pool: an ALS sweep
/// spawns several scopes per iteration, and below 8,192 tensor entries
/// the spawns cost more than the MTTKRP folds they split.
pub const PAR_REDUCE_MIN_ITEMS: usize = 8_192;

static POOL_SIZE: OnceLock<usize> = OnceLock::new();
static HOST: OnceLock<usize> = OnceLock::new();

/// A scoped worker-count override: `forced` distinguishes
/// [`force_workers`] (exact count, for pool-machinery tests) from
/// [`with_threads`] (a request, clamped to the host).
#[derive(Clone, Copy)]
struct Override {
    n: usize,
    forced: bool,
}

thread_local! {
    static OVERRIDE: Cell<Option<Override>> = const { Cell::new(None) };
}

/// The host's hardware thread count (cached; 1 if undetectable). The
/// ceiling for every non-forced worker request.
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

/// The effective worker count for parallel primitives on this thread:
/// the innermost [`with_threads`] / [`force_workers`] override if one
/// is active, else the process-wide pool size (`HIVE_THREADS`, read
/// once, defaulting to 8). Except under [`force_workers`], the count
/// is clamped to [`host_parallelism`] — oversubscribing a small host
/// only adds spawn and contention cost.
pub fn threads() -> usize {
    if let Some(o) = OVERRIDE.with(Cell::get) {
        return if o.forced { o.n } else { o.n.min(host_parallelism()) };
    }
    *POOL_SIZE.get_or_init(default_threads)
}

struct OverrideGuard {
    prev: Option<Override>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.prev));
    }
}

fn with_override<R>(o: Override, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.with(|c| c.replace(Some(o)));
    let _guard = OverrideGuard { prev };
    f()
}

/// Runs `f` with the worker count pinned to at most `n` on this thread
/// (restored on exit, panic-safe). The request is clamped to the host
/// parallelism, so `with_threads(4, f)` on a one-core box runs serial
/// — which is safe precisely because parallel and serial results are
/// bit-identical. `with_threads(1, f)` is the canonical "force serial"
/// gate.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_override(Override { n: n.clamp(1, MAX_THREADS), forced: false }, f)
}

/// Runs `f` with **exactly** `n` workers, bypassing the host clamp.
/// For tests and calibration runs that must exercise the pool
/// machinery (chunk queues, counter harvest) even on hosts with fewer
/// cores; production callers want [`with_threads`].
pub fn force_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_override(Override { n: n.clamp(1, MAX_THREADS), forced: true }, f)
}

/// The fixed chunk length for `n` items — a pure function of `n`, so
/// results never depend on the worker count. `ceil(n / MAX_CHUNKS)`,
/// raised to [`MIN_CHUNK`] (or `n`, if smaller) so mid-sized inputs
/// split into a few substantial chunks rather than 64 slivers.
pub fn chunk_len(n: usize) -> usize {
    ((n + MAX_CHUNKS - 1) / MAX_CHUNKS).max(MIN_CHUNK.min(n)).max(1)
}

/// Number of chunks `n` items split into under [`chunk_len`].
pub fn chunk_count(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n + chunk_len(n) - 1) / chunk_len(n)
    }
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
    OVERRIDE.with(|c| c.set(Some(Override { n: 1, forced: true })));
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

/// The one worker loop: runs `job(i)` for every `i` in `0..n` on up to
/// `t` scoped workers, which pull indices from a shared counter, and
/// returns the results in index order. Workers run with nested calls
/// pinned serial and their counters and gauges harvested; each started
/// worker counts once as `par.workers`.
fn run_workers<U, J>(t: usize, n: usize, job: J) -> Vec<U>
where
    U: Send,
    J: Fn(usize) -> U + Sync,
{
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
                    lock_set(&slots[i], Some(job(i)));
                }
                harvest.exit_worker();
            });
        }
    });
    harvest.merge();
    slots.into_iter().filter_map(unlock).collect()
}

/// Runs `f(index, &item)` once per item, in parallel, and returns the
/// results **in input order**. There is no item-count cutoff: tasks
/// are coarse by contract — a whole file scan, a reader loop, a writer
/// loop — so even two of them are worth a scope spawn. Each task is its
/// own dispatch unit (no chunking).
///
/// The serial path (one worker, or a single task) runs the tasks in
/// index order on the caller thread — identical output, since each
/// result lands in its own slot either way.
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
    run_workers(t, n, |i| f(i, &items[i]))
}

/// Chunked reduction: folds each fixed chunk with `fold` starting from
/// `init()`, then merges the chunk partials **in chunk order** with
/// `merge`. Below [`PAR_REDUCE_MIN_ITEMS`] items the chunks are folded
/// on the caller thread; above it they go through the worker loop. The
/// chunks and the merge are the same either way, so the result
/// (floating-point association included) never depends on the worker
/// count. Returns `init()` for empty input.
pub fn par_reduce<T, A, I, F, M>(items: &[T], init: I, fold: F, merge: M) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, &T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let n = items.len();
    let chunks = items.chunks(chunk_len(n));
    let fold_chunk = |chunk: &[T]| chunk.iter().fold(init(), &fold);
    let t = threads();
    let partials: Vec<A> = if t > 1 && n >= PAR_REDUCE_MIN_ITEMS {
        let chunks: Vec<&[T]> = chunks.collect();
        run_workers(t, chunks.len(), |ci| fold_chunk(chunks[ci]))
    } else {
        if t > 1 {
            hive_obs::count("par.serial_fallback", 1);
        }
        chunks.map(fold_chunk).collect()
    };
    partials.into_iter().reduce(merge).unwrap_or_else(init)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

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
        assert_eq!(chunk_len(0), 1);
        assert_eq!(chunk_len(1), 1);
        // Below MIN_CHUNK the whole input is one chunk...
        assert_eq!(chunk_len(64), 64);
        assert_eq!(chunk_len(MIN_CHUNK), MIN_CHUNK);
        assert_eq!(chunk_count(MIN_CHUNK), 1);
        // ...just past it the floor splits off a second chunk...
        assert_eq!(chunk_len(MIN_CHUNK + 1), MIN_CHUNK);
        assert_eq!(chunk_count(MIN_CHUNK + 1), 2);
        // ...and for large n the MAX_CHUNKS ceiling takes over.
        assert_eq!(chunk_len(MIN_CHUNK * MAX_CHUNKS), MIN_CHUNK);
        assert_eq!(chunk_count(MIN_CHUNK * MAX_CHUNKS), MAX_CHUNKS);
        assert_eq!(chunk_len(100_000), 1_563);
        assert_eq!(chunk_count(100_000), MAX_CHUNKS);
        assert_eq!(chunk_count(0), 0);
        assert_eq!(chunk_count(1), 1);
        for n in [0usize, 1, 7, 63, 64, 65, 255, 256, 257, 1000, 4097, 100_000] {
            let total: usize = (0..chunk_count(n))
                .map(|ci| (n - ci * chunk_len(n)).min(chunk_len(n)))
                .sum();
            assert_eq!(total, n, "chunks must tile exactly for n={n}");
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = threads();
        force_workers(3, || {
            assert_eq!(threads(), 3);
            with_threads(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn with_threads_clamps_to_the_host_but_force_workers_does_not() {
        let host = host_parallelism();
        with_threads(MAX_THREADS, || assert_eq!(threads(), host.min(MAX_THREADS)));
        force_workers(host + 3, || assert_eq!(threads(), host + 3));
        assert!(threads() <= host, "default pool must respect the host clamp");
    }

    #[test]
    fn par_reduce_is_bit_identical_across_thread_counts() {
        let xs = lcg(42, 10_001);
        let sum = |t: usize| {
            force_workers(t, || par_reduce(&xs, || 0.0f64, |a, &x| a + x.sin(), |a, b| a + b))
        };
        let s1 = sum(1);
        for t in [2, 3, 4, 8] {
            assert_eq!(s1.to_bits(), sum(t).to_bits(), "threads={t}");
        }
    }

    #[test]
    fn par_reduce_merges_partials_in_chunk_order() {
        // Each chunk's partial is its first item; the merge concatenates,
        // so the result lists the chunk starts in the order merged.
        let n = 20_000;
        let items: Vec<usize> = (0..n).collect();
        let (starts, snap) = counted(|| {
            force_workers(4, || {
                par_reduce(
                    &items,
                    Vec::new,
                    |mut acc: Vec<usize>, &x| {
                        if acc.is_empty() {
                            acc.push(x);
                        }
                        acc
                    },
                    |mut a, b| {
                        a.extend(b);
                        a
                    },
                )
            })
        });
        let expect: Vec<usize> = (0..chunk_count(n)).map(|ci| ci * chunk_len(n)).collect();
        assert_eq!(starts, expect);
        assert_eq!(snap.counter("par.workers"), 4, "the chunks ran on the pool");
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
        let items: Vec<u64> = (0..10_000).collect();
        let run = |t: usize| {
            let (sum, snap) = counted(|| {
                force_workers(t, || {
                    par_reduce(
                        &items,
                        || 0u64,
                        |a, &x| {
                            hive_obs::count("test.work", 1);
                            a + x
                        },
                        |a, b| a + b,
                    )
                })
            });
            (sum, snap.counter("test.work"), snap.counter("par.workers"))
        };
        // Worker-side counts survive the scope join and match serial.
        assert_eq!(run(1), (49_995_000, 10_000, 0));
        assert_eq!(run(4), (49_995_000, 10_000, 4));
    }

    #[test]
    fn small_inputs_fall_back_to_serial_and_count_it() {
        let sum = |n: u64| {
            let items: Vec<u64> = (0..n).collect();
            par_reduce(&items, || 0, |a, &x| a + x, |a, b| a + b)
        };
        // Workers available, but one item short of the gate: the pool
        // declines the input and records the decision.
        let below = PAR_REDUCE_MIN_ITEMS as u64 - 1;
        let (out, snap) = counted(|| force_workers(4, || sum(below)));
        assert_eq!(out, below * (below - 1) / 2);
        assert_eq!(snap.counter("par.serial_fallback"), 1);
        assert_eq!(snap.counter("par.workers"), 0);
        // At the gate the chunks reach the workers.
        let (_, snap) = counted(|| force_workers(4, || sum(below + 1)));
        assert_eq!(snap.counter("par.serial_fallback"), 0);
        assert_eq!(snap.counter("par.workers"), 4);
        // With one worker the serial path is the only path — no
        // fallback is recorded because nothing was declined.
        let (_, snap) = counted(|| with_threads(1, || sum(below + 1)));
        assert_eq!(snap.counter("par.serial_fallback"), 0);
        assert_eq!(snap.counter("par.workers"), 0);
    }

    #[test]
    fn par_tasks_preserves_input_order_even_for_tiny_inputs() {
        // Four items is far below par_reduce's gate, but par_tasks
        // still dispatches them to real workers.
        let items: Vec<u64> = (0..4).collect();
        let serial = with_threads(1, || par_tasks(&items, |i, &x| (i, x * 10)));
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
