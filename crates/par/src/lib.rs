//! # hive-par — deterministic scoped worker pool
//!
//! All concurrency in the workspace flows through this crate (enforced
//! by lint rule R6): a small set of data-parallel primitives built on
//! `std::thread::scope`, designed so that **parallel output is
//! bit-identical to serial output**.
//!
//! The determinism contract:
//!
//! * Work is split into **fixed chunks whose layout depends only on the
//!   item count** (`chunk_len`), never on the worker count. Which
//!   worker executes a chunk is scheduling noise; what each chunk
//!   computes is not.
//! * [`par_map`] / [`par_for_each_chunk`] / [`par_map_chunks_mut`]
//!   write per-element / per-chunk results into pre-assigned slots, so
//!   reassembly order is fixed.
//! * [`par_reduce`] folds each chunk independently and merges the
//!   partials **in chunk order** — and the serial fallback performs the
//!   exact same chunked merge, so `HIVE_THREADS=1` and `HIVE_THREADS=64`
//!   produce the same bits (floating-point association included).
//! * [`par_tasks`] runs a handful of **coarse** independent tasks (file
//!   scans, reader loops) — one dispatch unit per task, no chunking and
//!   no item-count cutoff — returning results in input order.
//!
//! Iterative kernels stay serial: hive-graph's PPR power iteration is one
//! plain loop that uses [`chunk_len`] only to fix the order in which it
//! folds its per-sweep sums.
//!
//! ## Adaptive execution policy
//!
//! Determinism makes the execution strategy a pure performance knob,
//! and the pool exploits that in three ways:
//!
//! * **Host clamp** — the effective worker count never exceeds
//!   [`host_parallelism`], even under [`with_threads`]: requesting four
//!   workers on a one-core box would serialize through the scheduler
//!   anyway and pay spawn + contention for nothing. Tests that must
//!   exercise the pool machinery regardless of the host use
//!   [`force_workers`].
//! * **Per-primitive serial cutoff** — each primitive falls back to
//!   its serial path below a profitability threshold (item counts too
//!   small to amortize a scope spawn). The serial paths perform the
//!   identical chunked merge, so the fallback is invisible in the
//!   output bits; it is visible to observability as the
//!   `par.serial_fallback` counter.
//! * **Work-aware chunk sizing** — [`chunk_len`] keeps chunks at or
//!   above [`MIN_CHUNK`] items (still a pure function of `n`), so
//!   mid-sized inputs dispatch a handful of substantial chunks instead
//!   of 64 slivers whose queue/lock traffic eats the speedup.
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
/// Chunks below this size cost more in queue/lock traffic than their
/// work is worth; [`chunk_len`] never goes below `MIN_CHUNK.min(n)`.
pub const MIN_CHUNK: usize = 256;

/// Serial cutoffs: below these item counts the primitive's serial path
/// beats spawning a scope. Each is calibrated to the primitive's
/// per-item overhead profile (element closures for map, chunk folds
/// for reduce).
const MAP_SERIAL_CUTOFF: usize = 1_024;
const CHUNKED_SERIAL_CUTOFF: usize = 1_024;
const REDUCE_SERIAL_CUTOFF: usize = 2_048;

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
/// mapped function that itself uses hive-par does not oversubscribe.
fn pin_serial() {
    OVERRIDE.with(|c| c.set(Some(Override { n: 1, forced: true })));
}

/// The per-primitive serial gate. True when the pool is already pinned
/// serial or the item count is below the primitive's profitability
/// cutoff; in the latter case (workers were available but declined)
/// the decision is recorded as `par.serial_fallback`. Serial paths
/// replicate the chunked merge, so this only moves time, never bits.
fn below_cutoff(t: usize, n: usize, cutoff: usize) -> bool {
    if t <= 1 {
        return true;
    }
    if n <= cutoff {
        hive_obs::count("par.serial_fallback", 1);
        return true;
    }
    false
}

/// Carries the caller's observability level into scoped workers and
/// collects the named counters and gauges they record, so
/// per-operation counts (store scans inside a `par_map` closure, say)
/// survive the scope join. Both harvested kinds merge commutatively —
/// counters by sum, gauges by max — so totals and peaks are identical
/// for any worker count or chunk scheduling; spans opened inside
/// workers stay worker-local and are deliberately dropped.
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

/// Records the shared entry counters for one pool primitive: the call
/// itself, items submitted, fixed chunks dispatched, and the tail
/// slack (how many item slots the last chunk leaves idle — the
/// chunk-imbalance measure for a fixed layout).
fn count_dispatch(primitive: &str, n_items: usize) {
    hive_obs::count(&format!("par.{primitive}.calls"), 1);
    hive_obs::count(&format!("par.{primitive}.items"), n_items as u64);
    let chunks = chunk_count(n_items);
    hive_obs::count("par.chunks", chunks as u64);
    if chunks > 0 {
        let slack = chunks * chunk_len(n_items) - n_items;
        hive_obs::count("par.chunk_slack", slack as u64);
    }
}

/// Applies `f` to every element, in parallel over fixed chunks, and
/// returns the results in input order. Element results are independent,
/// so output is identical for any worker count.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    count_dispatch("map", items.len());
    let t = threads();
    if below_cutoff(t, items.len(), MAP_SERIAL_CUTOFF) {
        return items.iter().map(f).collect();
    }
    let chunks: Vec<&[T]> = items.chunks(chunk_len(items.len())).collect();
    let results: Vec<Mutex<Vec<U>>> = chunks.iter().map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    let harvest = ObsHarvest::new();
    let f = &f;
    let chunks_ref = &chunks;
    let results_ref = &results;
    let next_ref = &next;
    let harvest_ref = &harvest;
    thread::scope(|s| {
        for _ in 0..t.min(chunks.len()) {
            s.spawn(move || {
                pin_serial();
                harvest_ref.enter_worker();
                loop {
                    let ci = next_ref.fetch_add(1, Ordering::Relaxed);
                    if ci >= chunks_ref.len() {
                        break;
                    }
                    let out: Vec<U> = chunks_ref[ci].iter().map(f).collect();
                    lock_set(&results_ref[ci], out);
                }
                harvest_ref.exit_worker();
            });
        }
    });
    harvest.merge();
    let mut out = Vec::with_capacity(items.len());
    for slot in results {
        out.extend(unlock(slot));
    }
    out
}

/// Runs `f(index, &item)` once per item, in parallel, and returns the
/// results **in input order**. Unlike [`par_map`] there is no
/// item-count cutoff: tasks are coarse by contract — a whole file
/// scan, a reader loop, a writer loop — so even two of them are worth
/// a scope spawn. Each task is its own dispatch unit (no chunking),
/// pulled by workers from a shared index queue; results land in
/// pre-assigned slots so reassembly never depends on scheduling.
///
/// The serial path (one worker, or a single task) runs the tasks in
/// index order on the caller thread — identical output, by the same
/// argument as the other primitives.
pub fn par_tasks<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    hive_obs::count("par.tasks.calls", 1);
    hive_obs::count("par.tasks.items", n as u64);
    let t = threads();
    if t <= 1 || n <= 1 {
        if t > 1 && n <= 1 {
            hive_obs::count("par.serial_fallback", 1);
        }
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let harvest = ObsHarvest::new();
    let f = &f;
    let items_ref = items;
    let slots_ref = &slots;
    let next_ref = &next;
    let harvest_ref = &harvest;
    thread::scope(|s| {
        for _ in 0..t.min(n) {
            s.spawn(move || {
                pin_serial();
                harvest_ref.enter_worker();
                loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= items_ref.len() {
                        break;
                    }
                    let out = f(i, &items_ref[i]);
                    lock_set(&slots_ref[i], Some(out));
                }
                harvest_ref.exit_worker();
            });
        }
    });
    harvest.merge();
    slots.into_iter().filter_map(unlock).collect()
}

/// Runs `f(offset, chunk)` over fixed mutable chunks of `data`, in
/// parallel. Chunks are disjoint, so any worker count writes the same
/// bytes.
pub fn par_for_each_chunk<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    count_dispatch("for_each_chunk", n);
    if n == 0 {
        return;
    }
    let chunk = chunk_len(n);
    let t = threads();
    if below_cutoff(t, n, CHUNKED_SERIAL_CUTOFF) {
        for (ci, c) in data.chunks_mut(chunk).enumerate() {
            f(ci * chunk, c);
        }
        return;
    }
    let queue = Mutex::new(data.chunks_mut(chunk).enumerate());
    let harvest = ObsHarvest::new();
    let f = &f;
    let queue = &queue;
    let harvest_ref = &harvest;
    thread::scope(|s| {
        for _ in 0..t.min(chunk_count(n)) {
            s.spawn(move || {
                pin_serial();
                harvest_ref.enter_worker();
                loop {
                    let job = match queue.lock() {
                        Ok(mut q) => q.next(),
                        Err(poisoned) => poisoned.into_inner().next(),
                    };
                    match job {
                        Some((ci, c)) => f(ci * chunk, c),
                        None => break,
                    }
                }
                harvest_ref.exit_worker();
            });
        }
    });
    harvest.merge();
}

/// Like [`par_for_each_chunk`] but each chunk also produces a value;
/// the values come back **in chunk order**. This is the workhorse for
/// fused passes: write a disjoint output chunk and return the chunk's
/// partial statistics (delta, mass, ...) in one parallel region.
pub fn par_map_chunks_mut<T, U, F>(data: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T]) -> U + Sync,
{
    let n = data.len();
    count_dispatch("map_chunks_mut", n);
    if n == 0 {
        return Vec::new();
    }
    let chunk = chunk_len(n);
    let t = threads();
    if below_cutoff(t, n, CHUNKED_SERIAL_CUTOFF) {
        return data.chunks_mut(chunk).enumerate().map(|(ci, c)| f(ci * chunk, c)).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = (0..chunk_count(n)).map(|_| Mutex::new(None)).collect();
    let queue = Mutex::new(data.chunks_mut(chunk).enumerate());
    let harvest = ObsHarvest::new();
    let f = &f;
    let queue = &queue;
    let slots_ref = &slots;
    let harvest_ref = &harvest;
    thread::scope(|s| {
        for _ in 0..t.min(chunk_count(n)) {
            s.spawn(move || {
                pin_serial();
                harvest_ref.enter_worker();
                loop {
                    let job = match queue.lock() {
                        Ok(mut q) => q.next(),
                        Err(poisoned) => poisoned.into_inner().next(),
                    };
                    match job {
                        Some((ci, c)) => {
                            let out = f(ci * chunk, c);
                            lock_set(&slots_ref[ci], Some(out));
                        }
                        None => break,
                    }
                }
                harvest_ref.exit_worker();
            });
        }
    });
    harvest.merge();
    slots.into_iter().filter_map(unlock).collect()
}

/// Chunked reduction: folds each fixed chunk with `fold` starting from
/// `init()`, then merges the chunk partials **in chunk order** with
/// `merge`. The serial path performs the identical chunked merge, so
/// the result (floating-point association included) never depends on
/// the worker count. Returns `init()` for empty input.
pub fn par_reduce<T, A, I, F, M>(items: &[T], init: I, fold: F, merge: M) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, &T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let n = items.len();
    count_dispatch("reduce", n);
    if n == 0 {
        return init();
    }
    let chunk = chunk_len(n);
    let t = threads();
    let partials: Vec<A> = if below_cutoff(t, n, REDUCE_SERIAL_CUTOFF) {
        items.chunks(chunk).map(|c| c.iter().fold(init(), &fold)).collect()
    } else {
        let chunks: Vec<&[T]> = items.chunks(chunk).collect();
        let slots: Vec<Mutex<Option<A>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let harvest = ObsHarvest::new();
        let init = &init;
        let fold = &fold;
        let chunks = &chunks;
        let slots_ref = &slots;
        let next_ref = &next;
        let harvest_ref = &harvest;
        thread::scope(|s| {
            for _ in 0..t.min(chunks.len()) {
                s.spawn(move || {
                    pin_serial();
                    harvest_ref.enter_worker();
                    loop {
                        let ci = next_ref.fetch_add(1, Ordering::Relaxed);
                        if ci >= chunks.len() {
                            break;
                        }
                        let acc = chunks[ci].iter().fold(init(), fold);
                        lock_set(&slots_ref[ci], Some(acc));
                    }
                    harvest_ref.exit_worker();
                });
            }
        });
        harvest.merge();
        slots.into_iter().filter_map(unlock).collect()
    };
    let mut iter = partials.into_iter();
    match iter.next() {
        Some(first) => iter.fold(first, merge),
        None => init(),
    }
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
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..4099).collect();
        let serial = with_threads(1, || par_map(&items, |&x| x * x + 1));
        let parallel = force_workers(4, || par_map(&items, |&x| x * x + 1));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), items.len());
        assert_eq!(serial[10], 101);
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
    fn par_for_each_chunk_covers_every_element_once() {
        let mut data = vec![0u32; 4099];
        force_workers(4, || {
            par_for_each_chunk(&mut data, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (offset + i) as u32;
                }
            });
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn par_map_chunks_mut_returns_partials_in_chunk_order() {
        let mut data: Vec<f64> = lcg(7, 2048);
        let expect = data.clone();
        let partials = force_workers(4, || {
            par_map_chunks_mut(&mut data, |offset, chunk| {
                let s: f64 = chunk.iter().sum();
                (offset, s)
            })
        });
        assert_eq!(partials.len(), chunk_count(expect.len()));
        let mut prev = None;
        for (offset, _) in &partials {
            assert!(prev.map_or(true, |p: usize| p < *offset));
            prev = Some(*offset);
        }
        let total: f64 = partials.iter().map(|&(_, s)| s).sum();
        let serial_total: f64 = expect
            .chunks(chunk_len(expect.len()))
            .map(|c| c.iter().sum::<f64>())
            .sum();
        assert_eq!(total.to_bits(), serial_total.to_bits());
    }

    #[test]
    fn nested_parallel_calls_are_pinned_serial() {
        let items: Vec<u32> = (0..2_000).collect();
        let out = force_workers(4, || {
            par_map(&items, |&x| {
                // Inside a worker the pool pins nested calls to serial.
                let inner: Vec<u32> = par_map(&[x], |&y| y + threads() as u32);
                inner[0]
            })
        });
        assert_eq!(out, (1..2_001).collect::<Vec<u32>>());
    }

    #[test]
    fn worker_counters_are_harvested_across_thread_counts() {
        let items: Vec<u64> = (0..3_000).collect();
        let run = |t: usize| {
            hive_obs::with_level(hive_obs::Level::Counts, || {
                hive_obs::reset();
                force_workers(t, || {
                    par_map(&items, |&x| {
                        hive_obs::count("test.work", 1);
                        x
                    })
                });
                let snap = hive_obs::snapshot();
                let r = (snap.counter("test.work"), snap.counter("par.map.items"));
                hive_obs::reset();
                r
            })
        };
        // Worker-side counts survive the scope join and match serial.
        assert_eq!(run(1), (3_000, 3_000));
        assert_eq!(run(4), (3_000, 3_000));
    }

    #[test]
    fn small_inputs_fall_back_to_serial_and_count_it() {
        let items: Vec<u64> = (0..100).collect();
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            // Workers available, but 100 items are below the map cutoff:
            // the pool declines them and records the decision.
            let out = force_workers(4, || par_map(&items, |&x| x + 1));
            assert_eq!(out, (1..101).collect::<Vec<u64>>());
            let snap = hive_obs::snapshot();
            assert_eq!(snap.counter("par.serial_fallback"), 1);
            hive_obs::reset();
            // With one worker the serial path is the only path — no
            // fallback is recorded because nothing was declined.
            with_threads(1, || par_map(&items, |&x| x + 1));
            let snap = hive_obs::snapshot();
            assert_eq!(snap.counter("par.serial_fallback"), 0);
            hive_obs::reset();
        });
    }

    #[test]
    fn par_tasks_preserves_input_order_even_for_tiny_inputs() {
        // Two items is below every chunked primitive's cutoff, but
        // par_tasks still dispatches them to real workers.
        let items: Vec<u64> = (0..4).collect();
        let serial = with_threads(1, || par_tasks(&items, |i, &x| (i, x * 10)));
        let parallel = force_workers(4, || par_tasks(&items, |i, &x| (i, x * 10)));
        assert_eq!(serial, parallel);
        assert_eq!(serial, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        let empty: Vec<u64> = Vec::new();
        assert!(force_workers(2, || par_tasks(&empty, |i, &x| (i, x))).is_empty());
    }

    #[test]
    fn worker_gauges_are_harvested_by_max() {
        let items: Vec<u64> = (0..6).collect();
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            force_workers(3, || {
                par_tasks(&items, |_, &x| {
                    hive_obs::gauge_max("test.peak", x);
                    x
                })
            });
            let snap = hive_obs::snapshot();
            assert_eq!(snap.gauge("test.peak"), 5, "peak survives the scope join");
            hive_obs::reset();
        });
    }
}
