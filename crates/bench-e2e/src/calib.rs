//! Host-speed calibration: a fixed reference computation, timed at
//! points spread over the run.
//!
//! The benchmark runs on shared hosts where a neighbour on the same
//! core can slow identical work by 2x for minutes at a time without any
//! steal time showing in the guest. The reference computation does the
//! same kinds of work as the platform (a gather over a random sparse
//! graph, key formatting and hashing, a sort, and cache-missing loads
//! through a table larger than a core's share of the last-level cache)
//! and none of its code, so its time tracks the host's speed and not
//! the program's. It works on buffers allocated once, and each sample
//! times a second pass, so the program's heap and cache state hardly
//! reach it.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant; // lint:allow(deterministic-time) -- wall-clock is the measurement

/// Nodes of the reference graph; this part of a pass takes about 1 ms
/// on a 2 GHz core.
const N: usize = 1 << 13;

/// Entries of the pointer-chasing cycle: 16 MiB of `u32`.
const CHAIN: usize = 1 << 22;

/// Loads through the cycle per pass, each most likely a cache miss:
/// about a third of a pass. A run takes fewer than `CHAIN` of them in
/// all, so no load finds its line left in cache by an earlier pass.
///
/// The share sets how strongly the pass reacts to a slow host. On the
/// host the benchmark was sized on, the platform's times grew with the
/// host's slowdowns as about the 0.6th power of a pass without the
/// chase, and as about the 1.3th power of one with the chase at half
/// the pass; at a third they grow about in proportion.
const CHASE: usize = 1 << 12;

/// Out-degree of every node of the reference graph.
const DEGREE: usize = 4;

/// Power-iteration sweeps per pass.
const SWEEPS: usize = 6;

/// The reference computation's buffers and the times it took.
#[derive(Clone, Debug)]
pub struct Calibration {
    targets: Vec<u32>,
    keys: Vec<u64>,
    rank: Vec<f64>,
    step: Vec<f64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
    text: String,
    /// One random cycle through all entries (Sattolo's shuffle).
    chain: Vec<u32>,
    at: u32,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration::with_chain(CHAIN)
    }
}

impl Calibration {
    /// A calibration whose pointer-chasing cycle has `chain` entries
    /// instead of [`CHAIN`]; smaller ones are for smoke runs and tests,
    /// where building 16 MiB of cycle would dominate.
    pub fn with_chain(chain: usize) -> Calibration {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let targets = (0..DEGREE * N)
            .map(|_| (next() % N as u64) as u32)
            .collect();
        let keys = (0..N).map(|_| next()).collect();
        let mut cycle: Vec<u32> = (0..chain as u32).collect();
        for i in (1..chain).rev() {
            cycle.swap(i, (next() % i as u64) as usize);
        }
        Calibration {
            targets,
            keys,
            rank: vec![0.0; N],
            step: vec![0.0; N],
            sorted: Vec::with_capacity(N),
            table: vec![0; 2 * N],
            text: String::with_capacity(32),
            chain: cycle,
            at: 0,
            samples: Vec::new(),
        }
    }

    /// One pass of the reference computation: the same work every call,
    /// the chase going on from where the last pass left it.
    fn pass(&mut self) -> u64 {
        for _ in 0..CHASE {
            self.at = self.chain[self.at as usize];
        }
        self.rank.fill(1.0 / N as f64);
        for _ in 0..SWEEPS {
            for (u, out) in self.step.iter_mut().enumerate() {
                let s: f64 = self.targets[DEGREE * u..DEGREE * (u + 1)]
                    .iter()
                    .map(|&v| self.rank[v as usize])
                    .sum();
                *out = 0.15 / N as f64 + 0.85 * s / DEGREE as f64;
            }
            std::mem::swap(&mut self.rank, &mut self.step);
        }
        // Format each key, hash the text (FNV-1a) and insert the hash
        // into an open-addressing table.
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut probes = 0_u64;
        for &k in &self.keys {
            self.text.clear();
            let _ = write!(self.text, "user-{:016x}", k);
            let h = self.text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            }) | 1;
            let mut i = h as usize & mask;
            while self.table[i] != 0 {
                i = (i + 1) & mask;
                probes += 1;
            }
            self.table[i] = h;
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.rank[0].to_bits() ^ probes ^ self.sorted[N / 2] ^ u64::from(self.at)
    }

    /// Bytes the reference computation keeps resident, to leave out of
    /// the program's peak memory.
    pub fn resident_bytes(&self) -> usize {
        4 * (self.chain.len() + self.targets.len())
            + 8 * (self.keys.len()
                + self.rank.len()
                + self.step.len()
                + self.sorted.capacity()
                + self.table.len())
    }

    /// Runs the reference computation twice and records the time of the
    /// second, warm pass.
    pub fn sample(&mut self) {
        black_box(self.pass());
        let t = Instant::now(); // lint:allow(deterministic-time)
        black_box(self.pass());
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median time of one warm pass, in seconds.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Median time of the latest `k` passes, in seconds: the host's
    /// speed just now.
    pub fn recent_median(&self, k: usize) -> f64 {
        crate::stats::median(&self.samples[self.samples.len().saturating_sub(k)..])
    }

    /// First and third quartile of the pass times, in seconds: how much
    /// the host's speed moved within the run.
    pub fn quartiles(&self) -> (f64, f64) {
        crate::stats::quartiles(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_repeat_across_runs() {
        let mut a = Calibration::with_chain(1 << 16);
        let mut b = Calibration::with_chain(1 << 16);
        assert_eq!(a.pass(), b.pass());
        assert_eq!(a.pass(), b.pass());
        assert!(a.resident_bytes() >= 4 << 16);
        let mut c = Calibration::with_chain(1 << 16);
        c.sample();
        c.sample();
        assert_eq!(c.len(), 2);
        assert!(c.median() > 0.0);
    }

    #[test]
    fn recent_median_looks_at_the_latest_samples() {
        let mut c = Calibration::with_chain(1 << 16);
        c.samples = vec![9.0, 9.0, 1.0, 2.0, 3.0];
        assert_eq!(c.recent_median(3), 2.0);
        assert_eq!(c.recent_median(10), 3.0);
        assert_eq!(c.median(), 3.0);
    }
}
