//! In-process deterministic transport with seeded fault injection.
//!
//! One transport models the channel from the leader to a single
//! follower: frames go in as wire strings, and a drain hands out what
//! "arrived". Faults — drop, duplicate, reorder, truncate — fire from a
//! forked [`hive_rng::Rng`], so a seed reproduces the exact same fault
//! schedule every run; there is no wall-clock or scheduler anywhere in
//! the path (lint R3/R6 hold trivially).
//!
//! Fault decisions draw from the rng in a fixed order per send
//! (drop, truncate, duplicate, reorder) regardless of probabilities, so
//! changing one probability never shifts the schedule of the others.

use std::collections::VecDeque;

use hive_rng::Rng;

/// Per-send fault probabilities. All zero means a perfect channel.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Probability the frame is silently lost.
    pub drop_p: f64,
    /// Probability the frame arrives twice.
    pub dup_p: f64,
    /// Probability the frame is swapped with the previously queued one.
    pub reorder_p: f64,
    /// Probability the frame loses its tail bytes.
    pub truncate_p: f64,
}

impl FaultPlan {
    /// A perfect channel.
    pub fn none() -> FaultPlan {
        FaultPlan { drop_p: 0.0, dup_p: 0.0, reorder_p: 0.0, truncate_p: 0.0 }
    }

    /// Every fault armed at probability `p`.
    pub fn all(p: f64) -> FaultPlan {
        FaultPlan { drop_p: p, dup_p: p, reorder_p: p, truncate_p: p }
    }

    /// Only frame drops, at probability `p`.
    pub fn drops(p: f64) -> FaultPlan {
        FaultPlan { drop_p: p, ..FaultPlan::none() }
    }

    /// Only duplicated frames, at probability `p`.
    pub fn dups(p: f64) -> FaultPlan {
        FaultPlan { dup_p: p, ..FaultPlan::none() }
    }

    /// Only adjacent reorders, at probability `p`.
    pub fn reorders(p: f64) -> FaultPlan {
        FaultPlan { reorder_p: p, ..FaultPlan::none() }
    }

    /// Only truncated frames, at probability `p`.
    pub fn truncates(p: f64) -> FaultPlan {
        FaultPlan { truncate_p: p, ..FaultPlan::none() }
    }

    /// True when no fault can ever fire.
    pub fn is_clean(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.reorder_p <= 0.0 && self.truncate_p <= 0.0
    }
}

/// What the channel did, cumulatively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames offered by the sender.
    pub sent: u64,
    /// Frames handed to the receiver (incl. duplicates and damage).
    pub delivered: u64,
    /// Frames silently lost.
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Adjacent swaps performed.
    pub reordered: u64,
    /// Frames that lost their tail.
    pub truncated: u64,
}

/// The leader→follower channel for one follower.
#[derive(Debug)]
pub struct Transport {
    rng: Rng,
    plan: FaultPlan,
    queue: VecDeque<String>,
    stats: TransportStats,
}

impl Transport {
    /// A channel with its own fault stream seeded from `seed`.
    pub fn new(seed: u64, plan: FaultPlan) -> Transport {
        Transport {
            rng: Rng::seed_from_u64(seed),
            plan,
            queue: VecDeque::new(),
            stats: TransportStats::default(),
        }
    }

    /// Cumulative channel statistics.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Drops everything currently in flight (a crashed receiver loses
    /// whatever had not been drained).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Offers one wire frame to the channel, applying the fault plan.
    pub fn send(&mut self, wire: &str) {
        self.stats.sent += 1;
        // Fixed draw order: drop, truncate, duplicate, reorder.
        let drop = self.rng.gen_bool(self.plan.drop_p);
        let truncate = self.rng.gen_bool(self.plan.truncate_p);
        let dup = self.rng.gen_bool(self.plan.dup_p);
        let reorder = self.rng.gen_bool(self.plan.reorder_p);
        if drop {
            self.stats.dropped += 1;
            hive_obs::count("replica.transport.drop", 1);
            return;
        }
        let mut delivered = wire.to_string();
        if truncate && !delivered.is_empty() {
            let mut cut = self.rng.gen_range(0..delivered.len());
            while !delivered.is_char_boundary(cut) {
                cut -= 1;
            }
            delivered.truncate(cut);
            self.stats.truncated += 1;
            hive_obs::count("replica.transport.truncate", 1);
        }
        if dup {
            self.queue.push_back(delivered.clone());
            self.stats.duplicated += 1;
            hive_obs::count("replica.transport.dup", 1);
        }
        self.queue.push_back(delivered);
        if reorder && self.queue.len() >= 2 {
            let last = self.queue.len() - 1;
            self.queue.swap(last, last - 1);
            self.stats.reordered += 1;
            hive_obs::count("replica.transport.reorder", 1);
        }
    }

    /// Takes everything that has arrived, in delivery order.
    pub fn drain(&mut self) -> Vec<String> {
        let out: Vec<String> = self.queue.drain(..).collect();
        self.stats.delivered += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("frame-{i}")).collect()
    }

    #[test]
    fn clean_channel_is_fifo_and_lossless() {
        let mut t = Transport::new(1, FaultPlan::none());
        for f in frames(5) {
            t.send(&f);
        }
        assert_eq!(t.drain(), frames(5));
        assert_eq!(t.stats().dropped + t.stats().duplicated + t.stats().truncated, 0);
    }

    #[test]
    fn fault_schedule_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let mut t = Transport::new(seed, FaultPlan::all(0.3));
            for f in frames(40) {
                t.send(&f);
            }
            (t.drain(), t.stats())
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7).0, run(8).0, "different seed, different schedule");
    }

    #[test]
    fn each_fault_kind_fires_alone() {
        let cases: [(FaultPlan, fn(&TransportStats) -> u64); 4] = [
            (FaultPlan::drops(0.5), |s| s.dropped),
            (FaultPlan::dups(0.5), |s| s.duplicated),
            (FaultPlan::reorders(0.5), |s| s.reordered),
            (FaultPlan::truncates(0.5), |s| s.truncated),
        ];
        for (plan, pick) in cases {
            let mut t = Transport::new(11, plan);
            for f in frames(60) {
                t.send(&f);
            }
            let stats = t.stats();
            assert!(pick(&stats) > 0, "{plan:?} never fired");
            let others = stats.dropped + stats.duplicated + stats.reordered + stats.truncated;
            assert_eq!(others, pick(&stats), "{plan:?} fired a different fault");
        }
    }

    #[test]
    fn crash_clears_in_flight_frames() {
        let mut t = Transport::new(3, FaultPlan::none());
        t.send("a");
        t.send("b");
        assert_eq!(t.in_flight(), 2);
        t.clear();
        assert!(t.drain().is_empty());
    }
}
