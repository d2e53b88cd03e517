//! The three workloads: world size, write mix, read mix, and schedule.
//!
//! The world is the simulator preset with its own fixed seed: the
//! dataset the traffic runs against. `--seed` drives the traffic —
//! writes from `seed`, reads from `seed + 1` — so a seed fixes the whole
//! op sequence and the parent commit and a change do identical work. A
//! world per seed would make every metric depend on the world's shape
//! as well: on `ingest_large` it moved `read_p99_us` by 30% between
//! seeds, repeatably.

use hive_core::clock::Timestamp;
use hive_core::ids::UserId;
use hive_core::model::QaTarget;
use hive_core::sim::{topic_phrase, topic_question, SimConfig};
use hive_core::Hive;
use hive_replica::ops::{
    AnswerQuestionOp, AskQuestionOp, CheckInOp, CommentOp, FollowOp, PostTweetOp, ViewPaperOp,
};
use hive_replica::ReplOp;
use hive_rng::{Rng, SliceRandom};

/// Frames between full-snapshot checkpoints, on every workload.
pub const CHECKPOINT_EVERY: u64 = 32;

/// Width of the "since your last visit" window the feed, history,
/// report and trend reads ask about, in clock ticks (a write step
/// advances the clock by 1-3 ticks).
pub const FEED_WINDOW: u64 = 256;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Read-heavy browsing over neutral engagement writes.
    Browse,
    /// Graph-touching writes that clear the PPR memo every commit.
    CheckinStorm,
    /// The full write mix on the large world, structural deltas included.
    IngestLarge,
}

/// Every workload, in the order the all-workloads mode interleaves them.
pub const ALL: [Kind; 3] = [Kind::Browse, Kind::CheckinStorm, Kind::IngestLarge];

impl Kind {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Browse => "browse",
            Kind::CheckinStorm => "checkin_storm",
            Kind::IngestLarge => "ingest_large",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The schedule of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The generated world.
    pub world: SimConfig,
    /// Write steps between commits; each step is a clock advance plus
    /// one mutation.
    pub steps_per_commit: usize,
    /// Reads after each commit.
    pub reads_per_commit: usize,
    /// Commits in the measured phase.
    pub commits: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Read users drawn Zipf(s = 1) instead of uniformly.
    pub zipf_reads: bool,
}

/// Commits per second of `--seconds`, calibrated so one run measures
/// about `--seconds` at the commit that introduced the benchmark (2-core
/// 2.0 GHz Xeon host, shared, in one of its slower stretches; a quiet
/// stretch is up to 1.6x faster). The count is a pure function of
/// `--seconds`, never of elapsed time, so a faster change does the same
/// work in less time.
fn commits_per_second(kind: Kind) -> f64 {
    match kind {
        Kind::Browse => 14.0,
        Kind::CheckinStorm => 68.0,
        Kind::IngestLarge => 2.5,
    }
}

/// Fewest commits a full run makes whatever `--seconds` says: at least
/// 100 commits (so `commit_p90_us` has ten samples beyond it) and 2 000
/// reads (so `read_p99_us` has twenty). `ingest_large` sits on this floor
/// up to 40 s.
fn min_commits(reads_per_commit: usize) -> usize {
    100.max(2000_usize.div_ceil(reads_per_commit))
}

/// The schedule for `kind`, sized for `seconds` of measured work.
/// `smoke` shrinks the world to [`SimConfig::small`], the commit count
/// to a fiftieth and the set-ups to one, for the test suite.
pub fn spec(kind: Kind, seconds: u64, smoke: bool) -> Spec {
    // A medium-world set-up takes a third of a second and varies more
    // than a large one, so it is repeated more often.
    let (world, setups, steps_per_commit, reads_per_commit, zipf_reads) = match kind {
        // Half the 8-step, 256-read commit the read:write ratio was set
        // with: the same traffic in twice the commits, so the commit
        // tail rests on 200 samples instead of 100.
        Kind::Browse => (SimConfig::medium(), 5, 4, 128, true),
        Kind::CheckinStorm => (SimConfig::medium(), 5, 2, 4, false),
        Kind::IngestLarge => (SimConfig::large(), 3, 2, 20, false),
    };
    let full = ((commits_per_second(kind) * seconds as f64).round() as usize)
        .max(min_commits(reads_per_commit));
    let (world, commits, setups) = if smoke {
        (SimConfig::small(), full.div_ceil(50), 1)
    } else {
        (world, full, setups)
    };
    Spec {
        world,
        steps_per_commit,
        reads_per_commit,
        commits,
        setups,
        zipf_reads,
    }
}

fn pick_user(hive: &Hive, rng: &mut Rng) -> Option<UserId> {
    hive.db().user_ids().choose(rng).copied()
}

fn session_target(hive: &Hive, rng: &mut Rng) -> Option<QaTarget> {
    hive.db()
        .session_ids()
        .choose(rng)
        .map(|&s| QaTarget::Session(s))
}

fn text(rng: &mut Rng) -> String {
    let topic = rng.gen_range(0..4);
    topic_phrase(topic, rng)
}

/// `browse` writes: engagement that journals only `Neutral` deltas, so
/// the kn CSR and the PPR memo stay valid across commits.
fn browse_op(hive: &Hive, rng: &mut Rng) -> Option<ReplOp> {
    let roll = rng.gen_range(0..100u32);
    let author = pick_user(hive, rng)?;
    if roll < 40 {
        let target = session_target(hive, rng)?;
        Some(ReplOp::Comment(CommentOp {
            author,
            target,
            text: text(rng),
        }))
    } else if roll < 70 {
        let session = *hive.db().session_ids().choose(rng)?;
        Some(ReplOp::PostTweet(PostTweetOp {
            author: Some(author),
            handle: "@bench".to_string(),
            text: text(rng),
            session,
        }))
    } else {
        let question = *hive.db().question_ids().choose(rng)?;
        Some(ReplOp::AnswerQuestion(AnswerQuestionOp {
            author,
            question,
            text: text(rng),
        }))
    }
}

/// `checkin_storm` writes: every one adds a graph edge, none creates an
/// entity, so every commit patches the tiers and clears the PPR memo.
fn checkin_op(hive: &Hive, rng: &mut Rng) -> Option<ReplOp> {
    let roll = rng.gen_range(0..100u32);
    let user = pick_user(hive, rng)?;
    if roll < 40 {
        let session = *hive.db().session_ids().choose(rng)?;
        Some(ReplOp::CheckIn(CheckInOp { user, session }))
    } else if roll < 70 {
        let paper = *hive.db().paper_ids().choose(rng)?;
        Some(ReplOp::ViewPaper(ViewPaperOp { user, paper }))
    } else if roll < 85 {
        let target = session_target(hive, rng)?;
        let topic = rng.gen_range(0..4);
        Some(ReplOp::AskQuestion(AskQuestionOp {
            author: user,
            target,
            text: topic_question(topic, rng),
            broadcast: false,
        }))
    } else {
        let followee = pick_user(hive, rng).filter(|&v| v != user)?;
        Some(ReplOp::Follow(FollowOp {
            follower: user,
            followee,
        }))
    }
}

/// Every this many `ingest_large` steps, one is structural.
const STRUCTURAL_EVERY: usize = 16;

/// `ingest_large` writes: the full `synth::step_ops` mix, whose
/// structural draws (add user, add paper) are placed on a fixed cadence
/// instead of left to chance. A rebuild costs a hundred patches, so a
/// random count of them would make every commit-path metric depend on
/// the seed; this way each seed rebuilds exactly once per eight commits.
/// That is 12 rebuilds in 100 commits, which with the checkpoints puts
/// `commit_p90_us` among the rebuilds while keeping them, three replicas
/// each, within the run's time.
fn ingest_ops(hive: &Hive, step_no: usize, rng: &mut Rng) -> Vec<ReplOp> {
    let structural = step_no % STRUCTURAL_EVERY == STRUCTURAL_EVERY - 1;
    let mut ops = hive_replica::synth::step_ops(hive, step_no, rng);
    // One draw in ten is structural, so a few dozen redraws suffice.
    for _ in 0..1000 {
        if ops
            .iter()
            .any(|op| matches!(op, ReplOp::AddUser(_) | ReplOp::AddPaper(_)))
            == structural
        {
            break;
        }
        ops = hive_replica::synth::step_ops(hive, step_no, rng);
    }
    ops
}

/// The ops of write step `step_no`: a clock advance and one mutation.
pub fn step_ops(kind: Kind, hive: &Hive, step_no: usize, rng: &mut Rng) -> Vec<ReplOp> {
    match kind {
        Kind::IngestLarge => ingest_ops(hive, step_no, rng),
        Kind::Browse | Kind::CheckinStorm => {
            let mut ops = vec![ReplOp::AdvanceClock(rng.gen_range(1..4u64))];
            let op = if kind == Kind::Browse {
                browse_op(hive, rng)
            } else {
                checkin_op(hive, rng)
            };
            ops.extend(op);
            ops
        }
    }
}

/// A Table-1 read service in the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Service {
    Search,
    RecommendPeers,
    RecommendResources,
    SimilarPeers,
    ExplainRelationship,
    ActivityContext,
    Digest,
    Highlights,
    UpdatesFor,
    SearchHistory,
    UpdateReport,
    TrendingSessions,
}

/// The read mix, in percent; the same on every workload.
pub const MIX: [(Service, u32); 12] = [
    (Service::Search, 20),
    (Service::RecommendPeers, 10),
    (Service::RecommendResources, 10),
    (Service::SimilarPeers, 10),
    (Service::ExplainRelationship, 5),
    (Service::ActivityContext, 10),
    (Service::Digest, 8),
    (Service::Highlights, 12),
    (Service::UpdatesFor, 8),
    (Service::SearchHistory, 3),
    (Service::UpdateReport, 2),
    (Service::TrendingSessions, 2),
];

impl Service {
    /// Name used in `read.<name>.*` metrics.
    pub fn name(self) -> &'static str {
        match self {
            Service::Search => "search",
            Service::RecommendPeers => "recommend_peers",
            Service::RecommendResources => "recommend_resources",
            Service::SimilarPeers => "similar_peers",
            Service::ExplainRelationship => "explain_relationship",
            Service::ActivityContext => "activity_context",
            Service::Digest => "digest",
            Service::Highlights => "highlights",
            Service::UpdatesFor => "updates_for",
            Service::SearchHistory => "search_history",
            Service::UpdateReport => "update_report",
            Service::TrendingSessions => "trending_sessions",
        }
    }

    /// Position in [`MIX`].
    pub fn index(self) -> usize {
        MIX.iter().position(|&(s, _)| s == self).unwrap_or(0)
    }

    /// True for the services that resolve PPR through the memo.
    pub fn uses_ppr(self) -> bool {
        matches!(
            self,
            Service::Search | Service::RecommendPeers | Service::RecommendResources
        )
    }
}

/// One generated read request.
#[derive(Clone, Debug)]
pub struct Read {
    /// The service asked.
    pub service: Service,
    /// The reading user.
    pub user: UserId,
    /// A second user, for relationship explanations.
    pub other: UserId,
    /// The search query.
    pub query: String,
    /// Start of the feed/report window.
    pub since: Timestamp,
}

/// Draws read requests: the service from a shuffled deck holding
/// [`MIX`] exactly, the user uniformly or Zipf(s = 1) over a seeded
/// ranking of the users.
///
/// The deck makes every hundred reads carry the mix's exact counts. Read
/// costs are far apart (a PPR-backed read costs 30x a feed read), so
/// `read_p50_us` sits where the cheap services end; drawing each service
/// independently would move that edge, and the median with it, from seed
/// to seed.
pub struct ReadGen {
    rng: Rng,
    deck: Vec<Service>,
    zipf: bool,
    topics: usize,
    /// Users in popularity order, with the cumulative Zipf weights.
    ranked: Vec<UserId>,
    cdf: Vec<f64>,
}

impl ReadGen {
    /// A generator over the users of `hive` at boot.
    pub fn new(spec: &Spec, hive: &Hive, seed: u64) -> ReadGen {
        let mut rng = Rng::seed_from_u64(seed);
        let mut ranked = hive.db().user_ids();
        ranked.shuffle(&mut rng);
        let mut total = 0.0;
        let cdf = (1..=ranked.len())
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        ReadGen {
            rng,
            deck: Vec::new(),
            zipf: spec.zipf_reads,
            topics: spec.world.topics,
            ranked,
            cdf,
        }
    }

    fn user(&mut self, hive: &Hive) -> UserId {
        if self.zipf {
            let x = self.rng.gen_f64() * self.cdf.last().copied().unwrap_or(0.0);
            let r = self.cdf.partition_point(|&c| c <= x);
            self.ranked[r.min(self.ranked.len() - 1)]
        } else {
            let users = hive.db().user_ids();
            users[self.rng.gen_range(0..users.len())]
        }
    }

    /// The next read against the state of `hive`.
    pub fn next(&mut self, hive: &Hive) -> Read {
        if self.deck.is_empty() {
            self.deck = MIX
                .iter()
                .flat_map(|&(s, w)| std::iter::repeat_n(s, w as usize))
                .collect();
            self.deck.shuffle(&mut self.rng);
        }
        let service = self.deck.pop().unwrap_or(Service::Search);
        let user = self.user(hive);
        let mut other = self.user(hive);
        if other == user {
            let users = hive.db().user_ids();
            other = users[(users.iter().position(|&u| u == user).unwrap_or(0) + 1) % users.len()];
        }
        let topic = self.rng.gen_range(0..self.topics.max(1));
        let query = topic_phrase(topic, &mut self.rng);
        let since = Timestamp(hive.db().now().0.saturating_sub(FEED_WINDOW));
        Read {
            service,
            user,
            other,
            query,
            since,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sums_to_one_hundred() {
        assert_eq!(MIX.iter().map(|&(_, w)| w).sum::<u32>(), 100);
        for (i, &(s, _)) in MIX.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn full_runs_keep_the_tails_supported() {
        for kind in ALL {
            let s = spec(kind, 1, false);
            assert!(
                s.commits >= 100,
                "{}: commit_p90 needs 100 commits",
                kind.name()
            );
            assert!(
                s.commits * s.reads_per_commit >= 2000,
                "{}: read_p99 needs 2000 reads",
                kind.name()
            );
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
    }
}
