//! Cross-crate integration: the full platform lifecycle on a simulated
//! world, exercising DB semantics, feeds, reports, and workpads together.

use hive_core::clock::Timestamp;
use hive_core::config::CommonConfig;
use hive_core::discover::{DiscoverConfig, Resource};
use hive_core::history::HistoryQuery;
use hive_core::ids::{CollectionId, PaperId, SessionId, UserId};
use hive_core::model::{QaTarget, WorkpadItem};
use hive_core::peers::PeerRecConfig;
use hive_core::reports::ReportScope;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::{Hive, HiveDb, TickRange};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn simulated_world_supports_every_service_group() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let hive = Hive::new(world.db);
    let users = hive.db().user_ids();
    let u = users[0];

    // Concept map & personalization.
    let ctx = hive.activity_context(u);
    assert!(!ctx.is_empty());
    // Peer network.
    let peers = hive.recommend_peers(u, PeerRecConfig::default());
    assert!(!peers.is_empty());
    for p in &peers {
        assert_ne!(p.user, u);
        assert!(p.score.is_finite());
    }
    // Discovery + preview.
    let hits = hive.search(u, "tensor stream", DiscoverConfig::default());
    assert!(!hits.is_empty());
    // Collaborative filtering.
    let cf = hive.collaborative_recommendations(u, 5);
    assert!(cf.len() <= 5);
    // Community discovery.
    let comms = hive.discover_communities();
    assert!(comms.count() >= 2);
    // Reports.
    let report = hive.update_report(&ReportScope::Platform, Timestamp(0), Timestamp(u64::MAX), 6);
    assert!(report.summary.rows.len() <= 6);
    let covered: usize = report.summary.rows.iter().map(|(_, c)| c).sum();
    assert_eq!(covered, report.total_events);
    // History.
    let hist = hive.search_history(&HistoryQuery::new().limit(10), Some(u));
    assert!(!hist.is_empty());
}

#[test]
fn connection_flow_updates_recommendations_and_feeds() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let mut hive = Hive::new(world.db);
    let u = hive.db().user_ids()[0];
    let recs = hive.recommend_peers(u, PeerRecConfig::default());
    let target = recs[0].user;
    // Connect to the top recommendation; it must vanish from the list.
    hive.request_connection(u, target).expect("fresh pair");
    hive.respond_connection(target, u, true).expect("pending");
    let recs_after = hive.recommend_peers(u, PeerRecConfig::default());
    assert!(
        recs_after.iter().all(|r| r.user != target),
        "connected peers are not re-recommended"
    );
    // Following routes updates (the simulator may already have u follow
    // some peers; pick one not yet followed).
    let already: std::collections::HashSet<_> = hive.db().following(u).into_iter().collect();
    let followee = recs_after
        .iter()
        .map(|r| r.user)
        .find(|v| !already.contains(v))
        .expect("an unfollowed recommendation exists");
    hive.follow(u, followee).expect("not following yet");
    let since = hive.db().now();
    let session = hive.db().session_ids()[0];
    hive.advance_clock(1);
    hive.check_in(followee, session).expect("valid session");
    let updates = hive.updates_for(u, since);
    assert!(
        updates.iter().any(|up| up.actor == followee),
        "followee check-in reaches the feed"
    );
}

#[test]
fn workpad_switch_changes_search_results() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let mut hive = Hive::new(world.db);
    let u = hive.db().user_ids()[0];
    // Two pads seeded from different planted topics.
    let s_a = world.session_topics.iter().find(|(_, t)| *t == 0).map(|(s, _)| *s).unwrap();
    let s_b = world.session_topics.iter().find(|(_, t)| *t == 1).map(|(s, _)| *s).unwrap();
    let pad_a = hive.create_workpad(u, "a").unwrap();
    hive.workpad_add(u, pad_a, WorkpadItem::Session(s_a)).unwrap();
    let pad_b = hive.create_workpad(u, "b").unwrap();
    hive.workpad_add(u, pad_b, WorkpadItem::Session(s_b)).unwrap();
    let cfg = DiscoverConfig { include_users: false, ..Default::default() };
    hive.activate_workpad(u, pad_a).unwrap();
    let top_a: Vec<String> = hive.search(u, "", cfg).into_iter().map(|h| h.resource.iri()).collect();
    hive.activate_workpad(u, pad_b).unwrap();
    let top_b: Vec<String> = hive.search(u, "", cfg).into_iter().map(|h| h.resource.iri()).collect();
    assert_ne!(top_a, top_b, "different contexts must rank differently");
    assert!(top_a.contains(&s_a.iri()) || !top_a.is_empty());
}

#[test]
fn collections_move_context_between_users() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let mut hive = Hive::new(world.db);
    let users = hive.db().user_ids();
    let (ann, zach) = (users[1], users[0]);
    let paper = hive.db().paper_ids()[0];
    let pad = hive.create_workpad(ann, "reading list").unwrap();
    hive.workpad_add(ann, pad, WorkpadItem::Paper(paper)).unwrap();
    let col = hive.export_workpad(ann, pad).unwrap();
    let imported = hive.import_collection(zach, col).unwrap();
    assert_eq!(hive.db().active_workpad_of(zach), Some(imported));
    let ctx = hive.activity_context(zach);
    assert!(
        ctx.seeds.contains_key(&paper.iri()),
        "imported collection seeds the context"
    );
}

#[test]
fn qa_broadcast_reaches_the_session_ticker() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let mut hive = Hive::new(world.db);
    let users = hive.db().user_ids();
    let pres = hive.db().presentation_ids()[0];
    let session = hive.db().get_presentation(pres).unwrap().session;
    let since = hive.db().now();
    hive.advance_clock(1);
    let q = hive
        .ask_question(users[2], QaTarget::Presentation(pres), "why this decay?", true)
        .unwrap();
    hive.answer_question(users[3], q, "it bounds the neighborhood").unwrap();
    let ticker = hive.session_ticker(session, since);
    assert!(ticker.iter().any(|l| l.contains("why this decay?")));
    assert!(ticker.iter().any(|l| l.contains("[twitter]")), "broadcast mirrored");
    assert!(ticker.iter().any(|l| l.contains("bounds the neighborhood")));
}

#[test]
fn trends_and_highlights_follow_live_activity() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let mut hive = Hive::new(world.db);
    let users = hive.db().user_ids();
    let session = hive.db().session_ids()[0];
    let since = hive.db().now();
    hive.advance_clock(1);
    // A burst of activity on one session makes it trend.
    for &u in users.iter().take(6) {
        hive.check_in(u, session).expect("valid");
    }
    let q = hive
        .ask_question(users[1], QaTarget::Session(session), "trending question?", true)
        .expect("valid");
    hive.answer_question(users[2], q, "indeed").expect("valid");
    let trending = hive.trending_sessions(since, Timestamp(u64::MAX), 3);
    assert_eq!(trending[0].0, session, "the busy session trends: {trending:?}");
    // Highlights surface the burst for a follower.
    hive.follow(users[9], users[1]).ok();
    let hl = hive.highlights(users[9], since, 5);
    assert!(!hl.is_empty(), "follower sees highlights");
}

#[test]
fn platform_snapshot_survives_service_usage() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let hive = Hive::new(world.db);
    let json = hive.db().to_json().expect("serializes");
    let restored = hive_core::HiveDb::from_json(&json).expect("restores");
    let hive2 = Hive::new(restored);
    let u = hive2.db().user_ids()[0];
    // The restored platform answers services identically to the original.
    let a: Vec<_> = hive
        .recommend_peers(u, PeerRecConfig::default())
        .into_iter()
        .map(|r| r.user)
        .collect();
    let b: Vec<_> = hive2
        .recommend_peers(u, PeerRecConfig::default())
        .into_iter()
        .map(|r| r.user)
        .collect();
    assert_eq!(a, b, "restored platform recommends identically");
}

/// Runs every read service on `hive` with degenerate inputs: unknown
/// ids, result counts of 0, empty queries, a zero-width timeline, a
/// zero-row report, inverted time windows and empty concept-bootstrap
/// input. No probe may panic. A probe that asks for nothing (a count of
/// 0, an empty window, an unknown entity) must get an empty result or a
/// typed error; the others only have to answer. An empty query and an
/// empty actor list mean "no filter" and a history `limit` of 0 means
/// "no limit", so those answers may be non-empty. Returns the labels of
/// the probes that failed, and the number of probes run.
fn degenerate_probe_failures(hive: &Hive) -> (Vec<String>, usize) {
    let ghost = UserId(1 << 20);
    let mut users = vec![ghost];
    users.extend(hive.db().user_ids().first());
    let (t0, t1, never) = (Timestamp(0), Timestamp(10), Timestamp(u64::MAX));
    let zero_k = CommonConfig { top_k: 0, ..PeerRecConfig::default().common };
    let zero_hits = CommonConfig { top_k: 0, ..DiscoverConfig::default().common };
    let no_pool = PeerRecConfig { candidate_pool: 0, ..PeerRecConfig::default() };
    let mut failures = Vec::new();
    let mut probes = 0usize;
    let mut probe = |label: String, f: &dyn Fn() -> bool| {
        probes += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(true) => {}
            Ok(false) => failures.push(format!("{label}: not empty")),
            Err(_) => failures.push(format!("{label}: panicked")),
        }
    };
    for &u in &users {
        let known = u != ghost;
        probe(format!("activity_context({u})"), &|| {
            let ctx = hive.activity_context(u);
            known || (ctx.vector.is_empty() && ctx.terms.is_empty())
        });
        probe(format!("recommend_peers({u}, top_k 0)"), &|| {
            hive.recommend_peers(u, PeerRecConfig { common: zero_k, ..PeerRecConfig::default() })
                .is_empty()
        });
        probe(format!("recommend_peers({u})"), &|| {
            known || hive.recommend_peers(u, PeerRecConfig::default()).is_empty()
        });
        probe(format!("recommend_peers({u}, candidate_pool 0)"), &|| {
            let recs = hive.recommend_peers(u, no_pool);
            if known {
                recs.len() <= no_pool.common.top_k
            } else {
                recs.is_empty()
            }
        });
        probe(format!("similar_peers({u}, 0)"), &|| hive.similar_peers(u, 0).is_empty());
        probe(format!("similar_peers({u}, 5)"), &|| known || hive.similar_peers(u, 5).is_empty());
        probe(format!("predict_sessions({u}, 0)"), &|| hive.predict_sessions(u, 0).is_empty());
        for query in ["", "   ", "tensor"] {
            probe(format!("search({u}, {query:?}, top_k 0)"), &|| {
                hive.search(
                    u,
                    query,
                    DiscoverConfig { common: zero_hits, ..DiscoverConfig::default() },
                )
                .is_empty()
            });
        }
        for query in ["", "   ", "!!! ???"] {
            probe(format!("search({u}, {query:?})"), &|| {
                hive.search(u, query, DiscoverConfig::default()).len()
                    <= DiscoverConfig::default().common.top_k
            });
        }
        probe(format!("recommend_resources({u}, top_k 0)"), &|| {
            hive.recommend_resources(
                u,
                DiscoverConfig { common: zero_hits, ..DiscoverConfig::default() },
            )
            .is_empty()
        });
        probe(format!("recommend_resources({u})"), &|| {
            let _ = hive.recommend_resources(u, DiscoverConfig::default());
            true
        });
        probe(format!("collaborative_recommendations({u}, 0)"), &|| {
            hive.collaborative_recommendations(u, 0).is_empty()
        });
        probe(format!("explain_relationship({u}, {ghost})"), &|| {
            let e = hive.explain_relationship(u, ghost);
            e.items.is_empty() && e.paths.is_empty()
        });
        probe(format!("summarize_resource({u}, unknown paper)"), &|| {
            hive.summarize_resource(u, Resource::Paper(PaperId(1 << 20)), 3).is_none()
        });
        probe(format!("summarize_resource({u}, unknown user)"), &|| {
            hive.summarize_resource(u, Resource::User(ghost), 3).is_none()
        });
        probe(format!("updates_for({u}, never)"), &|| hive.updates_for(u, never).is_empty());
        probe(format!("highlights({u}, 0)"), &|| hive.highlights(u, t0, 0).is_empty());
        probe(format!("highlights({u}, never)"), &|| hive.highlights(u, never, 5).is_empty());
        probe(format!("digest({u}, never)"), &|| {
            let d = hive.digest(u, never);
            d.updates.is_empty() && d.counts.is_empty()
        });
        probe(format!("search_history(limit 0, {u})"), &|| {
            let _ = hive.search_history(&HistoryQuery::new().limit(0), Some(u));
            true
        });
        probe(format!("search_history(inverted window, {u})"), &|| {
            let q = HistoryQuery::new().within(TickRange::between(t1, t0));
            hive.search_history(&q, Some(u)).is_empty()
        });
        probe(format!("search_history(empty needle, {u})"), &|| {
            let _ = hive.search_history(&HistoryQuery::new().matching(""), Some(u));
            true
        });
        probe(format!("timeline([{u}], 0)"), &|| hive.timeline(&[u], 0).is_empty());
        probe(format!("update_report(network {u}, 0 rows)"), &|| {
            hive.update_report(&ReportScope::Network(u), t0, never, 0).summary.rows.is_empty()
        });
        probe(format!("update_report(network {u}, inverted)"), &|| {
            hive.update_report(&ReportScope::Network(u), t1, t0, 6).total_events == 0
        });
    }
    probe("search_history(unknown actor)".into(), &|| {
        hive.search_history(&HistoryQuery::new().with_actors(vec![ghost]), None).is_empty()
    });
    probe("timeline([], 0)".into(), &|| hive.timeline(&[], 0).is_empty());
    probe("timeline([ghost], 1)".into(), &|| hive.timeline(&[ghost], 1).is_empty());
    probe("update_report(platform, 0 rows)".into(), &|| {
        hive.update_report(&ReportScope::Platform, t0, never, 0).summary.rows.is_empty()
    });
    probe("update_report(platform, inverted)".into(), &|| {
        hive.update_report(&ReportScope::Platform, never, t0, 6).total_events == 0
    });
    probe("update_report(empty group)".into(), &|| {
        hive.update_report(&ReportScope::Group(Vec::new()), t0, never, 6).total_events == 0
    });
    probe("trending_sessions(inverted)".into(), &|| hive.trending_sessions(t1, t0, 5).is_empty());
    probe("trending_sessions(k 0)".into(), &|| hive.trending_sessions(t0, never, 0).is_empty());
    probe("rising_topics(inverted, k 0)".into(), &|| {
        hive.rising_topics((t1, t0), (t1, t0), 0).is_empty()
    });
    probe("rising_topics(inverted)".into(), &|| {
        hive.rising_topics((t1, t0), (never, t0), 5).is_empty()
    });
    probe("session_ticker(unknown)".into(), &|| {
        hive.session_ticker(SessionId(1 << 20), t0).is_empty()
    });
    probe("export_collection_json(unknown)".into(), &|| {
        hive.export_collection_json(CollectionId(1 << 20)).is_err()
    });
    probe("bootstrap_concepts(no documents)".into(), &|| {
        hive.bootstrap_concepts("empty", &[]).concept_count() == 0
    });
    probe("bootstrap_concepts(empty documents)".into(), &|| {
        hive.bootstrap_concepts("", &["", "   "]).concept_count() == 0
    });
    probe("discover_communities".into(), &|| {
        let _ = hive.discover_communities();
        true
    });
    (failures, probes)
}

#[test]
fn degenerate_inputs_get_empty_results_or_typed_errors() {
    let empty = Hive::new(HiveDb::new());
    let world = Hive::new(WorldBuilder::new(SimConfig::small()).build().db);
    let (mut failures, mut probes) = degenerate_probe_failures(&empty);
    let (more, n) = degenerate_probe_failures(&world);
    failures.extend(more);
    probes += n;
    assert!(
        failures.is_empty(),
        "{} of {probes} probes failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
