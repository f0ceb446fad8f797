//! Golden present transcript (`fixtures/present_transcript_v1.json`): the
//! absolute outputs of fixed-seed engine sessions, pinned bit for bit.
//!
//! Replay equality and the shadow-store comparisons run the same code twice,
//! so a change that alters every present consistently passes them.  This
//! fixture does not: it records what six sessions — Exp, Tkp and Mpo, each at
//! φ 2 and φ 3 — show over six present → click rounds, and the scores of
//! their final recommendation as exact `f64` bits.  A change that is meant to
//! alter results regenerates it and says so; any other change must leave it
//! byte-identical.
//!
//! Regenerate with
//! `UPDATE_SNAPSHOT_FIXTURE=1 cargo test -p pkgrec-integration-tests golden`.

use pkgrec_core::prelude::*;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

const GOLDEN_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/present_transcript_v1.json"
);

const ROUNDS: usize = 6;

/// One session's recorded outputs.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct SessionTranscript {
    semantics: String,
    max_package_size: usize,
    seed: u64,
    /// Per round, the shown packages (item ids) and the clicked index.
    rounds: Vec<RoundTranscript>,
    /// The final recommendation, best first.
    recommend: Vec<RankedTranscript>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct RoundTranscript {
    shown: Vec<Vec<usize>>,
    clicked: usize,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct RankedTranscript {
    items: Vec<usize>,
    /// `f64::to_bits` of the semantics-specific score, in hex.
    score_bits: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Transcript {
    version: u32,
    sessions: Vec<SessionTranscript>,
}

/// A 14-item, two-feature catalog from a fixed formula (no RNG, so the
/// fixture does not depend on a generator's algorithm).
fn catalog() -> Catalog {
    let rows = (0..14u32)
        .map(|i| {
            vec![
                0.05 + f64::from((i * 37 + 11) % 97) / 100.0,
                0.05 + f64::from((i * 53 + 29) % 89) / 95.0,
            ]
        })
        .collect();
    Catalog::from_rows(rows).unwrap()
}

/// The click the fixed hidden utility makes: the shown package it values
/// most (the lowest index among exact ties).
fn click(user: &LinearUtility, catalog: &Catalog, shown: &[Package]) -> usize {
    let mut best = 0;
    let mut best_value = f64::NEG_INFINITY;
    for (index, package) in shown.iter().enumerate() {
        let value = user.of_package(catalog, package).unwrap();
        if value > best_value {
            best = index;
            best_value = value;
        }
    }
    best
}

fn run_session(
    semantics: RankingSemantics,
    max_package_size: usize,
    seed: u64,
) -> SessionTranscript {
    let catalog = catalog();
    let profile = Profile::cost_quality();
    let mut engine = RecommenderEngine::builder(catalog.clone(), profile.clone())
        .max_package_size(max_package_size)
        .k(3)
        .num_random(3)
        .num_samples(40)
        .semantics(semantics)
        .build()
        .unwrap();
    let context = AggregationContext::new(profile, &catalog, max_package_size).unwrap();
    let user = LinearUtility::new(context, vec![-0.6, 0.8]).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let shown = engine.present(&mut rng).unwrap();
        let clicked = click(&user, &catalog, &shown);
        engine
            .record_feedback(&shown, Feedback::Click { index: clicked }, &mut rng)
            .unwrap();
        rounds.push(RoundTranscript {
            shown: shown.iter().map(|p| p.items().to_vec()).collect(),
            clicked,
        });
    }
    let recommend = engine
        .recommend(&mut rng)
        .unwrap()
        .into_iter()
        .map(|ranked| RankedTranscript {
            items: ranked.package.items().to_vec(),
            score_bits: format!("{:016x}", ranked.score.to_bits()),
        })
        .collect();
    SessionTranscript {
        semantics: semantics.label(),
        max_package_size,
        seed,
        rounds,
        recommend,
    }
}

fn transcript() -> Transcript {
    let mut sessions = Vec::new();
    for (s, semantics) in [
        RankingSemantics::Exp,
        RankingSemantics::Tkp { sigma: 3 },
        RankingSemantics::Mpo,
    ]
    .into_iter()
    .enumerate()
    {
        for max_package_size in [2, 3] {
            let seed = 20_141_000 + 10 * s as u64 + max_package_size as u64;
            sessions.push(run_session(semantics, max_package_size, seed));
        }
    }
    Transcript {
        version: 1,
        sessions,
    }
}

/// Today's engine must reproduce the checked-in transcript exactly.
#[test]
fn golden_present_transcript_is_reproduced_bit_for_bit() {
    let now = transcript();
    if std::env::var_os("UPDATE_SNAPSHOT_FIXTURE").is_some() {
        let json = serde_json::to_string_pretty(&now).unwrap();
        std::fs::write(GOLDEN_FIXTURE, json + "\n").unwrap();
    }
    let json = std::fs::read_to_string(GOLDEN_FIXTURE)
        .expect("golden fixture exists (regenerate with UPDATE_SNAPSHOT_FIXTURE=1)");
    let pinned: Transcript = serde_json::from_str(&json).expect("fixture parses");
    assert_eq!(pinned.sessions.len(), 6);
    for (got, want) in now.sessions.iter().zip(&pinned.sessions) {
        assert_eq!(
            got, want,
            "{} at φ {} drifted from the golden transcript",
            want.semantics, want.max_package_size
        );
    }
    assert_eq!(now, pinned);
}
