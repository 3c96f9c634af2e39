//! Integration test for the cold-start scenario (E6b): predicting the
//! geography of videos uploaded *after* the knowledge-base crawl.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::missing_panics_doc,
    missing_docs
)]

use tagdist::experiments::{cold_start, ColdStart};
use tagdist::{Study, StudyConfig};

/// Videos in the knowledge-base world; the platform then grows by a
/// tenth.
const BASE: usize = 2_500;

/// The report's E6b computation on a tiny world, run once per binary.
fn shared() -> &'static ColdStart {
    use std::sync::OnceLock;
    static DATA: OnceLock<ColdStart> = OnceLock::new();
    DATA.get_or_init(|| {
        let mut cfg = StudyConfig::tiny();
        cfg.world.with_videos(BASE);
        cold_start(&Study::run(cfg))
    })
}

#[test]
fn vocabulary_generalizes_to_new_uploads() {
    // Topic vocabularies are shared, so almost every new upload
    // carries tags the crawl has already seen.
    assert!(
        shared().known_tag_share > 0.95,
        "known-tag share {}",
        shared().known_tag_share
    );
}

#[test]
fn tags_beat_the_prior_on_unseen_videos() {
    let (tags, prior) = (&shared().tags, &shared().prior);
    assert!(
        tags.js.mean < prior.js.mean,
        "tags {} vs prior {}",
        tags.js.mean,
        prior.js.mean
    );
    assert!(tags.top_country_accuracy > prior.top_country_accuracy);
}

#[test]
fn smoothing_does_not_hurt_cold_start() {
    let x = shared();
    let (raw, smoothed, prior) = (&x.tags, &x.smoothed, &x.prior);
    // Shrinkage trades a little sharpness for tail safety; on the
    // whole corpus it must stay in the same ballpark and never
    // degrade to the prior.
    assert!(smoothed.js.mean < prior.js.mean);
    assert!(smoothed.js.mean < raw.js.mean * 1.25);
    // Shrinkage pulls the typical (median) error toward the prior's
    // behaviour without blowing it up. (It does NOT bound the max:
    // a thin-evidence video whose truth is far from the prior gets
    // worse, by design.)
    assert!(smoothed.js.median < raw.js.median * 1.25);
}

/// Every predictor row scores every new upload. `ErrorReport::compare`
/// rejects distributions over a different number of countries, so a
/// row that exists was scored over the registry's world.
#[test]
fn world_registry_is_consistent_for_cold_start() {
    let x = shared();
    assert_eq!(x.uploads, BASE / 10);
    for (name, report) in x.rows() {
        assert_eq!(report.n, x.uploads, "{name}");
    }
}
