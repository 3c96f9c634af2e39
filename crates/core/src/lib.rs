//! `tagdist` — a full reproduction of *“From Views to Tags
//! Distribution in Youtube”* (Delbruel & Taïani, Middleware ’14) as a
//! Rust library.
//!
//! The paper reconstructs per-country view counts of YouTube videos
//! from the 0–61 popularity maps the platform exposed in 2011
//! (Eqs. 1–2), aggregates them per tag (Eq. 3), and observes that tags
//! split into geographically *global* (`pop`, Fig. 2) and *local*
//! (`favela` → Brazil, Fig. 3) — suggesting tags can drive proactive
//! geographic caching.
//!
//! This facade crate re-exports the whole pipeline and wires it into a
//! single entry point, [`Study`]:
//!
//! 1. generate a synthetic YouTube ([`ytsim`]) — the original data is
//!    unobtainable, see `DESIGN.md` for the substitution argument,
//! 2. snowball-crawl it ([`crawler`], §2 methodology),
//! 3. filter defective metadata ([`dataset`], §2 accounting),
//! 4. invert the Map-Chart encoding ([`reconstruct`], §3),
//! 5. aggregate and analyze per tag ([`tags`], Figs. 2–3),
//! 6. and evaluate tag-predictive proactive caching ([`cache`], the
//!    paper's future work).
//!
//! # Quickstart
//!
//! ```
//! use tagdist::{Study, StudyConfig};
//!
//! let study = Study::run(StudyConfig::tiny());
//! println!("{}", study.filter_report());
//! let pop = study.tag_profile("pop").expect("built-in global tag");
//! let favela = study.tag_profile("favela").expect("built-in local tag");
//! assert!(favela.top_share > pop.top_share);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::missing_panics_doc,
        missing_docs
    )
)]

pub mod experiments;
pub mod paper;
pub mod render;
pub mod report;
pub mod study;
pub mod validate;

pub use paper::{PaperComparison, PaperConstants, PAPER};
pub use render::{render_distribution, render_popularity_map, render_views};
pub use report::{markdown_report, markdown_report_obs};
pub use study::{Study, StudyConfig, StudyError};
pub use validate::{InvariantViolation, Validate};

pub use tagdist_cache as cache;
pub use tagdist_crawler as crawler;
pub use tagdist_dataset as dataset;
pub use tagdist_geo as geo;
pub use tagdist_obs as obs;
pub use tagdist_par as par;
pub use tagdist_reconstruct as reconstruct;
pub use tagdist_tags as tags;
pub use tagdist_ytsim as ytsim;
