//! Geographic foundations for the `tagdist` reproduction of
//! *“From Views to Tags Distribution in Youtube”* (Middleware ’14).
//!
//! This crate provides the building blocks every other `tagdist` crate
//! rests on:
//!
//! * a fixed [`registry`](crate::country) of the countries the study
//!   models, addressed by the compact [`CountryId`] index,
//! * [`CountryVec`], a dense per-country vector of `f64` values (view
//!   counts, traffic shares, intensities, …),
//! * [`CountryMatrix`], the contiguous row-major matrix backing
//!   corpus-scale collections of such vectors (one row per video or
//!   tag), with the element-wise [`kernel`] functions that mutate its
//!   rows deterministically,
//! * [`GeoDist`], a validated probability distribution over countries,
//!   together with the spread and divergence measures used throughout
//!   the paper's analysis (entropy, Gini, Jensen–Shannon, …),
//! * the [`mapchart`] codec that reproduces the lossy 0–61 Google
//!   Map-Chart intensity encoding YouTube used for its per-country
//!   popularity maps (the paper's `pop(v)` vector, Eq. 1),
//! * a [`TrafficModel`] substituting for the Alexa per-country YouTube
//!   traffic estimate `p̂yt` of Eq. 2.
//!
//! # Example
//!
//! ```
//! use tagdist_geo::{world, CountryVec, GeoDist};
//!
//! # fn main() -> Result<(), tagdist_geo::GeoError> {
//! let world = world();
//! let br = world.by_code("BR").expect("Brazil is registered");
//! let mut views = CountryVec::zeros(world.len());
//! views[br.id] = 1_000_000.0;
//! let dist = GeoDist::from_counts(&views)?;
//! assert_eq!(dist.top_country(), Some(br.id));
//! # Ok(())
//! # }
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

pub mod country;
pub mod dist;
pub mod error;
pub mod float;
pub mod kernel;
pub mod latency;
pub mod mapchart;
pub mod matrix;
pub mod select;
pub mod traffic;
pub mod vec;

pub use country::{world, Country, CountryId, Region, World};
pub use dist::{js_divergence_probs, GeoDist};
pub use error::GeoError;
pub use float::{approx_eq, approx_zero, DEFAULT_EPSILON};
pub use latency::LatencyModel;
pub use mapchart::{PopularityVector, PopularityView, MAX_INTENSITY};
pub use matrix::CountryMatrix;
pub use select::{top_k_by, TopK};
pub use traffic::TrafficModel;
pub use vec::CountryVec;
