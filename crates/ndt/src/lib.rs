//! Normal-Distributions-Transform (NDT) scan matching.
//!
//! The paper's Figure 2 shows radius search consuming 51 % of
//! Autoware.ai's `ndt_matching` localization task. This crate implements
//! that workload: the map is voxelized into Gaussian cells ([`NdtMap`],
//! Biber 2003 / Magnusson 2009), and scan alignment ([`NdtMatcher`])
//! iterates Newton steps whose per-point neighbourhood gathering is a
//! **k-d tree radius search** over the cell centroids (the `KDTREE`
//! neighbour mode of Autoware's pclomp NDT) — which is exactly where
//! K-D Bonsai applies.
//!
//! Neighbour gathering has one dispatch point, the simulator. An
//! uninstrumented alignment (`SimEngine::disabled()`) runs on the
//! batched `RadiusSearchEngine` of `bonsai-core`, baseline or Bonsai
//! leaves per [`NdtSearchMode`]: each Newton iteration holds one pose,
//! so its searches go out as one batch, and a warm matcher allocates
//! nothing. A simulated alignment keeps the instrumented walker
//! (`radius_search_scratch` with the mode's leaf processor), so the
//! cost model sees every search. Both return the same [`AlignResult`]
//! bit for bit.
//!
//! Deviations from PCL's implementation, both standard and
//! convergence-equivalent:
//!
//! * the pose increment is linearized as a left-multiplied small
//!   rotation (`x′ = ΔR·(R p) + t + δt`, Jacobian `[I | −[Rp]×]`)
//!   instead of Euler-angle derivatives;
//! * the Hessian uses the Gauss–Newton approximation (second-order term
//!   dropped) with Levenberg damping.
//!
//! # Examples
//!
//! ```
//! use bonsai_geom::{Point3, Pose};
//! use bonsai_ndt::{NdtConfig, NdtMap, NdtMatcher, NdtSearchMode};
//! use bonsai_sim::SimEngine;
//!
//! // A map with structure along every axis.
//! let mut map = Vec::new();
//! for i in 0..60 {
//!     for j in 0..8 {
//!         map.push(Point3::new(i as f32, j as f32 * 0.3, (i % 7) as f32 * 0.1));
//!         map.push(Point3::new(i as f32, 20.0 - j as f32 * 0.3, 2.0));
//!     }
//! }
//! let mut sim = SimEngine::disabled();
//! let ndt_map = NdtMap::build(&mut sim, &map, 2.0);
//! let mut matcher = NdtMatcher::new(&mut sim, ndt_map, NdtConfig::default(),
//!                                   NdtSearchMode::Baseline);
//! // Align the map against itself from a perturbed guess.
//! let guess = Pose::from_translation_euler(Point3::new(0.3, -0.2, 0.0), 0.0, 0.0, 0.01);
//! let result = matcher.align(&mut sim, &map, &guess);
//! assert!(result.translation_error(&Pose::identity()) < 0.1);
//! ```

#![forbid(unsafe_code)]

mod map;
mod matcher;

pub use map::{NdtCell, NdtMap};
pub use matcher::{AlignResult, NdtConfig, NdtMatcher, NdtSearchMode};
