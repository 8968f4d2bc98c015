#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

//! Set-associative cache substrate for the MLP-aware replacement study.
//!
//! This crate provides the *mechanical* cache machinery that the paper's
//! contribution (in `mlpsim-core`) plugs into:
//!
//! * [`addr`] — line-address and geometry arithmetic,
//! * [`meta`] — per-way tag-store metadata (tag, recency rank, `cost_q`),
//! * [`tagstore`] — the tag array itself, with in-place recency ranks,
//! * [`set`] — read-only views of a set handed to replacement engines,
//! * [`policy`] — the [`policy::ReplacementEngine`]
//!   trait every victim-selection policy implements,
//! * [`lru`], [`fifo`], [`random`], [`belady`] — baseline policies,
//! * [`model`] — a [`model::CacheModel`] combining a tag store
//!   with an engine and hit/miss statistics,
//! * [`atd`] — auxiliary tag directories (tag-only shadow caches) used by
//!   the paper's hybrid-replacement mechanisms.
//!
//! The design deliberately separates *state* (the tag store, which knows
//! LRU-stack positions and the quantized MLP cost of each block) from *policy*
//! (engines that pick victims from a [`set::SetView`]). This is
//! how the paper's hardware is organized too: the Cost-Aware Replacement
//! Engine (CARE) reads the tag-store entries, and hybrid schemes flip the
//! policy per set without touching the data array.
//!
//! # Example
//!
//! ```
//! use mlpsim_cache::addr::{Geometry, LineAddr};
//! use mlpsim_cache::lru::LruEngine;
//! use mlpsim_cache::model::CacheModel;
//!
//! // A tiny 4-set, 2-way cache with 64-byte lines.
//! let geom = Geometry::new(4 * 2 * 64, 2, 64).unwrap();
//! let mut cache = CacheModel::new(geom, Box::new(LruEngine::new()));
//! let a = LineAddr(0);
//! assert!(!cache.access(a, false, 0).hit);
//! assert!(cache.access(a, false, 1).hit);
//! ```

pub mod addr;
pub mod atd;
pub mod belady;
pub mod fifo;
pub mod lru;
pub mod meta;
pub mod model;
pub mod policy;
pub mod random;
pub mod set;
pub mod tagstore;

pub use addr::{Geometry, LineAddr};
pub use model::{AccessResult, CacheModel, CacheStats};
pub use policy::{ReplacementEngine, VictimCtx};
