//! Synthetic graph generators.
//!
//! * [`degree`] — power-law degree models and degree-sequence sampling;
//! * [`chung_lu`] — expected-degree random graphs (BTER's phase-2 engine and
//!   the fast default for dataset replicas);
//! * [`bter`] — Block Two-level Erdős–Rényi, the generator the paper uses
//!   for its Fig 9 density-scaling study;
//! * [`sbm`] — planted-partition graphs with community-correlated labels and
//!   features, for accuracy experiments with known ground truth.

pub mod bter;
pub mod chung_lu;
pub mod degree;
pub mod sbm;
