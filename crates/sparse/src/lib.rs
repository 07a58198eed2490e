//! Sparse-matrix substrate for the MG-GCN reproduction.
//!
//! The paper stores the normalized adjacency `Â` in Compressed Sparse Row
//! format and calls cuSPARSE SpMM on 2D tiles of it (§4.1, §6). This crate
//! provides the equivalent pieces:
//!
//! * [`Coo`] / [`Csr`] matrices and conversions,
//! * in-degree normalization (paper eq. 2) and transposition,
//! * partition vectors (paper eq. 13) and symmetric 2D tiling
//!   (paper eqs. 14–15),
//! * a Rayon-parallel CSR [`spmm()`](spmm::spmm) kernel with an accumulate variant for the
//!   staged multi-GPU algorithm.

//! # Example
//!
//! ```
//! use mggcn_dense::{Accumulate, Dense};
//! use mggcn_sparse::{spmm, Coo, TileGrid};
//!
//! // A tiny ring graph, tiled 2x2 the way GPU 0 and 1 would hold it.
//! let mut coo = Coo::new(4, 4);
//! for i in 0..4u32 {
//!     coo.push(i, (i + 1) % 4, 1.0);
//! }
//! let a = coo.to_csr();
//! let grid = TileGrid::symmetric_uniform(&a, 2);
//!
//! // Staged SpMM: every GPU accumulates its tile row against each stage.
//! let h = Dense::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
//! let mut out = Dense::zeros(2, 3); // GPU 0's result rows
//! for s in 0..2 {
//!     let tile = &grid.tile(0, s).csr;
//!     let h_s = h.row_block(grid.col_partition().start(s), tile.cols());
//!     let acc = if s == 0 { Accumulate::Overwrite } else { Accumulate::Add };
//!     spmm(tile, &h_s, &mut out, acc);
//! }
//! // Row 0 aggregates vertex 1's features.
//! assert_eq!(out.row(0), h.row(1));
//! ```

#![forbid(unsafe_code)]

pub mod csr;
pub mod partition;
pub mod spmm;

pub use csr::{Coo, Csr};
pub use partition::{PartitionVec, Tile, TileGrid};
pub use spmm::{spmm, spmm_rows};
