//! Dense linear-algebra substrate for the MG-GCN reproduction.
//!
//! The paper performs its dense work (`H · W`, `HW_G · Wᵀ`, `HW_Gᵀ · H`,
//! activations, optimizer updates) with cuBLAS on row-major matrices. This
//! crate provides the equivalent CPU kernels: a row-major [`Dense`] matrix,
//! GeMM in all the transpose combinations the GCN forward/backward pass
//! needs — row blocks spread over the kernel pool, each output row built in
//! register-resident strips by one micro-kernel (`fold_strip`) under one
//! driver, which the SpMM of `mggcn-sparse` runs too through
//! [`gemm::fold_listed_rows`] — and the elementwise kernels (ReLU, AXPY,
//! scaling) that the training loop is built from.

#![forbid(unsafe_code)]

pub mod elementwise;
pub mod gemm;
pub mod init;
pub mod matrix;

pub use elementwise::{
    add_assign, axpy, relu, relu_backward, relu_backward_merge, relu_inplace, scale,
};
pub use gemm::{gemm, gemm_a_bt, gemm_at_b, Accumulate};
pub use matrix::Dense;
