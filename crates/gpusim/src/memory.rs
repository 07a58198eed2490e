//! The out-of-memory error.
//!
//! The paper's capacity results (which datasets fit on how many GPUs, the
//! 20-vs-50 / 150-vs-450 layer counts of Fig 12, the OOM cells of Figs 10
//! and 13 and Table 3) are pure accounting: planned bytes versus 32/80 GiB.
//! The trainer admits a problem on its `MemoryPlan` and reports a miss as
//! an [`OomError`].

use std::fmt;

/// Allocation failure: the device would exceed capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    pub gpu: usize,
    pub requested: u64,
    pub in_use: u64,
    pub capacity: u64,
    pub tag: String,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GPU {} out of memory allocating {} MiB for {:?} ({} / {} MiB in use)",
            self.gpu,
            self.requested >> 20,
            self.tag,
            self.in_use >> 20,
            self.capacity >> 20
        )
    }
}

impl std::error::Error for OomError {}
