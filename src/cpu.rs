//! The CPU features this build was compiled for, held against the host
//! before anything runs.
//!
//! The workspace builds for x86-64-v3 (`.cargo/config.toml`). On a CPU
//! without those features the first wide kernel would die of SIGILL;
//! `mggcn` calls [`preflight`] first in `main` and exits 1 with a
//! [`MissingCpuFeatures`] instead. The check is compiled for the same
//! target, so it reports on a CPU that has AVX but lacks the rest (Sandy
//! Bridge or Ivy Bridge, say); on one without AVX at all, the VEX-encoded
//! code around it may still fault first.

use std::fmt;

/// The features x86-64-v3 adds to baseline x86-64, each with whether this
/// build was compiled with it.
const COMPILED_WITH: [(&str, bool); 8] = [
    ("avx", cfg!(target_feature = "avx")),
    ("avx2", cfg!(target_feature = "avx2")),
    ("bmi1", cfg!(target_feature = "bmi1")),
    ("bmi2", cfg!(target_feature = "bmi2")),
    ("fma", cfg!(target_feature = "fma")),
    ("f16c", cfg!(target_feature = "f16c")),
    ("lzcnt", cfg!(target_feature = "lzcnt")),
    ("movbe", cfg!(target_feature = "movbe")),
];

/// Features this build was compiled with that the host lacks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissingCpuFeatures(pub Vec<&'static str>);

impl fmt::Display for MissingCpuFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "this build needs CPU features this host lacks: {}\n\
             rebuild it for baseline x86-64 with\n  \
             RUSTFLAGS=\"-C target-cpu=x86-64\" cargo build --release",
            self.0.join(", ")
        )
    }
}

/// Check every feature this build was compiled with against `host_has`
/// ([`host_has`] on a real host; a test passes a fake).
pub fn preflight(host_has: impl Fn(&str) -> bool) -> Result<(), MissingCpuFeatures> {
    let missing: Vec<_> =
        COMPILED_WITH.iter().filter(|&&(f, on)| on && !host_has(f)).map(|&(f, _)| f).collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(MissingCpuFeatures(missing))
    }
}

/// Whether this host's CPU has `feature`, one of the x86-64-v3 names.
#[cfg(target_arch = "x86_64")]
pub fn host_has(feature: &str) -> bool {
    match feature {
        "avx" => is_x86_feature_detected!("avx"),
        "avx2" => is_x86_feature_detected!("avx2"),
        "bmi1" => is_x86_feature_detected!("bmi1"),
        "bmi2" => is_x86_feature_detected!("bmi2"),
        "fma" => is_x86_feature_detected!("fma"),
        "f16c" => is_x86_feature_detected!("f16c"),
        "lzcnt" => is_x86_feature_detected!("lzcnt"),
        "movbe" => is_x86_feature_detected!("movbe"),
        _ => false,
    }
}

/// Off x86-64 no build is compiled with an x86 feature, so nothing is
/// asked.
#[cfg(not(target_arch = "x86_64"))]
pub fn host_has(_feature: &str) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_without_avx2_is_refused_by_name_with_the_rebuild_line() {
        let verdict = preflight(|f| f != "avx2");
        if cfg!(target_feature = "avx2") {
            let err = verdict.expect_err("an AVX2 build on a host without AVX2");
            assert_eq!(err.0, ["avx2"]);
            let msg = err.to_string();
            assert!(msg.contains("lacks: avx2\n"), "{msg}");
            assert!(msg.contains("RUSTFLAGS=\"-C target-cpu=x86-64\" cargo build --release"));
        } else {
            assert_eq!(verdict, Ok(()), "a baseline build asks for nothing");
        }
    }

    #[test]
    fn this_host_runs_this_build() {
        assert_eq!(preflight(host_has), Ok(()));
    }
}
