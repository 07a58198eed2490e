//! The effect-soundness oracle's runtime half: execute a recorded
//! schedule's bodies against a fresh device state and observe what each
//! body *actually* reads and writes.
//!
//! Observation combines two mechanisms:
//!
//! * **Instrumented accessors** — the trainer's buffer getters
//!   (`read_buf`, `GpuState::{bc_ref, w_ref, sf_ref, ahw_pair_mut}`)
//!   and explicit `note_read`/`note_write` calls at raw-slice RMW sites
//!   report to the attached [`EffectRecorder`]. This captures *reads*
//!   (invisible to state diffing) and writes that may land byte-identical
//!   data (collective copies, idempotent in-place kernels).
//! * **Fingerprint diffing** — after each body, every tracked buffer on
//!   the op's lane GPUs is FNV-hashed (shape + f32 bits) and compared to
//!   its pre-op hash; any change is recorded as a write. This is the
//!   ground truth that catches writes the instrumentation misses.
//!
//! The runner also derives observed *staleness*: in epoch-tagged fused
//! schedules it tracks the last-writer epoch per buffer, and a read whose
//! value was produced in an earlier epoch is recorded with its actual age
//! (reader epoch − writer epoch). `mggcn_analyze::audit_effects` diffs all
//! of this against the declared `Effects`.
//!
//! Known blind spot (by design, documented in DESIGN §16): a write to a
//! buffer on a GPU *outside* the op's lanes is only observed if noted
//! explicitly — fingerprinting every GPU after every op would make the
//! sweep quadratic. All collective helpers note their writes, so no
//! current body falls through.

use crate::config::GcnConfig;
use crate::problem::Problem;
use crate::state::DeviceState;
use mggcn_dense::Dense;
use mggcn_gpusim::shadow::{ActualEffects, EffectRecorder};
use mggcn_gpusim::{BufId, Schedule};
use std::collections::BTreeMap;

/// FNV-1a over a dense buffer's shape and f32 bit patterns.
fn fingerprint(d: &Dense) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    mix(&(d.rows() as u64).to_le_bytes());
    mix(&(d.cols() as u64).to_le_bytes());
    for v in d.as_slice() {
        mix(&v.to_bits().to_le_bytes());
    }
    h
}

/// Current fingerprints of every tracked buffer on GPU `g` — the §4.2
/// inventory (`X`, `HW`, `BC1`, `BC2`, `RP`, per-layer `AHW`/`SF`) plus
/// the replicated weights, gradients and Adam moments.
fn gpu_fingerprints(state: &DeviceState, g: usize, layers: usize) -> Vec<(BufId, u64)> {
    let gs = state.gpu(g);
    let mut out = vec![
        (BufId::new(g, "X"), fingerprint(&gs.x)),
        (BufId::new(g, "HW"), fingerprint(&gs.hw)),
        (BufId::new(g, "BC1"), fingerprint(&gs.bc1)),
        (BufId::new(g, "BC2"), fingerprint(&gs.bc2)),
        (BufId::new(g, "RP"), fingerprint(&gs.rp)),
    ];
    for l in 0..layers {
        out.push((BufId::indexed(g, "AHW", l), fingerprint(&gs.ahw[l])));
        out.push((BufId::indexed(g, "SF", l), fingerprint(&gs.sf[l])));
        out.push((BufId::indexed(g, "W", l), fingerprint(&gs.weights[l])));
        out.push((BufId::indexed(g, "WG", l), fingerprint(&gs.wgrad[l])));
        // One logical "ADAM.l" buffer covers both moment tensors.
        out.push((
            BufId::indexed(g, "ADAM", l),
            fingerprint(&gs.adam_m[l]) ^ fingerprint(&gs.adam_v[l]).rotate_left(1),
        ));
    }
    out
}

/// Execute `sched`'s bodies (in simulated completion order) against a
/// fresh [`DeviceState`] for `problem`, recording per-op actual effects.
/// The caller's own trainer state is untouched.
pub fn record_actual_effects(
    sched: Schedule<DeviceState>,
    problem: &Problem,
    cfg: &GcnConfig,
) -> Vec<ActualEffects> {
    // (lane GPUs, epoch tag) per op, captured before the schedule is moved.
    let metas: Vec<(Vec<usize>, Option<usize>)> = sched
        .op_infos()
        .iter()
        .map(|o| {
            let mut gpus: Vec<usize> = o.lanes.iter().map(|&(g, _)| g).collect();
            gpus.sort_unstable();
            gpus.dedup();
            (gpus, o.desc.epoch)
        })
        .collect();
    let layers = cfg.layers();
    let state = DeviceState::for_problem(problem, cfg);
    let rec = EffectRecorder::new(sched.op_count());
    state.attach_recorder(&rec);

    let mut fps: BTreeMap<BufId, u64> = BTreeMap::new();
    for g in 0..state.gpu_count() {
        fps.extend(gpu_fingerprints(&state, g, layers));
    }
    let mut last_write_epoch: BTreeMap<BufId, usize> = BTreeMap::new();

    sched.run_observed(
        &state,
        |id| rec.begin(id),
        |id| {
            let (gpus, epoch) = &metas[id];
            for &g in gpus {
                for (b, h) in gpu_fingerprints(&state, g, layers) {
                    if fps.get(&b) != Some(&h) {
                        rec.write(b);
                        fps.insert(b, h);
                    }
                }
            }
            if let Some(e) = *epoch {
                let eff = rec.snapshot(id);
                // Reads consumed the value present *before* this op's own
                // writes, so age against the previous writer.
                for &b in &eff.reads {
                    if let Some(&w) = last_write_epoch.get(&b) {
                        if w < e {
                            rec.note_stale(id, b, e - w);
                        }
                    }
                }
                for &b in &eff.writes {
                    last_write_epoch.insert(b, e);
                }
            }
            rec.end();
        },
    );
    state.detach_recorder();
    rec.take_log()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainOptions;
    use crate::trainer::Trainer;
    use mggcn_graph::generators::sbm::{self, SbmConfig};
    use std::collections::BTreeSet;

    fn trainer(gpus: usize) -> Trainer {
        let g = sbm::generate(&SbmConfig::community_benchmark(96, 3), 5);
        let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
        let opts = TrainOptions::quick(gpus);
        let problem = Problem::from_graph(&g, &cfg, &opts);
        Trainer::new(problem, cfg, opts).expect("fits")
    }

    /// The crate-level soundness invariant the analyze audit formalizes:
    /// nothing a body actually touches falls outside its declaration.
    #[test]
    fn actual_effects_stay_within_declarations() {
        let t = trainer(2);
        let sched = t.epoch_schedule();
        let declared: Vec<(BTreeSet<BufId>, BTreeSet<BufId>, &'static str)> = sched
            .op_infos()
            .iter()
            .map(|o| {
                (
                    o.effects.reads.iter().copied().collect(),
                    o.effects.writes.iter().copied().collect(),
                    o.desc.label,
                )
            })
            .collect();
        let actual = t.record_actual_effects(sched);
        assert_eq!(declared.len(), actual.len());
        for (i, ((reads, writes, label), act)) in declared.iter().zip(&actual).enumerate() {
            for b in &act.reads {
                assert!(reads.contains(b), "op {i} ({label}) undeclared read of {b}");
            }
            for b in &act.writes {
                assert!(writes.contains(b), "op {i} ({label}) undeclared write of {b}");
            }
        }
        // The observation is not vacuous: real reads and writes were seen.
        assert!(actual.iter().any(|a| !a.reads.is_empty()));
        assert!(actual.iter().any(|a| !a.writes.is_empty()));
    }

    #[test]
    fn recording_leaves_trainer_state_untouched() {
        let t = trainer(2);
        let before = t.state().weights_digest();
        let _ = t.record_actual_effects(t.epoch_schedule());
        assert_eq!(t.state().weights_digest(), before);
    }

    #[test]
    fn identical_linearizations_give_identical_digests() {
        let t = trainer(2);
        let n = t.epoch_schedule().op_count();
        let order: Vec<usize> = (0..n).collect();
        let a = t.linearization_digest(|_| {}, &order);
        let b = t.linearization_digest(|_| {}, &order);
        assert_eq!(a, b);
        // And the digest actually reflects training: it differs from the
        // untrained seed state (a fresh trainer's).
        assert_ne!(a, trainer(2).state().weights_digest());
    }
}
