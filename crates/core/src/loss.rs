//! Softmax cross-entropy loss (§6 "Model") with in-buffer gradient.
//!
//! The final layer's logits live in the last `AHW` buffer; the loss kernel
//! reads them, accumulates the masked cross-entropy, and overwrites the
//! buffer with the gradient — the logits are not needed afterwards, which
//! is what lets the buffer scheme start the backward pass without any
//! additional allocation (Fig 1's `Loss` node).

use mggcn_dense::Dense;

/// Outcome of one local loss evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct LossStats {
    /// Sum of per-vertex cross-entropy over local *train* vertices.
    pub loss_sum: f64,
    pub train_correct: usize,
    pub train_total: usize,
    pub test_correct: usize,
    pub test_total: usize,
}

impl LossStats {
    /// Add another shard's sums and counters to these.
    pub fn absorb(&mut self, other: &LossStats) {
        self.loss_sum += other.loss_sum;
        self.train_correct += other.train_correct;
        self.train_total += other.train_total;
        self.test_correct += other.test_correct;
        self.test_total += other.test_total;
    }

    /// Train / test accuracy (0.0 over an empty mask).
    pub fn accuracy(&self) -> (f64, f64) {
        let ratio = |c: usize, t: usize| if t == 0 { 0.0 } else { c as f64 / t as f64 };
        (ratio(self.train_correct, self.train_total), ratio(self.test_correct, self.test_total))
    }
}

/// Compute masked softmax cross-entropy over `logits` (`n_local × classes`)
/// and replace `logits` with the loss gradient.
///
/// * Train rows get gradient `(softmax − onehot) / global_train_count`;
/// * all other rows get zero gradient (they do not contribute to the loss);
/// * accuracy counters are collected for both masks on the way through.
pub fn softmax_xent_inplace(
    logits: &mut Dense,
    labels: &[u32],
    train_mask: &[bool],
    test_mask: &[bool],
    global_train_count: usize,
) -> LossStats {
    let classes = logits.cols();
    assert_eq!(logits.rows(), labels.len());
    assert!(global_train_count > 0, "loss needs at least one training vertex");
    let inv_n = 1.0f32 / global_train_count as f32;
    let mut stats = LossStats::default();
    for r in 0..logits.rows() {
        let row = logits.row_mut(r);
        let label = labels[r] as usize;
        debug_assert!(label < classes);
        // Numerically stable softmax. A plain compare, not `f32::max` (a
        // blend under AVX2): it ignores NaN the same way, and picks a ±0 tie
        // differently only where `exp(x - max)` is `exp(±0) = 1` either way.
        let max = row.iter().copied().fold(f32::NEG_INFINITY, |m, x| if x > m { x } else { m });
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("nonempty row");
        let p_label = row[label] / sum;
        if train_mask[r] {
            stats.loss_sum += -(p_label.max(1e-30).ln()) as f64;
            stats.train_total += 1;
            stats.train_correct += usize::from(argmax == label);
            for x in row.iter_mut() {
                *x = *x / sum * inv_n;
            }
            row[label] -= inv_n;
        } else {
            if test_mask[r] {
                stats.test_total += 1;
                stats.test_correct += usize::from(argmax == label);
            }
            row.fill(0.0);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_low_loss() {
        // Logit strongly favours the true class.
        let mut z = Dense::from_vec(1, 3, vec![10.0, 0.0, 0.0]);
        let s = softmax_xent_inplace(&mut z, &[0], &[true], &[false], 1);
        assert!(s.loss_sum < 0.01, "loss {}", s.loss_sum);
        assert_eq!(s.train_correct, 1);
    }

    #[test]
    fn uniform_prediction_loss_is_log_classes() {
        let mut z = Dense::zeros(1, 4);
        let s = softmax_xent_inplace(&mut z, &[2], &[true], &[false], 1);
        assert!((s.loss_sum - (4.0f64).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = vec![0.3f32, -0.7, 1.1];
        let label = 1u32;
        let mut z = Dense::from_vec(1, 3, logits.clone());
        softmax_xent_inplace(&mut z, &[label], &[true], &[false], 1);
        let grad = z.as_slice().to_vec();
        let eps = 1e-3f32;
        for k in 0..3 {
            let loss_at = |delta: f32| {
                let mut pert = logits.clone();
                pert[k] += delta;
                let mut zz = Dense::from_vec(1, 3, pert);
                softmax_xent_inplace(&mut zz, &[label], &[true], &[false], 1).loss_sum
            };
            let fd = ((loss_at(eps) - loss_at(-eps)) / (2.0 * eps as f64)) as f32;
            assert!((grad[k] - fd).abs() < 1e-3, "k={k}: grad {} fd {fd}", grad[k]);
        }
    }

    #[test]
    fn non_train_rows_get_zero_gradient() {
        let mut z = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let s = softmax_xent_inplace(&mut z, &[0, 1], &[true, false], &[false, true], 1);
        assert!(z.row(1).iter().all(|&x| x == 0.0));
        assert_eq!(s.test_total, 1);
        assert_eq!(s.test_correct, 1); // argmax of row 1 is class 1
    }

    #[test]
    fn gradient_scales_with_global_count() {
        let mk = |n: usize| {
            let mut z = Dense::from_vec(1, 2, vec![1.0, 0.0]);
            softmax_xent_inplace(&mut z, &[0], &[true], &[false], n);
            z.as_slice().to_vec()
        };
        let g1 = mk(1);
        let g4 = mk(4);
        for (a, b) in g1.iter().zip(&g4) {
            assert!((a - 4.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero_on_train_rows() {
        let mut z = Dense::from_vec(1, 5, vec![0.1, 0.5, -0.2, 2.0, 1.0]);
        softmax_xent_inplace(&mut z, &[3], &[true], &[false], 2);
        let s: f32 = z.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }
}
