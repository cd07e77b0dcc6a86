//! Classification metrics: accuracy, confusion matrix, macro-averaged
//! precision / recall / F1 (the Table 2 metrics).

/// Fraction of correct predictions.
pub fn accuracy(truth: &[usize], pred: &[usize]) -> f64 {
    assert_eq!(truth.len(), pred.len());
    if truth.is_empty() {
        return 0.0;
    }
    truth.iter().zip(pred).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
}

/// A confusion matrix: `m[t][p]` counts samples of true class `t`
/// predicted as `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// Builds the matrix for `n_classes` classes.
    pub fn new(truth: &[usize], pred: &[usize], n_classes: usize) -> ConfusionMatrix {
        assert_eq!(truth.len(), pred.len());
        let mut counts = vec![vec![0u64; n_classes]; n_classes];
        for (&t, &p) in truth.iter().zip(pred) {
            counts[t][p] += 1;
        }
        ConfusionMatrix { counts }
    }

    /// Raw counts.
    pub fn counts(&self) -> &[Vec<u64>] {
        &self.counts
    }

    /// Per-class precision (0 when the class was never predicted).
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.counts[class][class] as f64;
        let predicted: u64 = self.counts.iter().map(|row| row[class]).sum();
        if predicted == 0 {
            0.0
        } else {
            tp / predicted as f64
        }
    }

    /// Per-class recall (0 when the class has no samples).
    pub fn recall(&self, class: usize) -> f64 {
        let tp = self.counts[class][class] as f64;
        let actual: u64 = self.counts[class].iter().sum();
        if actual == 0 {
            0.0
        } else {
            tp / actual as f64
        }
    }

    /// Per-class F1.
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged precision over classes that appear in the data.
    pub fn macro_precision(&self) -> f64 {
        self.macro_over(|c| self.precision(c))
    }

    /// Macro-averaged recall.
    pub fn macro_recall(&self) -> f64 {
        self.macro_over(|c| self.recall(c))
    }

    /// Macro-averaged F1.
    pub fn macro_f1(&self) -> f64 {
        self.macro_over(|c| self.f1(c))
    }

    fn macro_over<F: Fn(usize) -> f64>(&self, f: F) -> f64 {
        let present: Vec<usize> = (0..self.counts.len())
            .filter(|&c| self.counts[c].iter().sum::<u64>() > 0)
            .collect();
        if present.is_empty() {
            return 0.0;
        }
        present.iter().map(|&c| f(c)).sum::<f64>() / present.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let y = vec![0, 1, 2, 0, 1, 2];
        let m = ConfusionMatrix::new(&y, &y, 3);
        assert_eq!(m.macro_f1(), 1.0);
        assert_eq!(m.macro_precision(), 1.0);
        assert_eq!(m.macro_recall(), 1.0);
    }

    #[test]
    fn known_confusion_values() {
        // truth:  0 0 1 1
        // pred:   0 1 1 1
        let m = ConfusionMatrix::new(&[0, 0, 1, 1], &[0, 1, 1, 1], 2);
        assert_eq!(m.counts()[0], vec![1, 1]);
        assert_eq!(m.counts()[1], vec![0, 2]);
        assert_eq!(m.precision(0), 1.0);
        assert_eq!(m.recall(0), 0.5);
        assert!((m.precision(1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.recall(1), 1.0);
        assert!((m.f1(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn absent_classes_do_not_skew_macro_scores() {
        // Class 2 never appears in truth.
        let m = ConfusionMatrix::new(&[0, 1], &[0, 1], 3);
        assert_eq!(m.macro_f1(), 1.0);
    }
}
