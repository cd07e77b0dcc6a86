//! # lh-ml — from-scratch classical ML classifiers
//!
//! The website-fingerprinting attack (§8 of the LeakyHammer paper) trains
//! the scikit-learn classics on back-off traces. This crate implements all
//! eight models used in Fig. 10 in pure Rust:
//!
//! decision tree, random forest, gradient boosting, k-NN, linear SVM,
//! logistic regression, AdaBoost (SAMME), and the perceptron —
//! plus stratified k-fold cross-validation and the Table 2 metrics
//! (accuracy, macro precision/recall/F1).
//!
//! ## Example
//!
//! ```
//! use lh_ml::{Classifier, Dataset, DecisionTree, TreeConfig};
//!
//! // A trivially separable two-class problem.
//! let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
//! let y: Vec<usize> = (0..20).map(|i| (i >= 10) as usize).collect();
//! let data = Dataset::new(x, y);
//! let mut tree = DecisionTree::new(TreeConfig::default());
//! tree.fit(&data.features, &data.labels, 2);
//! assert_eq!(tree.predict(&[3.0]), 0);
//! assert_eq!(tree.predict(&[15.0]), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod dataset;
mod ensemble;
mod linear;
mod metrics;
mod tree;

pub use dataset::{stratified_kfold, Dataset, Scaler};
pub use metrics::{accuracy, ConfusionMatrix};
pub use tree::{DecisionTree, TreeConfig};

use ensemble::{AdaBoost, GradientBoosting, RandomForest};
use linear::{KNearest, LinearSvm, LogisticRegression, Perceptron};

/// A trainable multiclass classifier.
pub trait Classifier {
    /// Fits the model on rows `x` with labels `y` in `0..n_classes`.
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize);

    /// Predicts the label of one row.
    fn predict(&self, row: &[f64]) -> usize;

    /// Predicts labels for many rows.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Model name (Fig. 10 labels).
    fn name(&self) -> &'static str;
}

impl core::fmt::Debug for dyn Classifier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Classifier({})", self.name())
    }
}

/// The eight models of Fig. 10, in the paper's order.
pub fn model_zoo() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(DecisionTree::new(TreeConfig::default())),
        Box::new(RandomForest::default()),
        Box::new(GradientBoosting::default()),
        Box::new(KNearest::default()),
        Box::new(LinearSvm::default()),
        Box::new(LogisticRegression::default()),
        Box::new(AdaBoost::default()),
        Box::new(Perceptron::default()),
    ]
}

/// Scores from a cross-validation run (Table 2 format).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CvScores {
    /// Mean accuracy across folds.
    pub accuracy: f64,
    /// Mean / std of macro F1 across folds (percent).
    pub f1: (f64, f64),
    /// Mean / std of macro precision across folds (percent).
    pub precision: (f64, f64),
    /// Mean / std of macro recall across folds (percent).
    pub recall: (f64, f64),
}

/// Runs stratified `k`-fold cross-validation of `model` on `data`.
pub fn cross_validate(model: &mut dyn Classifier, data: &Dataset, k: usize, seed: u64) -> CvScores {
    let n_classes = data.n_classes();
    let mut accs = Vec::new();
    let mut f1s = Vec::new();
    let mut precs = Vec::new();
    let mut recs = Vec::new();
    for (train_idx, test_idx) in stratified_kfold(&data.labels, k, seed) {
        let train = data.subset(&train_idx);
        let test = data.subset(&test_idx);
        model.fit(&train.features, &train.labels, n_classes);
        let pred = model.predict_batch(&test.features);
        let cm = ConfusionMatrix::new(&test.labels, &pred, n_classes);
        accs.push(accuracy(&test.labels, &pred));
        f1s.push(cm.macro_f1() * 100.0);
        precs.push(cm.macro_precision() * 100.0);
        recs.push(cm.macro_recall() * 100.0);
    }
    CvScores {
        accuracy: lh_mean(&accs),
        f1: (lh_mean(&f1s), lh_std(&f1s)),
        precision: (lh_mean(&precs), lh_std(&precs)),
        recall: (lh_mean(&recs), lh_std(&recs)),
    }
}

fn lh_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn lh_std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = lh_mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Deterministic Gaussian-blob test data for the unit tests.
#[cfg(test)]
mod testdata {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `classes` Gaussian blobs of `per_class` points in `dims`
    /// dimensions; returns (features, labels).
    pub(crate) fn blobs(
        classes: usize,
        per_class: usize,
        dims: usize,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..classes {
            // Well-separated centers on a scaled lattice.
            let center: Vec<f64> = (0..dims)
                .map(|d| (((c * 7 + d * 3) % (classes * 2)) as f64) * 4.0)
                .collect();
            for _ in 0..per_class {
                let row: Vec<f64> = center
                    .iter()
                    .map(|&m| m + rng.gen_range(-1.0..1.0))
                    .collect();
                x.push(row);
                y.push(c);
            }
        }
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testdata::blobs;

    #[test]
    fn whole_zoo_beats_random_guessing_in_cv() {
        let (x, y) = blobs(4, 30, 4, 77);
        let data = Dataset::new(x, y);
        for mut model in model_zoo() {
            let scores = cross_validate(model.as_mut(), &data, 4, 5);
            assert!(
                scores.accuracy > 0.5,
                "{} CV accuracy {}",
                model.name(),
                scores.accuracy
            );
        }
    }

    #[test]
    fn zoo_has_the_eight_paper_models() {
        let names: Vec<&str> = model_zoo().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "Decision Tree",
                "Random Forest",
                "Gradient Boosting",
                "KNN",
                "SVM",
                "Logistic Regression",
                "AdaBoost",
                "Perceptron"
            ]
        );
    }

    #[test]
    fn cross_validation_reports_sane_statistics() {
        let (x, y) = blobs(3, 30, 3, 9);
        let data = Dataset::new(x, y);
        let mut tree = DecisionTree::new(TreeConfig::default());
        let scores = cross_validate(&mut tree, &data, 10, 0);
        assert!(scores.accuracy > 0.9);
        assert!(scores.f1.0 > 90.0);
        assert!(scores.f1.1 < 20.0, "std {}", scores.f1.1);
        assert!(scores.precision.0 > 90.0);
        assert!(scores.recall.0 > 90.0);
    }
}
