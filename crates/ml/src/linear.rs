//! Linear models: k-NN, linear SVM, softmax logistic regression and the
//! multiclass perceptron.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::ensemble::{argmax_f64, argmax_u32};
use crate::Classifier;

/// k-nearest neighbors (Euclidean distance, majority vote).
#[derive(Debug, Clone)]
pub struct KNearest {
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<usize>,
    n_classes: usize,
}

impl KNearest {
    /// Creates a k-NN classifier.
    pub fn new(k: usize) -> KNearest {
        KNearest {
            k: k.max(1),
            x: Vec::new(),
            y: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Default for KNearest {
    fn default() -> KNearest {
        KNearest::new(5)
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

impl Classifier for KNearest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        self.x = x.to_vec();
        self.y = y.to_vec();
        self.n_classes = n_classes;
    }

    fn predict(&self, row: &[f64]) -> usize {
        let mut dists: Vec<(f64, usize)> = self
            .x
            .iter()
            .zip(&self.y)
            .map(|(xi, &yi)| (sq_dist(xi, row), yi))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let mut votes = vec![0u32; self.n_classes.max(1)];
        for &(_, label) in dists.iter().take(self.k) {
            votes[label] += 1;
        }
        argmax_u32(&votes)
    }

    fn name(&self) -> &'static str {
        "KNN"
    }
}

/// One-vs-rest linear SVM trained with Pegasos-style hinge-loss SGD.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    epochs: usize,
    lambda: f64,
    seed: u64,
    /// Per class: (weights, bias).
    w: Vec<(Vec<f64>, f64)>,
}

impl LinearSvm {
    /// Creates an SVM with `epochs` passes and regularization `lambda`.
    pub fn new(epochs: usize, lambda: f64, seed: u64) -> LinearSvm {
        LinearSvm {
            epochs,
            lambda,
            seed,
            w: Vec::new(),
        }
    }
}

impl Default for LinearSvm {
    fn default() -> LinearSvm {
        LinearSvm::new(40, 1e-3, 31)
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let d = x[0].len();
        self.w = vec![(vec![0.0; d], 0.0); n_classes];
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for class in 0..n_classes {
            let (w, b) = &mut self.w[class];
            let mut t = 0u64;
            for _ in 0..self.epochs {
                order.shuffle(&mut rng);
                for &i in &order {
                    t += 1;
                    let eta = 1.0 / (self.lambda * t as f64);
                    let target = if y[i] == class { 1.0 } else { -1.0 };
                    let margin = target * (dot(w, &x[i]) + *b);
                    for wj in w.iter_mut() {
                        *wj *= 1.0 - eta * self.lambda;
                    }
                    if margin < 1.0 {
                        for (wj, &xj) in w.iter_mut().zip(&x[i]) {
                            *wj += eta * target * xj;
                        }
                        *b += eta * target;
                    }
                }
            }
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        let scores: Vec<f64> = self.w.iter().map(|(w, b)| dot(w, row) + b).collect();
        argmax_f64(&scores)
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

/// Multinomial (softmax) logistic regression trained with SGD.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    epochs: usize,
    lr: f64,
    seed: u64,
    /// Per class: (weights, bias).
    w: Vec<(Vec<f64>, f64)>,
}

impl LogisticRegression {
    /// Creates a model with `epochs` passes at learning rate `lr`.
    pub fn new(epochs: usize, lr: f64, seed: u64) -> LogisticRegression {
        LogisticRegression {
            epochs,
            lr,
            seed,
            w: Vec::new(),
        }
    }
}

impl Default for LogisticRegression {
    fn default() -> LogisticRegression {
        LogisticRegression::new(60, 0.1, 37)
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let d = x[0].len();
        self.w = vec![(vec![0.0; d], 0.0); n_classes];
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for epoch in 0..self.epochs {
            let lr = self.lr / (1.0 + 0.05 * epoch as f64);
            order.shuffle(&mut rng);
            for &i in &order {
                // Softmax probabilities.
                let logits: Vec<f64> = self.w.iter().map(|(w, b)| dot(w, &x[i]) + b).collect();
                let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = logits.iter().map(|&z| (z - max).exp()).collect();
                let total: f64 = exps.iter().sum();
                for (class, (w, b)) in self.w.iter_mut().enumerate() {
                    let p = exps[class] / total;
                    let grad = p - if y[i] == class { 1.0 } else { 0.0 };
                    for (wj, &xj) in w.iter_mut().zip(&x[i]) {
                        *wj -= lr * grad * xj;
                    }
                    *b -= lr * grad;
                }
            }
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        let scores: Vec<f64> = self.w.iter().map(|(w, b)| dot(w, row) + b).collect();
        argmax_f64(&scores)
    }

    fn name(&self) -> &'static str {
        "Logistic Regression"
    }
}

/// The classic multiclass perceptron.
#[derive(Debug, Clone)]
pub struct Perceptron {
    epochs: usize,
    seed: u64,
    w: Vec<(Vec<f64>, f64)>,
}

impl Perceptron {
    /// Creates a perceptron with `epochs` passes.
    pub fn new(epochs: usize, seed: u64) -> Perceptron {
        Perceptron {
            epochs,
            seed,
            w: Vec::new(),
        }
    }
}

impl Default for Perceptron {
    fn default() -> Perceptron {
        Perceptron::new(30, 41)
    }
}

impl Classifier for Perceptron {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let d = x[0].len();
        self.w = vec![(vec![0.0; d], 0.0); n_classes];
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let pred = self.predict(&x[i]);
                if pred != y[i] {
                    let (wy, by) = &mut self.w[y[i]];
                    for (wj, &xj) in wy.iter_mut().zip(&x[i]) {
                        *wj += xj;
                    }
                    *by += 1.0;
                    let (wp, bp) = &mut self.w[pred];
                    for (wj, &xj) in wp.iter_mut().zip(&x[i]) {
                        *wj -= xj;
                    }
                    *bp -= 1.0;
                }
            }
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        let scores: Vec<f64> = self.w.iter().map(|(w, b)| dot(w, row) + b).collect();
        argmax_f64(&scores)
    }

    fn name(&self) -> &'static str {
        "Perceptron"
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::testdata::blobs;

    fn check(model: &mut dyn Classifier, min_acc: f64) {
        let (x, y) = blobs(3, 60, 4, 13);
        model.fit(&x, &y, 3);
        let pred: Vec<usize> = x.iter().map(|r| model.predict(r)).collect();
        let acc = accuracy(&y, &pred);
        assert!(acc > min_acc, "{} accuracy {acc}", model.name());
    }

    #[test]
    fn knn_fits_blobs() {
        check(&mut KNearest::default(), 0.95);
    }

    #[test]
    fn svm_fits_blobs() {
        check(&mut LinearSvm::default(), 0.9);
    }

    #[test]
    fn logreg_fits_blobs() {
        check(&mut LogisticRegression::default(), 0.9);
    }

    #[test]
    fn perceptron_fits_blobs() {
        check(&mut Perceptron::default(), 0.85);
    }

    #[test]
    fn knn_with_k1_memorizes() {
        let (x, y) = blobs(4, 20, 3, 5);
        let mut m = KNearest::new(1);
        m.fit(&x, &y, 4);
        let pred: Vec<usize> = x.iter().map(|r| m.predict(r)).collect();
        assert_eq!(accuracy(&y, &pred), 1.0);
    }
}
