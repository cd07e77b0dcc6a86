//! Ensemble models: random forest, gradient boosting and AdaBoost.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tree::{DecisionTree, RegressionTree, TreeConfig};
use crate::Classifier;

/// Random forest: bagged CART trees with per-split feature subsampling.
#[derive(Debug, Clone)]
pub(crate) struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    seed: u64,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Creates a forest of `n_trees` trees of depth `max_depth`.
    pub(crate) fn new(n_trees: usize, max_depth: usize, seed: u64) -> RandomForest {
        RandomForest {
            n_trees,
            max_depth,
            seed,
            trees: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Default for RandomForest {
    fn default() -> RandomForest {
        RandomForest::new(30, 10, 17)
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        self.n_classes = n_classes;
        self.trees.clear();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mtry = (x[0].len() as f64).sqrt().ceil() as usize;
        for t in 0..self.n_trees {
            // Bootstrap sample.
            let bx_idx: Vec<usize> = (0..x.len()).map(|_| rng.gen_range(0..x.len())).collect();
            let bx: Vec<Vec<f64>> = bx_idx.iter().map(|&i| x[i].clone()).collect();
            let by: Vec<usize> = bx_idx.iter().map(|&i| y[i]).collect();
            let mut tree = DecisionTree::new(TreeConfig {
                max_depth: self.max_depth,
                min_samples_split: 2,
                feature_subset: Some(mtry),
                seed: self.seed ^ (t as u64).wrapping_mul(0x9e37_79b9),
            });
            tree.fit(&bx, &by, n_classes);
            self.trees.push(tree);
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        let mut votes = vec![0u32; self.n_classes.max(1)];
        for t in &self.trees {
            votes[t.predict(row)] += 1;
        }
        argmax_u32(&votes)
    }

    fn name(&self) -> &'static str {
        "Random Forest"
    }
}

/// Gradient boosting: one-vs-rest logistic boosting with shallow
/// regression trees fitting the residuals.
#[derive(Debug, Clone)]
pub(crate) struct GradientBoosting {
    rounds: usize,
    depth: usize,
    learning_rate: f64,
    seed: u64,
    /// Per class: the boosted stage trees.
    stages: Vec<Vec<RegressionTree>>,
    n_classes: usize,
}

impl GradientBoosting {
    /// Creates a booster with `rounds` stages of depth-`depth` trees.
    pub(crate) fn new(
        rounds: usize,
        depth: usize,
        learning_rate: f64,
        seed: u64,
    ) -> GradientBoosting {
        GradientBoosting {
            rounds,
            depth,
            learning_rate,
            seed,
            stages: Vec::new(),
            n_classes: 0,
        }
    }

    fn score(&self, row: &[f64], class: usize) -> f64 {
        self.stages[class]
            .iter()
            .map(|t| self.learning_rate * t.predict(row))
            .sum()
    }
}

impl Default for GradientBoosting {
    fn default() -> GradientBoosting {
        GradientBoosting::new(25, 3, 0.4, 23)
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        self.n_classes = n_classes;
        self.stages = vec![Vec::new(); n_classes];
        for class in 0..n_classes {
            let targets: Vec<f64> = y
                .iter()
                .map(|&l| if l == class { 1.0 } else { 0.0 })
                .collect();
            let mut scores = vec![0.0f64; x.len()];
            for round in 0..self.rounds {
                let residuals: Vec<f64> = scores
                    .iter()
                    .zip(&targets)
                    .map(|(&s, &t)| t - sigmoid(s))
                    .collect();
                let mut tree = RegressionTree::new(TreeConfig {
                    max_depth: self.depth,
                    min_samples_split: 4,
                    feature_subset: None,
                    seed: self.seed ^ ((class * 1000 + round) as u64),
                });
                tree.fit(x, &residuals);
                for (s, row) in scores.iter_mut().zip(x) {
                    *s += self.learning_rate * tree.predict(row);
                }
                self.stages[class].push(tree);
            }
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        let scores: Vec<f64> = (0..self.n_classes).map(|c| self.score(row, c)).collect();
        argmax_f64(&scores)
    }

    fn name(&self) -> &'static str {
        "Gradient Boosting"
    }
}

/// AdaBoost (SAMME) over shallow decision trees.
#[derive(Debug, Clone)]
pub(crate) struct AdaBoost {
    rounds: usize,
    base_depth: usize,
    stumps: Vec<(f64, DecisionTree)>,
    n_classes: usize,
}

impl AdaBoost {
    /// Creates a booster with `rounds` base learners of depth
    /// `base_depth` (1 = classic stumps; 2 suits multiclass SAMME).
    pub(crate) fn new(rounds: usize, base_depth: usize) -> AdaBoost {
        AdaBoost {
            rounds,
            base_depth: base_depth.max(1),
            stumps: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Default for AdaBoost {
    fn default() -> AdaBoost {
        AdaBoost::new(80, 2)
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        self.n_classes = n_classes;
        self.stumps.clear();
        let n = x.len();
        let mut w = vec![1.0 / n as f64; n];
        for _ in 0..self.rounds {
            let mut stump = DecisionTree::new(TreeConfig {
                max_depth: self.base_depth,
                ..TreeConfig::default()
            });
            stump.fit_weighted(x, y, &w, n_classes);
            let err: f64 = x
                .iter()
                .zip(y)
                .zip(&w)
                .filter(|((row, &label), _)| stump.predict(row) != label)
                .map(|(_, &wi)| wi)
                .sum();
            let err = err.clamp(1e-10, 1.0);
            if err >= 1.0 - 1.0 / n_classes as f64 {
                break; // worse than chance: stop boosting
            }
            // SAMME multiclass weight.
            let alpha = ((1.0 - err) / err).ln() + (n_classes as f64 - 1.0).ln();
            for ((row, &label), wi) in x.iter().zip(y).zip(&mut w) {
                if stump.predict(row) != label {
                    *wi *= alpha.exp();
                }
            }
            let total: f64 = w.iter().sum();
            w.iter_mut().for_each(|wi| *wi /= total);
            self.stumps.push((alpha, stump));
            if err < 1e-9 {
                break;
            }
        }
    }

    fn predict(&self, row: &[f64]) -> usize {
        let mut scores = vec![0.0f64; self.n_classes.max(1)];
        for (alpha, stump) in &self.stumps {
            scores[stump.predict(row)] += alpha;
        }
        argmax_f64(&scores)
    }

    fn name(&self) -> &'static str {
        "AdaBoost"
    }
}

pub(crate) fn argmax_f64(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

pub(crate) fn argmax_u32(xs: &[u32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by_key(|&(i, v)| (*v, core::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::testdata::blobs;

    fn train_acc(model: &mut dyn Classifier, classes: usize) -> f64 {
        let (x, y) = blobs(classes, 50, 4, 3);
        model.fit(&x, &y, classes);
        let pred: Vec<usize> = x.iter().map(|r| model.predict(r)).collect();
        accuracy(&y, &pred)
    }

    #[test]
    fn forest_fits_blobs() {
        let acc = train_acc(&mut RandomForest::default(), 4);
        assert!(acc > 0.95, "forest accuracy {acc}");
    }

    #[test]
    fn boosting_fits_blobs() {
        let acc = train_acc(&mut GradientBoosting::default(), 3);
        assert!(acc > 0.9, "gboost accuracy {acc}");
    }

    #[test]
    fn adaboost_fits_blobs() {
        let acc = train_acc(&mut AdaBoost::default(), 3);
        assert!(acc > 0.8, "adaboost accuracy {acc}");
    }

    #[test]
    fn forest_generalizes_better_than_chance() {
        let (x, y) = blobs(4, 60, 4, 3);
        let (xt, yt) = blobs(4, 20, 4, 99); // fresh draw, same centers
        let mut f = RandomForest::default();
        f.fit(&x, &y, 4);
        let pred: Vec<usize> = xt.iter().map(|r| f.predict(r)).collect();
        let acc = accuracy(&yt, &pred);
        assert!(acc > 0.7, "test accuracy {acc}");
    }

    #[test]
    fn argmax_helpers() {
        assert_eq!(argmax_f64(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax_u32(&[3, 3, 2]), 0, "ties break to the lower index");
    }
}
