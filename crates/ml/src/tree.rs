//! CART decision trees: weighted classification (gini) and regression
//! (variance reduction). These are the base learners for the random
//! forest, gradient boosting and AdaBoost models.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::Classifier;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Class index (classification) or mean value (regression, stored
        /// in `value`).
        class: usize,
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Shared tree-growing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth (1 = a stump).
    pub max_depth: usize,
    /// Do not split nodes with fewer (weighted-equivalent) samples.
    pub min_samples_split: usize,
    /// Features considered per split; `None` = all, `Some(k)` = a random
    /// subset of `k` (random-forest style).
    pub feature_subset: Option<usize>,
    /// RNG seed for feature subsetting.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            feature_subset: None,
            seed: 0,
        }
    }
}

/// A weighted CART classification tree (gini impurity).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: TreeConfig,
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    /// Creates an untrained tree.
    pub fn new(config: TreeConfig) -> DecisionTree {
        DecisionTree {
            config,
            nodes: Vec::new(),
            n_classes: 0,
        }
    }

    /// A depth-1 stump (AdaBoost base learner).
    #[cfg(test)]
    pub(crate) fn stump() -> DecisionTree {
        DecisionTree::new(TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        })
    }

    /// Fits with per-sample weights.
    pub(crate) fn fit_weighted(
        &mut self,
        x: &[Vec<f64>],
        y: &[usize],
        w: &[f64],
        n_classes: usize,
    ) {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), w.len());
        self.n_classes = n_classes;
        self.nodes.clear();
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.grow(x, y, w, idx, 0, &mut rng);
    }

    fn leaf(&mut self, y: &[usize], w: &[f64], idx: &[usize]) -> usize {
        let mut mass = vec![0.0; self.n_classes];
        for &i in idx {
            mass[y[i]] += w[i];
        }
        let class = mass
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("weights are finite"))
            .map(|(c, _)| c)
            .unwrap_or(0);
        self.nodes.push(Node::Leaf {
            class,
            value: class as f64,
        });
        self.nodes.len() - 1
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[usize],
        w: &[f64],
        idx: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let first = y[idx[0]];
        let pure = idx.iter().all(|&i| y[i] == first);
        if pure || depth >= self.config.max_depth || idx.len() < self.config.min_samples_split {
            return self.leaf(y, w, &idx);
        }
        let Some((feature, threshold)) =
            best_split(x, &idx, rng, self.config.feature_subset, |lhs, rhs| {
                gini_gain(y, w, lhs, rhs, self.n_classes)
            })
        else {
            return self.leaf(y, w, &idx);
        };
        let (lhs, rhs): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][feature] <= threshold);
        if lhs.is_empty() || rhs.is_empty() {
            return self.leaf(y, w, &idx);
        }
        let placeholder = self.nodes.len();
        self.nodes.push(Node::Leaf {
            class: 0,
            value: 0.0,
        });
        let left = self.grow(x, y, w, lhs, depth + 1, rng);
        let right = self.grow(x, y, w, rhs, depth + 1, rng);
        self.nodes[placeholder] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        placeholder
    }

    fn predict_node(&self, row: &[f64]) -> &Node {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                n @ Node::Leaf { .. } => return n,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let w = vec![1.0; x.len()];
        self.fit_weighted(x, y, &w, n_classes);
    }

    fn predict(&self, row: &[f64]) -> usize {
        match self.predict_node(row) {
            Node::Leaf { class, .. } => *class,
            Node::Split { .. } => unreachable!(),
        }
    }

    fn name(&self) -> &'static str {
        "Decision Tree"
    }
}

/// A regression tree (mean-squared-error splits) for gradient boosting.
#[derive(Debug, Clone)]
pub(crate) struct RegressionTree {
    config: TreeConfig,
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Creates an untrained regression tree.
    pub(crate) fn new(config: TreeConfig) -> RegressionTree {
        RegressionTree {
            config,
            nodes: Vec::new(),
        }
    }

    /// Fits targets `t`.
    pub(crate) fn fit(&mut self, x: &[Vec<f64>], t: &[f64]) {
        assert_eq!(x.len(), t.len());
        self.nodes.clear();
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.grow(x, t, idx, 0, &mut rng);
    }

    fn leaf(&mut self, t: &[f64], idx: &[usize]) -> usize {
        let mean = idx.iter().map(|&i| t[i]).sum::<f64>() / idx.len() as f64;
        self.nodes.push(Node::Leaf {
            class: 0,
            value: mean,
        });
        self.nodes.len() - 1
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        t: &[f64],
        idx: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        if depth >= self.config.max_depth || idx.len() < self.config.min_samples_split {
            return self.leaf(t, &idx);
        }
        let Some((feature, threshold)) =
            best_split(x, &idx, rng, self.config.feature_subset, |lhs, rhs| {
                variance_gain(t, lhs, rhs)
            })
        else {
            return self.leaf(t, &idx);
        };
        let (lhs, rhs): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][feature] <= threshold);
        if lhs.is_empty() || rhs.is_empty() {
            return self.leaf(t, &idx);
        }
        let placeholder = self.nodes.len();
        self.nodes.push(Node::Leaf {
            class: 0,
            value: 0.0,
        });
        let left = self.grow(x, t, lhs, depth + 1, rng);
        let right = self.grow(x, t, rhs, depth + 1, rng);
        self.nodes[placeholder] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        placeholder
    }

    /// Predicts the target for one row.
    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Finds the `(feature, threshold)` with the highest `gain(lhs, rhs)`
/// over candidate thresholds (midpoints of sorted distinct values).
fn best_split<G: Fn(&[usize], &[usize]) -> f64>(
    x: &[Vec<f64>],
    idx: &[usize],
    rng: &mut StdRng,
    feature_subset: Option<usize>,
    gain: G,
) -> Option<(usize, f64)> {
    let n_features = x[0].len();
    let mut features: Vec<usize> = (0..n_features).collect();
    if let Some(k) = feature_subset {
        features.shuffle(rng);
        features.truncate(k.clamp(1, n_features));
    }
    let mut best: Option<(f64, usize, f64)> = None;
    for &f in &features {
        let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        // Cap candidate thresholds to bound tree-building cost.
        let step = (vals.len() / 32).max(1);
        for pair in vals.windows(2).step_by(step) {
            let threshold = (pair[0] + pair[1]) / 2.0;
            let (lhs, rhs): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| x[i][f] <= threshold);
            if lhs.is_empty() || rhs.is_empty() {
                continue;
            }
            let g = gain(&lhs, &rhs);
            if best.is_none_or(|(bg, _, _)| g > bg) {
                best = Some((g, f, threshold));
            }
        }
    }
    best.filter(|&(g, _, _)| g > 1e-12).map(|(_, f, t)| (f, t))
}

fn gini(y: &[usize], w: &[f64], idx: &[usize], n_classes: usize) -> (f64, f64) {
    let mut mass = vec![0.0; n_classes];
    let mut total = 0.0;
    for &i in idx {
        mass[y[i]] += w[i];
        total += w[i];
    }
    if total == 0.0 {
        return (0.0, 0.0);
    }
    let g = 1.0 - mass.iter().map(|m| (m / total).powi(2)).sum::<f64>();
    (g, total)
}

fn gini_gain(y: &[usize], w: &[f64], lhs: &[usize], rhs: &[usize], n_classes: usize) -> f64 {
    let (gl, wl) = gini(y, w, lhs, n_classes);
    let (gr, wr) = gini(y, w, rhs, n_classes);
    let total = wl + wr;
    let all: Vec<usize> = lhs.iter().chain(rhs).copied().collect();
    let (g0, _) = gini(y, w, &all, n_classes);
    g0 - (wl / total) * gl - (wr / total) * gr
}

fn variance_gain(t: &[f64], lhs: &[usize], rhs: &[usize]) -> f64 {
    fn sse(t: &[f64], idx: &[usize]) -> f64 {
        let mean = idx.iter().map(|&i| t[i]).sum::<f64>() / idx.len() as f64;
        idx.iter().map(|&i| (t[i] - mean).powi(2)).sum()
    }
    let all: Vec<usize> = lhs.iter().chain(rhs).copied().collect();
    sse(t, &all) - sse(t, lhs) - sse(t, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::blobs;

    #[test]
    fn tree_separates_blobs() {
        let (x, y) = blobs(3, 60, 4, 11);
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, 3);
        let acc = crate::metrics::accuracy(&y, &x.iter().map(|r| t.predict(r)).collect::<Vec<_>>());
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn stump_has_at_most_three_nodes() {
        let (x, y) = blobs(2, 40, 2, 5);
        let mut s = DecisionTree::stump();
        s.fit(&x, &y, 2);
        assert!(s.node_count() <= 3, "{} nodes", s.node_count());
    }

    #[test]
    fn weighted_fit_follows_the_heavy_samples() {
        // Two classes at the same x; weights decide the leaf label.
        let x = vec![vec![0.0], vec![0.0], vec![0.0]];
        let y = vec![0, 1, 1];
        let mut t = DecisionTree::stump();
        t.fit_weighted(&x, &y, &[10.0, 1.0, 1.0], 2);
        assert_eq!(t.predict(&[0.0]), 0, "heavy class-0 sample must win");
        t.fit_weighted(&x, &y, &[1.0, 10.0, 10.0], 2);
        assert_eq!(t.predict(&[0.0]), 1);
    }

    #[test]
    fn regression_tree_fits_a_step_function() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let t: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mut r = RegressionTree::new(TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        });
        r.fit(&x, &t);
        assert!((r.predict(&[10.0]) - 1.0).abs() < 0.2);
        assert!((r.predict(&[90.0]) - 5.0).abs() < 0.2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, 2);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[99.0]), 1);
    }
}
