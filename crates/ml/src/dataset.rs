//! Datasets, splits and feature scaling.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labeled dataset: dense feature rows and class labels `0..n_classes`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Feature rows.
    pub features: Vec<Vec<f64>>,
    /// Class label per row.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if rows and labels differ in length or rows differ in width.
    pub fn new(features: Vec<Vec<f64>>, labels: Vec<usize>) -> Dataset {
        assert_eq!(features.len(), labels.len(), "one label per row");
        if let Some(w) = features.first().map(Vec::len) {
            assert!(features.iter().all(|r| r.len() == w), "ragged feature rows");
        }
        Dataset { features, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of distinct classes (max label + 1).
    pub fn n_classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |&m| m + 1)
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Selects the rows at `idx` into a new dataset.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        Dataset {
            features: idx.iter().map(|&i| self.features[i].clone()).collect(),
            labels: idx.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// Standardizes features in place and returns the fitted scaler.
    pub fn standardize(&mut self) -> Scaler {
        let scaler = Scaler::fit(&self.features);
        for row in &mut self.features {
            scaler.transform_row(row);
        }
        scaler
    }
}

/// Per-feature standardization (zero mean, unit variance).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// Fits means and standard deviations on `rows`.
    pub fn fit(rows: &[Vec<f64>]) -> Scaler {
        if rows.is_empty() {
            return Scaler::default();
        }
        let d = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; d];
        for r in rows {
            for (m, &v) in means.iter_mut().zip(r) {
                *m += v / n;
            }
        }
        let mut stds = vec![0.0; d];
        for r in rows {
            for ((s, &m), &v) in stds.iter_mut().zip(&means).zip(r) {
                *s += (v - m).powi(2) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt().max(1e-12);
        }
        Scaler { means, stds }
    }

    /// Standardizes a row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }
}

/// Stratified `k`-fold cross-validation indices: each fold's test set has
/// (approximately) the same class proportions as the full dataset.
///
/// Returns `k` pairs `(train_indices, test_indices)`.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn stratified_kfold(labels: &[usize], k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "k-fold needs k >= 2");
    let mut rng = StdRng::seed_from_u64(seed);
    let n_classes = labels.iter().max().map_or(0, |&m| m + 1);
    // Shuffle within each class, then deal class members round-robin.
    let mut fold_of = vec![0usize; labels.len()];
    for c in 0..n_classes {
        let mut members: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == c).collect();
        members.shuffle(&mut rng);
        for (j, &i) in members.iter().enumerate() {
            fold_of[i] = j % k;
        }
    }
    (0..k)
        .map(|f| {
            let test: Vec<usize> = (0..labels.len()).filter(|&i| fold_of[i] == f).collect();
            let train: Vec<usize> = (0..labels.len()).filter(|&i| fold_of[i] != f).collect();
            (train, test)
        })
        .collect()
}

/// A shuffled train/test split with `test_frac` of the rows held out.
pub fn train_test_split(n: usize, test_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let n_test = ((n as f64) * test_frac).round() as usize;
    let test = idx[..n_test].to_vec();
    let train = idx[n_test..].to_vec();
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features = (0..30).map(|i| vec![i as f64, (i * 2) as f64]).collect();
        let labels = (0..30).map(|i| i % 3).collect();
        Dataset::new(features, labels)
    }

    #[test]
    fn basic_shape() {
        let d = toy();
        assert_eq!(d.len(), 30);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.n_features(), 2);
        let s = d.subset(&[0, 3, 6]);
        assert_eq!(s.labels, vec![0, 0, 0]);
    }

    #[test]
    fn standardize_zeroes_means() {
        let mut d = toy();
        d.standardize();
        let mean0: f64 = d.features.iter().map(|r| r[0]).sum::<f64>() / d.len() as f64;
        assert!(mean0.abs() < 1e-9);
        let var0: f64 = d.features.iter().map(|r| r[0] * r[0]).sum::<f64>() / d.len() as f64;
        assert!((var0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kfold_partitions_and_stratifies() {
        let d = toy();
        let folds = stratified_kfold(&d.labels, 10, 42);
        assert_eq!(folds.len(), 10);
        let mut seen = vec![0u32; d.len()];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), d.len());
            for &i in test {
                seen[i] += 1;
            }
            // Stratification: 30 samples, 3 classes, k=10 → each test fold
            // holds exactly one sample per class.
            for c in 0..3 {
                let count = test.iter().filter(|&&i| d.labels[i] == c).count();
                assert_eq!(count, 1, "fold must hold one sample of class {c}");
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "each sample tested exactly once"
        );
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let (train, test) = train_test_split(100, 0.25, 7);
        assert_eq!(test.len(), 25);
        assert_eq!(train.len(), 75);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        let _ = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1]);
    }
}
