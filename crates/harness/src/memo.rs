//! In-process memoization shared across the units of one run.
//!
//! Some intermediates are expensive to build and identical across many
//! units — the canonical example is a sweep's decoded workload trace,
//! rebuilt per cell before trace memoization landed. [`Memo`] is a
//! string-keyed, type-erased store handed to every unit through
//! `JobContext`: the first unit to ask builds the value, every later
//! unit (in the same process) gets the cached `Arc`.
//!
//! The memo deliberately lives *outside* the result-cache contract: it
//! never touches cache keys (`unit_key` addresses results by scale,
//! seed, version and fingerprint alone), and a fresh process — a
//! distributed worker, a rerun — simply rebuilds entries on demand.
//! Values must therefore be pure functions of their key, and keys must
//! encode every input that distinguishes the value.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A shared, thread-safe build-once store. Cloning is cheap (it is an
/// `Arc` underneath) and clones see the same entries.
#[derive(Debug, Clone, Default)]
pub struct Memo {
    entries: Arc<Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>>,
}

impl Memo {
    /// An empty memo.
    pub fn new() -> Memo {
        Memo::default()
    }

    /// Returns the value under `key`, building it with `build` exactly
    /// once per process if absent. The map lock is held while `build`
    /// runs, so concurrent callers of the same key never duplicate the
    /// work — which also means `build` must not call back into the same
    /// memo (deadlock).
    ///
    /// # Panics
    ///
    /// Panics if `key` already holds a value of a different type.
    pub fn get_or_build<T, F>(&self, key: &str, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Arc<T>,
    {
        let mut entries = self.entries.lock().expect("memo poisoned");
        let entry = entries
            .entry(key.to_owned())
            .or_insert_with(|| build() as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("memo key '{key}' holds a different type"))
    }

    /// Number of memoized entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().expect("memo poisoned").len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn builds_exactly_once_per_key() {
        let memo = Memo::new();
        let builds = AtomicU32::new(0);
        for _ in 0..3 {
            let v = memo.get_or_build("k", || {
                builds.fetch_add(1, Ordering::SeqCst);
                Arc::new(41u64 + 1)
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn clones_share_entries() {
        let memo = Memo::new();
        let clone = memo.clone();
        let _ = memo.get_or_build("x", || Arc::new(String::from("v")));
        let v = clone.get_or_build("x", || -> Arc<String> { panic!("must reuse") });
        assert_eq!(&*v, "v");
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let memo = Memo::new();
        let builds = Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let memo = memo.clone();
                let builds = Arc::clone(&builds);
                s.spawn(move || {
                    let v = memo.get_or_build("k", || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        Arc::new(7u32)
                    });
                    assert_eq!(*v, 7);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let memo = Memo::new();
        let _ = memo.get_or_build("k", || Arc::new(1u32));
        let _ = memo.get_or_build("k", || Arc::new(1u64));
    }
}
