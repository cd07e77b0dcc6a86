//! Content-addressed on-disk result cache.
//!
//! Entries are keyed by a 128-bit hash of `(experiment id, unit
//! fingerprint, scale, master seed, job version, job code fingerprint)`
//! and stored as JSON files under `<dir>/<experiment>/<digest>.json`.
//! Invalidation is surgical: the last two components come from the job
//! itself ([`crate::Job::version`] and [`crate::Job::fingerprint`] —
//! typically a per-crate source-hash manifest), so bumping one
//! experiment, or editing one crate, invalidates only the entries whose
//! results could actually change — never the whole cache.
//! Writes are atomic (temp file + rename), so a cache shared between a
//! parallel run's pool threads — or between concurrent invocations —
//! can never expose a torn entry; the worst case is both sides
//! computing and one rename winning. Within a process the run ledger
//! (`Ledger::record` and `Ledger::close`) is the only writer, for
//! every executor.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::hash::Hasher;
use crate::json::{self, Json};

/// Everything that addresses one cached result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Experiment id.
    pub experiment: String,
    /// Unit fingerprint, or a merge marker for finished results.
    pub unit: String,
    /// Scale identifier.
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Job result-schema version.
    pub job_version: u32,
    /// Job code fingerprint ([`crate::Job::fingerprint`]); empty for
    /// jobs that rely on `job_version` alone.
    pub fingerprint: String,
}

impl CacheKey {
    /// The content digest addressing this key.
    pub fn digest(&self) -> String {
        let mut h = Hasher::new();
        h.field(&self.experiment)
            .field(&self.unit)
            .field(&self.scale)
            .number(self.seed)
            .number(u64::from(self.job_version))
            .field(&self.fingerprint);
        h.digest()
    }
}

/// A directory of cached results.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (and lazily creates) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache { dir: dir.into() }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: &CacheKey) -> PathBuf {
        self.dir
            .join(&key.experiment)
            .join(format!("{}.json", key.digest()))
    }

    /// Looks a result up. Unreadable or corrupt entries read as misses
    /// (the runner recomputes and rewrites them).
    pub fn get(&self, key: &CacheKey) -> Option<Json> {
        let text = fs::read_to_string(self.path_of(key)).ok()?;
        json::parse(&text).ok()
    }

    /// Stores a result atomically.
    pub fn put(&self, key: &CacheKey, value: &Json) -> io::Result<()> {
        let path = self.path_of(key);
        let parent = path.parent().expect("cache paths have parents");
        fs::create_dir_all(parent)?;
        let tmp = parent.join(format!(
            ".{}.tmp.{}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("entry"),
            std::process::id()
        ));
        fs::write(&tmp, value.to_compact())?;
        fs::rename(&tmp, &path)
    }

    /// Removes every entry (best-effort; missing dir is fine).
    pub fn clear(&self) -> io::Result<()> {
        match fs::remove_dir_all(&self.dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> DiskCache {
        let dir = std::env::temp_dir().join(format!(
            "lh-harness-cache-test-{}-{tag}",
            std::process::id()
        ));
        let cache = DiskCache::new(dir);
        cache.clear().unwrap();
        cache
    }

    fn key(unit: &str) -> CacheKey {
        CacheKey {
            experiment: "fig4".into(),
            unit: unit.into(),
            scale: "quick".into(),
            seed: 1,
            job_version: 1,
            fingerprint: String::new(),
        }
    }

    #[test]
    fn round_trips_and_misses() {
        let cache = temp_cache("roundtrip");
        let value = Json::object().with("e", 0.125).with("n", 3i64);
        assert!(cache.get(&key("point:1")).is_none());
        cache.put(&key("point:1"), &value).unwrap();
        assert_eq!(cache.get(&key("point:1")), Some(value));
        assert!(
            cache.get(&key("point:2")).is_none(),
            "distinct units are distinct keys"
        );
        cache.clear().unwrap();
    }

    #[test]
    fn every_key_field_changes_the_digest() {
        let base = key("point:1");
        let digest = base.digest();
        let mut other = base.clone();
        other.unit = "point:2".into();
        assert_ne!(digest, other.digest());
        let mut other = base.clone();
        other.scale = "paper".into();
        assert_ne!(digest, other.digest());
        let mut other = base.clone();
        other.seed = 2;
        assert_ne!(digest, other.digest());
        let mut other = base.clone();
        other.job_version = 2;
        assert_ne!(digest, other.digest());
        let mut other = base.clone();
        other.fingerprint = "crates:abc123".into();
        assert_ne!(digest, other.digest());
        assert_eq!(digest, base.digest(), "digest must be pure");
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = temp_cache("corrupt");
        let k = key("point:1");
        cache.put(&k, &Json::Int(1)).unwrap();
        let path = cache
            .dir()
            .join("fig4")
            .join(format!("{}.json", k.digest()));
        std::fs::write(&path, "{not json").unwrap();
        assert!(cache.get(&k).is_none());
        // Nesting past the parser's depth cap is corrupt too, not fatal.
        std::fs::write(&path, "[".repeat(20_000)).unwrap();
        assert!(cache.get(&k).is_none());
        cache.clear().unwrap();
    }
}
