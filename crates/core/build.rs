//! Computes the per-crate source-hash manifest the harness adapters
//! fold into their cache keys ([`lh_harness::Job::fingerprint`]): one
//! 128-bit digest per workspace crate whose code can influence an
//! experiment's results. Editing a crate changes only its digest, so
//! the on-disk result cache invalidates surgically — jobs whose results
//! never flow through the edited crate keep their entries. A digest
//! covers each file's tokens, not its bytes (`build/tokens.rs`), so an
//! edit to comments or layout alone invalidates nothing.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

include!("build/tokens.rs");

// The cache's own hasher, compiled into this script from its source.
#[allow(dead_code)]
#[path = "../harness/src/hash.rs"]
mod hash;

use hash::Hasher;

/// The crates whose code can affect experiment results, with their
/// source roots relative to this crate's manifest dir. The harness
/// itself is included (seed derivation and merge order live there), as
/// is the vendored `rand` stand-in: its RNG implementation directly
/// determines every sampled value, so an edit there must invalidate
/// cached results even though it lives under `crates/compat/`.
const CRATES: &[(&str, &str)] = &[
    ("leakyhammer", "src"),
    ("lh-analysis", "../analysis/src"),
    ("lh-attacks", "../attacks/src"),
    ("lh-defenses", "../defenses/src"),
    ("lh-dram", "../dram/src"),
    ("lh-harness", "../harness/src"),
    ("lh-link", "../link/src"),
    ("lh-memctrl", "../memctrl/src"),
    ("lh-mitigate", "../mitigate/src"),
    ("lh-ml", "../ml/src"),
    ("lh-obs", "../obs/src"),
    ("lh-sim", "../sim/src"),
    ("lh-workloads", "../workloads/src"),
    ("rand", "../compat/rand/src"),
];

/// All `.rs` files under `root`, sorted so the digest is independent of
/// directory-walk order.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn crate_digest(manifest_dir: &Path, rel_src: &str) -> String {
    let root = manifest_dir.join(rel_src);
    let mut h = Hasher::new();
    for file in rust_sources(&root) {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        h.field(&rel);
        let src = std::fs::read_to_string(&file).unwrap_or_default();
        h.update(normalize_source(&src).as_bytes());
    }
    h.digest()
}

fn main() {
    let manifest_dir = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let mut out = String::from(
        "/// Build-time source digests: (crate name, 128-bit content hash).\n\
         pub(super) static CODE_MANIFEST: &[(&str, &str)] = &[\n",
    );
    for (name, rel_src) in CRATES {
        println!(
            "cargo:rerun-if-changed={}",
            manifest_dir.join(rel_src).display()
        );
        let digest = crate_digest(&manifest_dir, rel_src);
        writeln!(out, "    (\"{name}\", \"{digest}\"),").expect("write to string");
    }
    out.push_str("];\n");
    let out_path = PathBuf::from(std::env::var("OUT_DIR").expect("set by cargo"));
    std::fs::write(out_path.join("code_manifest.rs"), out).expect("write manifest");
}
