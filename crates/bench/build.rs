//! Build-time code-version fingerprint for the content-addressed
//! result store (`bench::store`).
//!
//! The store's cache key is `H(cell identity ‖ code version)`: any
//! source change that could move a deterministic result must change
//! the code version, or stale entries would replay as fresh results.
//! Release numbers are far too coarse (every PR changes behaviour) and
//! git metadata is unavailable to a plain `cargo build`, so the
//! fingerprint is a digest of the workspace sources themselves: every
//! `*.rs` and `Cargo.toml` under `crates/`, plus the root manifest and
//! lockfile, hashed with the same FNV-1a the store uses at runtime.
//! Conservative by design — a comment edit invalidates the
//! store — because recomputing a cell is cheap and replaying a wrong
//! one is not.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Collect every fingerprinted file under `dir` (recursively):
/// `*.rs` sources and `Cargo.toml` manifests.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // `target/` never lives under crates/, but guard anyway:
            // derived artifacts must not feed the fingerprint.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

fn main() {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap());
    let root = manifest.ancestors().nth(2).unwrap().to_path_buf();

    let crates = root.join("crates");
    let mut files = Vec::new();
    collect(&crates, &mut files);
    for extra in ["Cargo.toml", "Cargo.lock"] {
        let path = root.join(extra);
        if path.is_file() {
            files.push(path);
        }
    }

    // Deterministic order: sort by the workspace-relative path, and
    // hash that path alongside the contents so renames invalidate too.
    files.sort();
    let mut hash = FNV_OFFSET;
    let mut buf = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        hash = fnv1a_update(hash, rel.to_string_lossy().as_bytes());
        hash = fnv1a_update(hash, &[0]);
        buf.clear();
        if let Ok(mut f) = fs::File::open(path) {
            let _ = f.read_to_end(&mut buf);
        }
        hash = fnv1a_update(hash, &buf);
        hash = fnv1a_update(hash, &[0]);
        println!("cargo:rerun-if-changed={}", path.display());
    }
    // New/removed files change the sorted list only once cargo reruns
    // us; watching the directory makes additions trigger that rerun.
    println!("cargo:rerun-if-changed={}", crates.display());

    println!("cargo:rustc-env=CUTTLEFISH_CODE_FINGERPRINT={hash:016x}");
}
