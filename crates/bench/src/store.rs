//! Content-addressed result store: memoized grid cells keyed by
//! `H(cell identity ‖ code version)`.
//!
//! Every grid cell is a deterministic function of two inputs — the
//! canonical cell identity (machine × scale ×
//! [`CellSpec`](crate::grid::CellSpec), the grid embedding of the
//! cell's [`Scenario`](crate::scenario::Scenario)) and the code that
//! interprets it. The store exploits that: it maps
//! the FNV-1a digest of those two inputs to the serialized
//! [`CellResult`] plus the deterministic stepping counters, so a
//! re-run recomputes only cells whose bytes or code actually changed.
//! Correctness is checkable bit-for-bit because both the identity and
//! the result round-trip byte-exactly through `bench::json`.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/                        default target/cuttlefish-store/,
//!                                overridable via --store/CUTTLEFISH_STORE
//!   objects/<hh>/<key16>.json    one entry per (identity, code version);
//!                                <hh> = first two hex digits of the key
//!   hints/<cell16>.json          last wall-clock per identity (any code
//!                                version) — the LPT dispatch cost model
//! ```
//!
//! Entries are immutable once written (content-addressed: same key ⇒
//! same bytes) and committed atomically (tmp file + rename), so
//! concurrent shards and concurrent grid invocations can share a root
//! without locking — the worst case is two writers racing to create
//! the identical entry. Hints are advisory and last-write-wins.
//!
//! # Invalidation
//!
//! There is no expiry and no mutation: a cell is invalidated by its
//! *key changing*. Flipping any identity byte (benchmark, scale,
//! config, fleet, seed, stepping mode, …) or any workspace source byte
//! (the build-time fingerprint from `build.rs`, override
//! `CUTTLEFISH_CODE_VERSION`) yields a fresh key and therefore a miss;
//! stale entries linger harmlessly until [`Store::gc`] sweeps the ones
//! whose recorded code version no longer matches. A corrupt or
//! truncated entry never replays: [`Store::load`] re-derives the
//! result digest from the decoded bytes and treats any mismatch — or
//! any parse failure — as a miss, falling back to recompute (which
//! rewrites the entry).

use crate::grid::{CellResult, CellTiming};
use crate::json::{FromJson, Json, ToJson};
use crate::scenario::obj;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format tag embedded in every store entry.
pub const ENTRY_SCHEMA: &str = "cuttlefish/store-entry/v1";

/// Format tag embedded in every wall-clock hint.
pub const HINT_SCHEMA: &str = "cuttlefish/store-hint/v1";

/// The workspace source digest baked in at build time (see
/// `crates/bench/build.rs`) — the default code-version half of every
/// store key.
pub const BUILD_FINGERPRINT: &str = env!("CUTTLEFISH_CODE_FINGERPRINT");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `bytes` — the store's one hash, hand-rolled like the
/// rest of `bench::json`'s determinism discipline (no new deps).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The two digests addressing one cell in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellKey {
    /// `H(identity)` — code-version independent. Addresses the
    /// wall-clock hint, so cost estimates survive code changes.
    pub cell_hash: u64,
    /// `H(identity ‖ 0x00 ‖ code version)` — the store key proper.
    pub key_hash: u64,
}

impl CellKey {
    /// The store key as the 16-hex-digit entry filename stem.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.key_hash)
    }

    /// The identity digest as 16 hex digits (the hint filename stem).
    pub fn cell_hex(&self) -> String {
        format!("{:016x}", self.cell_hash)
    }
}

/// One decoded, digest-verified store entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// The memoized cell result, byte-identical to the miss path's.
    pub result: CellResult,
    /// `[stepped, idle_advanced, busy_advanced, total]` quanta of the
    /// committing run — deterministic virtual quantities, so a hit
    /// restores them verbatim (the fast-forward CI floors stay honest
    /// on warm runs).
    pub quanta: [u64; 4],
    /// Host wall-clock of the committing run, milliseconds.
    pub wall_ms: f64,
}

impl StoreEntry {
    /// Replay the entry as an executed cell: its result, plus a
    /// `cached` timing that restores the committing run's quanta and
    /// records `load_ms`, what the hit itself took, as its wall-clock.
    pub fn replay(self, load_ms: f64) -> (CellResult, CellTiming) {
        let [stepped, idle, busy, total] = self.quanta;
        (
            self.result,
            CellTiming {
                wall_ms: load_ms,
                cached: true,
                stepped_quanta: stepped,
                idle_advanced_quanta: idle,
                busy_advanced_quanta: busy,
                total_quanta: total,
            },
        )
    }
}

/// Cheap per-entry metadata for `store ls`/`verify`/`gc`.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryMeta {
    /// Entry key, 16 hex digits.
    pub key: String,
    /// Identity digest, 16 hex digits.
    pub cell: String,
    /// Code version the entry was computed under.
    pub code_version: String,
    /// Benchmark name (display only).
    pub bench: String,
    /// Setup label (display only).
    pub label: String,
    /// Wall-clock of the committing run, milliseconds.
    pub wall_ms: f64,
    /// Entry file size, bytes.
    pub bytes: u64,
}

/// Aggregate shape of a store — the `store stats` subcommand and the
/// serve daemon's `stats` response share this one computation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreStats {
    /// Decodable entries under `objects/`.
    pub entries: u64,
    /// Entry files that failed to decode (still counted in `bytes`).
    pub corrupt: u64,
    /// Total bytes of all entry files.
    pub bytes: u64,
    /// Distinct code versions across the decodable entries.
    pub code_versions: u64,
    /// Wall-clock hint files under `hints/`.
    pub hints: u64,
    /// Fraction of the distinct cell identities among decodable
    /// entries that have a hint (the LPT cost model's coverage);
    /// `1.0` for an empty store.
    pub hint_coverage: f64,
}

impl ToJson for StoreStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("entries", Json::Num(self.entries as f64)),
            ("corrupt", Json::Num(self.corrupt as f64)),
            ("bytes", Json::Num(self.bytes as f64)),
            ("code_versions", Json::Num(self.code_versions as f64)),
            ("hints", Json::Num(self.hints as f64)),
            ("hint_coverage", Json::Num(self.hint_coverage)),
        ])
    }
}

impl FromJson for StoreStats {
    fn from_json(j: &Json) -> Result<Self, crate::json::JsonError> {
        Ok(StoreStats {
            entries: j.field("entries")?.as_u64()?,
            corrupt: j.field("corrupt")?.as_u64()?,
            bytes: j.field("bytes")?.as_u64()?,
            code_versions: j.field("code_versions")?.as_u64()?,
            hints: j.field("hints")?.as_u64()?,
            hint_coverage: j.field("hint_coverage")?.as_f64()?,
        })
    }
}

/// What [`Store::gc`] swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Entries whose code version still matches.
    pub kept: usize,
    /// Entries removed (stale code version or undecodable).
    pub removed: usize,
    /// Bytes freed by the removals.
    pub bytes_freed: u64,
}

/// A content-addressed result store rooted at one directory.
///
/// Opening is free (no I/O); directories are created lazily on the
/// first commit, so a read-only consumer never writes.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    code_version: String,
}

/// Resolve the store root: explicit flag value, else the
/// `CUTTLEFISH_STORE` environment variable, else
/// `target/cuttlefish-store`.
pub fn resolve_root(flag: Option<PathBuf>) -> PathBuf {
    flag.or_else(|| std::env::var_os("CUTTLEFISH_STORE").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target/cuttlefish-store"))
}

impl Store {
    /// Open a store at `root` under the build's own code version
    /// ([`BUILD_FINGERPRINT`], overridable at runtime via the
    /// `CUTTLEFISH_CODE_VERSION` environment variable — the lever CI
    /// uses to force cold runs without touching sources).
    pub fn open(root: impl Into<PathBuf>) -> Store {
        let code_version = std::env::var("CUTTLEFISH_CODE_VERSION")
            .unwrap_or_else(|_| BUILD_FINGERPRINT.to_string());
        Store {
            root: root.into(),
            code_version,
        }
    }

    /// Open a store pinned to an explicit code version — the test
    /// hook for exercising fingerprint invalidation without the
    /// process-global environment variable.
    pub fn with_code_version(root: impl Into<PathBuf>, code_version: impl Into<String>) -> Store {
        Store {
            root: root.into(),
            code_version: code_version.into(),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The code-version fingerprint keys are derived under.
    pub fn code_version(&self) -> &str {
        &self.code_version
    }

    /// Derive the store key for one canonical identity:
    /// `cell_hash = H(identity)`,
    /// `key_hash = H(identity ‖ 0x00 ‖ code version)`.
    pub fn key(&self, identity: &[u8]) -> CellKey {
        let cell_hash = fnv1a64(identity);
        let mut key_hash = fnv1a64_update(fnv1a64(identity), &[0]);
        key_hash = fnv1a64_update(key_hash, self.code_version.as_bytes());
        CellKey {
            cell_hash,
            key_hash,
        }
    }

    fn entry_path(&self, key: &CellKey) -> PathBuf {
        let hex = key.hex();
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.json"))
    }

    fn hint_path(&self, key: &CellKey) -> PathBuf {
        self.root
            .join("hints")
            .join(format!("{}.json", key.cell_hex()))
    }

    /// Load and verify the entry for `key`. Returns `None` on *any*
    /// defect — missing, truncated, undecodable, wrong key, wrong code
    /// version, or result-digest mismatch — so the caller's only
    /// fallback is the one that is always correct: recompute.
    pub fn load(&self, key: &CellKey) -> Option<StoreEntry> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        self.decode_entry(key, &text).ok()
    }

    fn decode_entry(&self, key: &CellKey, text: &str) -> Result<StoreEntry, String> {
        let j = Json::parse(text).map_err(|e| e.0)?;
        let schema = j.field("schema").and_then(Json::as_str).map_err(|e| e.0)?;
        if schema != ENTRY_SCHEMA {
            return Err(format!("unsupported entry schema `{schema}`"));
        }
        let stored_key = j.field("key").and_then(Json::as_str).map_err(|e| e.0)?;
        if stored_key != key.hex() {
            return Err(format!(
                "entry key `{stored_key}` != requested `{}`",
                key.hex()
            ));
        }
        let cv = j
            .field("code_version")
            .and_then(Json::as_str)
            .map_err(|e| e.0)?;
        if cv != self.code_version {
            return Err(format!(
                "entry code version `{cv}` != current `{}`",
                self.code_version
            ));
        }
        let result = CellResult::from_json(j.field("result").map_err(|e| e.0)?).map_err(|e| e.0)?;
        let digest = j
            .field("result_digest")
            .and_then(Json::as_str)
            .map_err(|e| e.0)?;
        let actual = format!("{:016x}", fnv1a64(result.to_json().to_pretty().as_bytes()));
        if digest != actual {
            return Err(format!(
                "result digest mismatch (stored {digest}, decoded {actual})"
            ));
        }
        let quanta_field = |name: &str| -> Result<u64, String> {
            j.field(name).and_then(Json::as_u64).map_err(|e| e.0)
        };
        Ok(StoreEntry {
            result,
            quanta: [
                quanta_field("stepped_quanta")?,
                quanta_field("idle_advanced_quanta")?,
                quanta_field("busy_advanced_quanta")?,
                quanta_field("total_quanta")?,
            ],
            wall_ms: j.field("wall_ms").and_then(Json::as_f64).map_err(|e| e.0)?,
        })
    }

    /// Commit one executed cell under `key`, atomically, plus its
    /// wall-clock hint. Never called for a hit, so the miss-path wall
    /// clock in `timing` is the genuine compute cost.
    pub fn commit(
        &self,
        key: &CellKey,
        result: &CellResult,
        timing: &CellTiming,
    ) -> io::Result<()> {
        let result_json = result.to_json().to_pretty();
        let entry = obj(vec![
            ("schema", Json::Str(ENTRY_SCHEMA.into())),
            ("key", Json::Str(key.hex())),
            ("cell", Json::Str(key.cell_hex())),
            ("code_version", Json::Str(self.code_version.clone())),
            ("bench", Json::Str(result.spec.bench.clone())),
            ("label", Json::Str(result.spec.label.clone())),
            ("wall_ms", Json::Num(timing.wall_ms)),
            ("stepped_quanta", Json::Num(timing.stepped_quanta as f64)),
            (
                "idle_advanced_quanta",
                Json::Num(timing.idle_advanced_quanta as f64),
            ),
            (
                "busy_advanced_quanta",
                Json::Num(timing.busy_advanced_quanta as f64),
            ),
            ("total_quanta", Json::Num(timing.total_quanta as f64)),
            (
                "result_digest",
                Json::Str(format!("{:016x}", fnv1a64(result_json.as_bytes()))),
            ),
            ("result", Json::parse(&result_json).expect("canonical JSON")),
        ]);
        write_atomic(&self.entry_path(key), &entry.to_pretty())?;
        let hint = obj(vec![
            ("schema", Json::Str(HINT_SCHEMA.into())),
            ("wall_ms", Json::Num(timing.wall_ms)),
        ]);
        write_atomic(&self.hint_path(key), &hint.to_pretty())
    }

    /// [`commit`](Store::commit) for a caller that has its result
    /// either way: a full or unwritable store is a performance bug, not
    /// a result bug, so a failure is warned about and the caller
    /// continues uncached. Returns whether the entry was committed.
    pub fn commit_or_warn(&self, key: &CellKey, result: &CellResult, timing: &CellTiming) -> bool {
        match self.commit(key, result, timing) {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "warning: store commit failed for {} ({e}); continuing uncached",
                    key.hex()
                );
                false
            }
        }
    }

    /// Last recorded compute wall-clock for this cell identity, under
    /// *any* code version — the LPT dispatch cost estimate. `None`
    /// means the cell was never computed here (dispatch first, at
    /// estimated-max).
    pub fn wall_hint(&self, key: &CellKey) -> Option<f64> {
        let text = std::fs::read_to_string(self.hint_path(key)).ok()?;
        let j = Json::parse(&text).ok()?;
        if j.field("schema").and_then(Json::as_str).ok()? != HINT_SCHEMA {
            return None;
        }
        j.field("wall_ms").and_then(Json::as_f64).ok()
    }

    /// Every hint file under `hints/`, sorted by cell digest.
    pub fn hint_files(&self) -> Vec<PathBuf> {
        let mut files = Vec::new();
        if let Ok(entries) = std::fs::read_dir(self.root.join("hints")) {
            files.extend(
                entries
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|e| e == "json")),
            );
        }
        files.sort();
        files
    }

    /// Aggregate shape of the store: entry/byte counts, distinct code
    /// versions, and how much of the cell population the LPT wall-clock
    /// hints cover. One directory sweep, no digest verification.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        let mut versions: std::collections::BTreeSet<String> = Default::default();
        let mut cells: std::collections::BTreeSet<String> = Default::default();
        for path in self.entry_files() {
            stats.bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            match Store::describe(&path) {
                Ok(meta) => {
                    stats.entries += 1;
                    versions.insert(meta.code_version);
                    cells.insert(meta.cell);
                }
                Err(_) => stats.corrupt += 1,
            }
        }
        stats.code_versions = versions.len() as u64;
        let hinted: std::collections::BTreeSet<String> = self
            .hint_files()
            .iter()
            .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(str::to_string))
            .collect();
        stats.hints = hinted.len() as u64;
        stats.hint_coverage = if cells.is_empty() {
            1.0
        } else {
            cells.iter().filter(|c| hinted.contains(*c)).count() as f64 / cells.len() as f64
        };
        stats
    }

    /// Every entry file under `objects/`, sorted by key (the two-hex
    /// prefix directory is the key's own first two digits, so the
    /// lexicographic path order *is* ascending key order — `store ls`
    /// output must not depend on filesystem directory-iteration order).
    pub fn entry_files(&self) -> Vec<PathBuf> {
        let mut files = Vec::new();
        let objects = self.root.join("objects");
        let Ok(prefixes) = std::fs::read_dir(&objects) else {
            return files;
        };
        for prefix in prefixes.flatten() {
            if let Ok(entries) = std::fs::read_dir(prefix.path()) {
                files.extend(
                    entries
                        .flatten()
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_some_and(|e| e == "json")),
                );
            }
        }
        files.sort();
        files
    }

    /// Decode one entry file's metadata without verifying digests —
    /// the `store ls` view. Errors name the defect.
    pub fn describe(path: &Path) -> Result<EntryMeta, String> {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let j = Json::parse(&text).map_err(|e| e.0)?;
        let field = |name: &str| -> Result<String, String> {
            Ok(j.field(name)
                .and_then(Json::as_str)
                .map_err(|e| e.0)?
                .to_string())
        };
        Ok(EntryMeta {
            key: field("key")?,
            cell: field("cell")?,
            code_version: field("code_version")?,
            bench: field("bench")?,
            label: field("label")?,
            wall_ms: j.field("wall_ms").and_then(Json::as_f64).map_err(|e| e.0)?,
            bytes,
        })
    }

    /// Fully verify one entry file: decodable, schema and filename
    /// consistent, result digest intact. The `store verify` workhorse.
    pub fn verify_file(&self, path: &Path) -> Result<EntryMeta, String> {
        let meta = Store::describe(path)?;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| "entry filename is not UTF-8".to_string())?;
        if stem != meta.key {
            return Err(format!("filename `{stem}` != entry key `{}`", meta.key));
        }
        let key_hash = u64::from_str_radix(&meta.key, 16)
            .map_err(|_| format!("entry key `{}` is not 16 hex digits", meta.key))?;
        let cell_hash = u64::from_str_radix(&meta.cell, 16)
            .map_err(|_| format!("entry cell `{}` is not 16 hex digits", meta.cell))?;
        let key = CellKey {
            cell_hash,
            key_hash,
        };
        // Digest + schema verification, under the entry's own recorded
        // code version: `verify` audits integrity, not freshness.
        let pinned = Store::with_code_version(&self.root, meta.code_version.clone());
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        pinned.decode_entry(&key, &text)?;
        Ok(meta)
    }

    /// Sweep entries that can never hit again under the current code
    /// version: stale fingerprints and undecodable files. Hints are
    /// kept — they are the cost model that survives code changes.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for path in self.entry_files() {
            let fresh = Store::describe(&path).is_ok_and(|m| m.code_version == self.code_version);
            if fresh {
                report.kept += 1;
            } else {
                report.bytes_freed += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(&path)?;
                report.removed += 1;
            }
        }
        Ok(report)
    }

    /// Remove every entry whose key starts with `prefix` (hex digits).
    /// Returns how many were removed.
    pub fn remove_prefix(&self, prefix: &str) -> io::Result<usize> {
        let mut removed = 0;
        for path in self.entry_files() {
            let matches = path
                .file_stem()
                .and_then(|s| s.to_str())
                .is_some_and(|stem| stem.starts_with(prefix));
            if matches {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Write `contents` to `path` atomically: unique tmp file in the same
/// directory, then rename. Concurrent committers of the same key race
/// benignly — both rename identical bytes into place.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().expect("store paths have parents");
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".tmp.{}.{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn keys_separate_identity_and_code_version() {
        let a = Store::with_code_version("/tmp/unused", "v1");
        let b = Store::with_code_version("/tmp/unused", "v2");
        let k1 = a.key(b"identity");
        let k2 = b.key(b"identity");
        let k3 = a.key(b"identitz");
        // Same identity: shared hint address, distinct store keys.
        assert_eq!(k1.cell_hash, k2.cell_hash);
        assert_ne!(k1.key_hash, k2.key_hash);
        // Different identity: everything moves.
        assert_ne!(k1.cell_hash, k3.cell_hash);
        assert_ne!(k1.key_hash, k3.key_hash);
        // The concatenation is separator-guarded: identity bytes must
        // not bleed into the code version.
        assert_ne!(
            a.key(b"ab").key_hash,
            Store::with_code_version("/tmp/unused", "bv1")
                .key(b"a")
                .key_hash
        );
    }
}
