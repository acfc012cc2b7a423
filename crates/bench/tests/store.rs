//! Result-store integration tests: the memoization contract the warm
//! CI stage depends on. A hit must reproduce the miss path's
//! `GridResult` byte for byte; any identity or code-version change
//! must miss; corrupt entries must be detected and recomputed; and
//! shard-invariance must survive mixed hit/miss grids.

use bench::grid::{run_scenario_timed, AxisSet, GridSetup, GridSpec};
use bench::store::Store;
use bench::Setup;
use cuttlefish::Policy;
use std::path::PathBuf;

/// Fresh per-test store root (tests run in parallel; names must not
/// collide, and a stale root from a crashed run must not leak in).
fn test_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cuttlefish-store-test-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small grid with heterogeneous cell costs: two benchmarks under a
/// baseline and a tuned setup.
fn tiny_spec() -> GridSpec {
    let mut spec = GridSpec::new("store-test", 0.02);
    spec.push(AxisSet::new(
        vec!["UTS".into(), "SOR-irt".into()],
        vec![
            GridSetup::new("Default", Setup::Default),
            GridSetup::new("Cuttlefish", Setup::Cuttlefish(Policy::Both)),
        ],
    ));
    spec
}

/// The same grid restricted to one benchmark — a strict subset of
/// [`tiny_spec`]'s cells, for half-warming a store.
fn half_spec() -> GridSpec {
    let mut spec = GridSpec::new("store-test", 0.02);
    spec.push(AxisSet::new(
        vec!["UTS".into()],
        vec![
            GridSetup::new("Default", Setup::Default),
            GridSetup::new("Cuttlefish", Setup::Cuttlefish(Policy::Both)),
        ],
    ));
    spec
}

#[test]
fn warm_rerun_is_all_hits_and_bit_identical() {
    let store = Store::with_code_version(test_root("warm"), "cv-test");
    let spec = tiny_spec();

    let (cold, cold_t) = spec.run_timed_store(2, Some(&store));
    let cache = cold_t.cache.expect("store run reports cache stats");
    assert_eq!((cache.hits, cache.misses), (0, 4), "fresh store: all miss");
    assert!(cold_t.cells.iter().all(|c| !c.cached));

    let (warm, warm_t) = spec.run_timed_store(2, Some(&store));
    let cache = warm_t.cache.expect("cache stats");
    assert_eq!((cache.hits, cache.misses), (4, 0), "warm store: all hit");
    assert!((cache.hit_rate() - 1.0).abs() < 1e-12);
    assert!(warm_t.cells.iter().all(|c| c.cached));
    assert_eq!(
        warm.to_json_string(),
        cold.to_json_string(),
        "a hit must reproduce the miss path's artifact byte for byte"
    );
    // The stepping counters are deterministic virtual quantities: a
    // hit restores the committing run's values verbatim, so the
    // fast-forward CI floors stay honest on warm runs.
    for (c, w) in cold_t.cells.iter().zip(&warm_t.cells) {
        assert_eq!(c.stepped_quanta, w.stepped_quanta);
        assert_eq!(c.idle_advanced_quanta, w.idle_advanced_quanta);
        assert_eq!(c.busy_advanced_quanta, w.busy_advanced_quanta);
        assert_eq!(c.total_quanta, w.total_quanta);
    }
    // Storeless runs report no cache section at all ("no store" and
    // "0% hits" are different facts).
    let (_, bare_t) = spec.run_timed_store(2, None);
    assert!(bare_t.cache.is_none());
}

#[test]
fn any_identity_byte_flip_changes_the_key() {
    let store = Store::with_code_version(test_root("keys"), "cv-test");
    let spec = tiny_spec();
    let cell = &spec.cells()[0];
    let identity = cell.store_identity(&spec.machine, spec.scale);
    let base = store.key(&identity);

    // Flipping any single identity byte moves the key.
    for i in 0..identity.len() {
        let mut flipped = identity.clone();
        flipped[i] ^= 1;
        let k = store.key(&flipped);
        assert_ne!(k.key_hash, base.key_hash, "byte {i} did not move the key");
    }
    // Structured changes move the key too: scale...
    assert_ne!(
        store
            .key(&cell.store_identity(&spec.machine, 0.03))
            .key_hash,
        base.key_hash
    );
    // ...and any cell field (here: the repetition index / seed).
    let mut rep1 = cell.clone();
    rep1.rep = 1;
    assert_ne!(
        store
            .key(&rep1.store_identity(&spec.machine, spec.scale))
            .key_hash,
        base.key_hash
    );
}

#[test]
fn code_version_flip_forces_misses_without_evicting() {
    let root = test_root("codever");
    let spec = half_spec();
    let v1 = Store::with_code_version(&root, "cv-one");
    let v2 = Store::with_code_version(&root, "cv-two");

    let (r1, t1) = spec.run_timed_store(2, Some(&v1));
    assert_eq!(t1.cache.unwrap().misses, 2);

    // A "code change": same identities, different fingerprint — every
    // cell misses and recomputes.
    let (r2, t2) = spec.run_timed_store(2, Some(&v2));
    let c2 = t2.cache.unwrap();
    assert_eq!((c2.hits, c2.misses), (0, 2), "new code version: all miss");
    assert_eq!(r1.to_json_string(), r2.to_json_string());

    // The old version's entries were not evicted: rolling back hits.
    let (_, t3) = spec.run_timed_store(2, Some(&v1));
    assert_eq!(t3.cache.unwrap().hits, 2);
}

#[test]
fn corrupt_entries_are_detected_and_recomputed() {
    let root = test_root("corrupt");
    let store = Store::with_code_version(&root, "cv-test");
    let spec = tiny_spec();
    let (cold, _) = spec.run_timed_store(2, Some(&store));
    let files = store.entry_files();
    assert_eq!(files.len(), 4);

    // Truncate one entry mid-JSON and flip a measured value inside
    // another (still valid JSON, so only the digest can catch it).
    let text = std::fs::read_to_string(&files[0]).unwrap();
    std::fs::write(&files[0], &text[..text.len() / 2]).unwrap();
    let text = std::fs::read_to_string(&files[1]).unwrap();
    let tampered = text.replacen("\"barrier_wait_s\": 0", "\"barrier_wait_s\": 7", 1);
    assert_ne!(tampered, text, "tamper target must exist");
    std::fs::write(&files[1], tampered).unwrap();

    // `verify` names both defects...
    let verdicts: Vec<bool> = files.iter().map(|f| store.verify_file(f).is_ok()).collect();
    assert_eq!(verdicts.iter().filter(|ok| !**ok).count(), 2);

    // ...and the grid run treats them as misses: recompute, identical
    // bytes, entries rewritten clean.
    let (warm, warm_t) = spec.run_timed_store(2, Some(&store));
    let cache = warm_t.cache.unwrap();
    assert_eq!((cache.hits, cache.misses), (2, 2));
    assert_eq!(warm.to_json_string(), cold.to_json_string());
    for file in &store.entry_files() {
        store.verify_file(file).expect("recommitted entries verify");
    }
}

#[test]
fn shard_invariance_holds_under_mixed_hits_and_misses() {
    let spec = tiny_spec();
    // Two identically half-warmed stores (the UTS cells hit, the
    // SOR-irt cells miss)...
    let a = Store::with_code_version(test_root("shards-a"), "cv-test");
    let b = Store::with_code_version(test_root("shards-b"), "cv-test");
    half_spec().run_timed_store(2, Some(&a));
    half_spec().run_timed_store(2, Some(&b));

    // ...must produce byte-identical artifacts at any shard count.
    let (serial, st) = spec.run_timed_store(1, Some(&a));
    let (sharded, pt) = spec.run_timed_store(8, Some(&b));
    assert_eq!(st.cache.unwrap().hits, 2, "half-warm store must half-hit");
    assert_eq!(pt.cache.unwrap().hits, 2);
    assert_eq!(
        serial.to_json_string(),
        sharded.to_json_string(),
        "mixed hit/miss grids must stay shard-invariant"
    );
    // And match a plain storeless run of the same grid.
    let bare = spec.run(2);
    assert_eq!(bare.to_json_string(), serial.to_json_string());
}

#[test]
fn scenario_path_shares_the_grid_cells() {
    let root = test_root("scenario");
    let store = Store::with_code_version(&root, "cv-test");
    let spec = half_spec();
    spec.run_timed_store(2, Some(&store));

    // A scenario file describing a grid cell is the *same* cell to the
    // store: the --scenario path hits entries the grid committed.
    let cell = &spec.cells()[0];
    let scenario = cell.scenario(&spec.machine, spec.scale);
    let (result, timing) = run_scenario_timed(&scenario, Some(&store)).expect("runs");
    let cache = timing.cache.unwrap();
    assert_eq!((cache.hits, cache.misses), (1, 0));
    assert!(timing.cells[0].cached);
    assert_eq!(result.cells.len(), 1);
}

#[test]
fn entry_listing_is_sorted_ascending_by_key() {
    let store = Store::with_code_version(test_root("ls-sorted"), "cv-test");
    tiny_spec().run_timed_store(2, Some(&store));

    let files = store.entry_files();
    assert_eq!(files.len(), 4);
    let stems: Vec<String> = files
        .iter()
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    let mut sorted = stems.clone();
    sorted.sort();
    assert_eq!(stems, sorted, "entry_files must be ascending by key");
    // The sharding prefix is the key's own first two digits, so path
    // order *is* key order — the property `store ls` relies on.
    for (path, stem) in files.iter().zip(&stems) {
        let prefix = path
            .parent()
            .unwrap()
            .file_name()
            .unwrap()
            .to_str()
            .unwrap();
        assert_eq!(prefix, &stem[..2]);
        assert_eq!(store.verify_file(path).unwrap().key, *stem);
    }
}

#[test]
fn stats_reports_entries_versions_and_corrupt_files() {
    let root = test_root("stats");
    let v1 = Store::with_code_version(&root, "cv-one");
    let v2 = Store::with_code_version(&root, "cv-two");

    let empty = v1.stats();
    assert_eq!((empty.entries, empty.corrupt, empty.bytes), (0, 0, 0));
    assert_eq!(empty.code_versions, 0);

    // 2 cells under cv-one + the same 2 of 4 under cv-two: 6 entries,
    // 2 code versions.
    half_spec().run_timed_store(2, Some(&v1));
    tiny_spec().run_timed_store(2, Some(&v2));
    let stats = v1.stats();
    assert_eq!(stats.entries, 6);
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.code_versions, 2);
    let total: u64 = v1
        .entry_files()
        .iter()
        .map(|f| std::fs::metadata(f).unwrap().len())
        .sum();
    assert_eq!(stats.bytes, total);

    // Truncating an entry reclassifies it as corrupt (its bytes still
    // count).
    let files = v1.entry_files();
    let text = std::fs::read_to_string(&files[0]).unwrap();
    std::fs::write(&files[0], &text[..text.len() / 2]).unwrap();
    let dented = v1.stats();
    assert_eq!(dented.entries + dented.corrupt, 6);
    assert_eq!(dented.corrupt, 1);
    assert_eq!(dented.bytes, total - (text.len() - text.len() / 2) as u64);
}

#[test]
fn gc_sweeps_only_entries_of_other_code_versions() {
    let root = test_root("gc");
    let v1 = Store::with_code_version(&root, "cv-one");
    let v2 = Store::with_code_version(&root, "cv-two");
    half_spec().run_timed_store(2, Some(&v1));
    tiny_spec().run_timed_store(2, Some(&v2));
    assert_eq!(v1.entry_files().len(), 6);

    let report = v2.gc().expect("gc runs");
    assert_eq!((report.kept, report.removed), (4, 2));
    assert!(report.bytes_freed > 0);

    // v2's entries survived and still hit...
    let (_, t) = tiny_spec().run_timed_store(2, Some(&v2));
    assert_eq!(t.cache.unwrap().hits, 4);
    // ...and remove_prefix("") clears the rest.
    assert_eq!(v2.remove_prefix("").expect("rm"), 4);
    assert!(v2.entry_files().is_empty());
}
