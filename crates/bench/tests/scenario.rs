//! Scenario-codec integration tests: property-based round-trips
//! through the JSON codec, rejection of malformed scenario files, and
//! the contract that a scenario file reproduces a grid cell bit for
//! bit.

use bench::grid::{run_scenario_timed, straggler_spec, AxisSet, Fleet, GridSetup, GridSpec};
use bench::scenario::{Scenario, Topology, SCENARIO_SCHEMA};
use bench::{Setup, HARNESS_SEED};
use cluster::SteppingMode;
use cuttlefish::controller::{NodePolicy, OracleEntry, OracleTable, PidGains};
use cuttlefish::{Config, Policy, TipiSlab};
use simproc::freq::{Freq, HASWELL_2650V3};
use simproc::SplitMix64;
use std::ops::Range;
use workloads::{ChunkPhase, ProgModel, SyntheticSpec, WorkloadSpec};

/// Work-sharing benchmarks (the only ones a BSP topology accepts).
const WS_BENCHES: [&str; 5] = ["SOR-ws", "Heat-ws", "MiniFE", "HPCCG", "AMG"];
/// The full Table 1 suite.
const ALL_BENCHES: [&str; 10] = [
    "UTS", "SOR-irt", "SOR-rt", "SOR-ws", "Heat-irt", "Heat-rt", "Heat-ws", "MiniFE", "HPCCG",
    "AMG",
];

fn policy(pick: u32, tinv_ms: u64) -> NodePolicy {
    match pick % 6 {
        0 => NodePolicy::Default,
        1 => NodePolicy::Cuttlefish(Config::default().with_tinv_ms(tinv_ms).with_policy(
            if tinv_ms.is_multiple_of(2) {
                Policy::Both
            } else {
                Policy::CoreOnly
            },
        )),
        2 => NodePolicy::Pinned {
            cf: Freq(12 + (tinv_ms % 11) as u32),
            uf: Freq(12 + (tinv_ms % 18) as u32),
        },
        3 => NodePolicy::Ondemand,
        4 => NodePolicy::Oracle(OracleTable {
            slab_width: 0.004,
            tinv_ns: tinv_ms * 1_000_000,
            entries: vec![
                OracleEntry {
                    slab: TipiSlab(0),
                    cf: Freq(23),
                    uf: Freq(12 + (tinv_ms % 5) as u32),
                },
                OracleEntry {
                    slab: TipiSlab(1 + (tinv_ms % 40) as u32),
                    cf: Freq(12 + (tinv_ms % 11) as u32),
                    uf: Freq(22),
                },
            ],
        }),
        _ => NodePolicy::PidUncore {
            config: Config::default().with_tinv_ms(tinv_ms),
            gains: PidGains {
                kp: 0.5 * (tinv_ms % 16) as f64 + 0.5,
                ki: 0.05 * (tinv_ms % 8) as f64,
                kd: 0.25 * (tinv_ms % 3) as f64,
                setpoint: 0.5 + 0.1 * (tinv_ms % 5) as f64,
            },
        },
    }
}

/// Build a *valid* scenario from raw sampled integers: every
/// consistency rule (BSP needs work-sharing benchmarks, traces need a
/// single node, weights need synthetic workloads) is applied here, so
/// the property exercises the codec over the whole valid space.
#[allow(clippy::too_many_arguments)]
fn scenario_from(
    synthetic: bool,
    bench_idx: usize,
    hclib: bool,
    scale_step: u32,
    nodes_n: usize,
    policy_pick: u32,
    tinv_ms: u64,
    rep: u32,
    bsp: bool,
    supersteps: u32,
    comm_step: u32,
    trace: bool,
    weighted: bool,
    hetero: bool,
    phases: Vec<ChunkPhase>,
) -> Scenario {
    let workload = if synthetic {
        WorkloadSpec::Synthetic(SyntheticSpec {
            phases,
            total_chunks: Some(1000),
        })
    } else {
        let name = if bsp {
            WS_BENCHES[bench_idx % WS_BENCHES.len()]
        } else {
            ALL_BENCHES[bench_idx % ALL_BENCHES.len()]
        };
        WorkloadSpec::bench(
            name,
            if hclib {
                ProgModel::HClib
            } else {
                ProgModel::OpenMp
            },
            f64::from(scale_step) * 0.01,
        )
    };
    let mut builder = Scenario::workload(workload).label(format!("case-{policy_pick}"));
    for i in 0..nodes_n {
        let machine = if hetero && i == nodes_n - 1 {
            straggler_spec()
        } else {
            HASWELL_2650V3.clone()
        };
        builder = builder.node(&machine, policy(policy_pick, tinv_ms));
    }
    if bsp && nodes_n > 1 {
        if weighted && synthetic {
            builder = builder.bsp_weighted(
                supersteps,
                f64::from(comm_step) * 1.0e6,
                (0..nodes_n as u32).map(|i| i % 3 + 1).collect(),
            );
        } else {
            builder = builder.bsp(supersteps, f64::from(comm_step) * 1.0e6);
        }
    }
    if trace && nodes_n == 1 {
        builder = builder.trace();
    }
    builder.rep(rep).build()
}

/// 128 seeded cases; case `i` draws from `SplitMix64::new(i)`, and a
/// failure names its case.
#[test]
fn scenario_json_round_trip_is_lossless() {
    for case in 0..128 {
        let mut rng = SplitMix64::new(case);
        let mut draw = |r: Range<u64>| r.start + rng.below((r.end - r.start) as usize) as u64;
        let (synthetic_pick, bench_idx, hclib_pick, scale_step) =
            (draw(0..2), draw(0..10), draw(0..2), draw(1..9));
        let (nodes_n, policy_pick, tinv_ms, rep) =
            (draw(1..5), draw(0..6), draw(1..80), draw(0..5));
        let (bsp_pick, supersteps, comm_step, trace_pick) =
            (draw(0..2), draw(1..16), draw(0..100), draw(0..2));
        let (weighted_pick, hetero_pick) = (draw(0..2), draw(0..2));
        let phases: Vec<ChunkPhase> = (0..draw(1..4))
            .map(|_| ChunkPhase {
                chunks: draw(1..5),
                instructions: draw(1..2_000_000),
                misses_local: draw(0..60_000),
                misses_remote: draw(0..9_000),
                cpi: draw(1..12) as f64 * 0.1,
                mlp: draw(1..16) as f64,
            })
            .collect();
        let scenario = scenario_from(
            synthetic_pick == 1,
            bench_idx as usize,
            hclib_pick == 1,
            scale_step as u32,
            nodes_n as usize,
            policy_pick as u32,
            tinv_ms,
            rep as u32,
            bsp_pick == 1,
            supersteps as u32,
            comm_step as u32,
            trace_pick == 1,
            weighted_pick == 1,
            hetero_pick == 1,
            phases,
        );
        let text = scenario.to_json_string();
        let parsed = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{text}"));
        assert_eq!(
            &parsed, &scenario,
            "case {case}: typed round-trip must be lossless"
        );
        assert_eq!(
            parsed.to_json_string(),
            text,
            "case {case}: re-serialization must be byte-identical"
        );
    }
}

/// A minimal valid scenario document, as a mutable Json tree.
fn valid_doc() -> bench::json::Json {
    use bench::json::ToJson;
    Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
        .policy(NodePolicy::Default)
        .build()
        .to_json()
}

fn set_field(doc: &mut bench::json::Json, key: &str, value: bench::json::Json) {
    if let bench::json::Json::Obj(fields) = doc {
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
            return;
        }
        fields.push((key.to_string(), value));
    }
}

#[test]
fn malformed_scenario_files_are_rejected() {
    use bench::json::Json;

    // Not JSON at all.
    assert!(Scenario::from_json_str("not json").is_err());
    // Valid JSON, wrong schema tag.
    let mut doc = valid_doc();
    set_field(&mut doc, "schema", Json::Str("something/else".into()));
    assert!(Scenario::from_json_str(&doc.to_pretty()).is_err());
    // Missing required field.
    let doc = Json::Obj(vec![("schema".into(), Json::Str(SCENARIO_SCHEMA.into()))]);
    assert!(Scenario::from_json_str(&doc.to_pretty()).is_err());
    // Unknown policy kind.
    let text = valid_doc()
        .to_pretty()
        .replace("\"default\"", "\"turbo-nonsense\"");
    assert!(Scenario::from_json_str(&text).is_err());
    // Empty node list.
    let mut doc = valid_doc();
    set_field(&mut doc, "nodes", Json::Arr(vec![]));
    assert!(Scenario::from_json_str(&doc.to_pretty()).is_err());
    // Single-node topology with a 2-node fleet.
    let mut doc = valid_doc();
    if let Json::Obj(fields) = &mut doc {
        let nodes = fields
            .iter_mut()
            .find(|(k, _)| k == "nodes")
            .expect("nodes field");
        if let Json::Arr(items) = &mut nodes.1 {
            let dup = items[0].clone();
            items.push(dup);
        }
    }
    assert!(Scenario::from_json_str(&doc.to_pretty()).is_err());
    // Unknown benchmark name.
    let text = valid_doc().to_pretty().replace("\"UTS\"", "\"NoSuch\"");
    assert!(Scenario::from_json_str(&text).is_err());
    // Invalid machine (frequency domain containing 0).
    let text = valid_doc().to_pretty().replace("\"min\": 12", "\"min\": 0");
    assert!(Scenario::from_json_str(&text).is_err());
    // Trace on a cluster.
    let s = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
        .nodes(2, &HASWELL_2650V3, NodePolicy::Default)
        .build();
    let mut doc = {
        use bench::json::ToJson;
        s.to_json()
    };
    set_field(&mut doc, "trace", Json::Bool(true));
    assert!(Scenario::from_json_str(&doc.to_pretty()).is_err());
    // Negative duration.
    let mut doc = valid_doc();
    set_field(&mut doc, "duration_s", Json::Num(-1.0));
    assert!(Scenario::from_json_str(&doc.to_pretty()).is_err());
    // A scale past the bound, whose task graph would grow without one.
    let text = valid_doc()
        .to_pretty()
        .replace("\"scale\": 0.05", "\"scale\": 2.5");
    let err = Scenario::from_json_str(&text).unwrap_err();
    assert!(err.0.contains("at most 2"), "{err}");
    // A stepping mode on a single node, which has no cluster to drive.
    let mut doc = valid_doc();
    set_field(&mut doc, "stepping", Json::Str("lockstep".into()));
    let err = Scenario::from_json_str(&doc.to_pretty()).unwrap_err();
    assert!(err.0.contains("stepping"), "{err}");
}

#[test]
fn one_node_cluster_with_a_stepping_mode_is_refused_by_the_grid_path() {
    // The cell format runs a one-node cell as a single node, which has
    // no stepping mode, no exchange and no final barrier. A one-node
    // cluster scenario is valid, but the `--scenario` path must refuse
    // it with an error rather than panic when the cell expands or
    // silently drop its topology.
    for (topology, stepping, cause) in [
        (Topology::Replicated, SteppingMode::Lockstep, "stepping"),
        (Topology::bsp(2, 0.0), SteppingMode::Lockstep, "stepping"),
        (Topology::Replicated, SteppingMode::default(), "single-node"),
        (Topology::bsp(2, 0.0), SteppingMode::default(), "multi-node"),
    ] {
        let mut s = Scenario::bench("Heat-ws", ProgModel::OpenMp, 0.02)
            .policy(NodePolicy::Default)
            .build();
        s.topology = topology;
        s.stepping = stepping;
        s.validate().expect("a valid scenario");
        let err = run_scenario_timed(&s, None).expect_err("a one-node cell is a single node");
        assert!(err.contains(cause), "{err}");
    }
}

/// A valid scenario document under `policy`, as text.
fn doc_with_policy(policy: &NodePolicy) -> String {
    use bench::json::ToJson;
    let mut s = Scenario::bench("UTS", ProgModel::OpenMp, 0.05)
        .policy(NodePolicy::Default)
        .build();
    s.nodes[0].1 = policy.clone();
    s.to_json().to_pretty()
}

#[test]
fn malformed_oracle_and_pid_scenarios_are_rejected() {
    let table = OracleTable {
        slab_width: 0.004,
        tinv_ns: 20_000_000,
        entries: vec![OracleEntry {
            slab: TipiSlab(16),
            cf: Freq(12),
            uf: Freq(22),
        }],
    };
    // The valid forms parse.
    assert!(Scenario::from_json_str(&doc_with_policy(&NodePolicy::Oracle(table.clone()))).is_ok());
    assert!(
        Scenario::from_json_str(&doc_with_policy(&NodePolicy::PidUncore {
            config: Config::default(),
            gains: PidGains::default(),
        }))
        .is_ok()
    );
    // Empty oracle table.
    let empty = doc_with_policy(&NodePolicy::Oracle(table.clone()))
        .replace("\"entries\": [", "\"entries_unused\": [")
        .replace("\"table\": {", "\"table\": {\"entries\": [],");
    assert!(Scenario::from_json_str(&empty).is_err(), "empty table");
    // Out-of-order / duplicate slabs.
    let mut dup = table.clone();
    dup.entries.push(dup.entries[0]);
    assert!(
        Scenario::from_json_str(&doc_with_policy(&NodePolicy::Oracle(dup))).is_err(),
        "duplicate slabs"
    );
    // Zero slab width.
    let text = doc_with_policy(&NodePolicy::Oracle(table.clone())).replace("0.004", "0");
    assert!(Scenario::from_json_str(&text).is_err(), "zero slab width");
    // Missing table and table_file.
    let text = doc_with_policy(&NodePolicy::Oracle(table.clone())).replace("table", "tabel");
    assert!(Scenario::from_json_str(&text).is_err(), "no table at all");
    // A dangling table_file reference.
    let text = doc_with_policy(&NodePolicy::Oracle(table)).replace(
        "\"kind\": \"oracle\",",
        "\"kind\": \"oracle\", \"table_file\": \"/no/such/table.json\", \"unused\":",
    );
    assert!(
        Scenario::from_json_str(&text).is_err(),
        "dangling table_file"
    );
    // Setpoint outside (0, 1].
    let bad = doc_with_policy(&NodePolicy::PidUncore {
        config: Config::default(),
        gains: PidGains {
            setpoint: 0.625,
            ..PidGains::default()
        },
    })
    .replace("0.625", "1.5");
    assert!(Scenario::from_json_str(&bad).is_err(), "setpoint > 1");
    // Negative gain.
    let bad = doc_with_policy(&NodePolicy::PidUncore {
        config: Config::default(),
        gains: PidGains {
            kp: 0.625,
            ..PidGains::default()
        },
    })
    .replace("0.625", "-2");
    assert!(Scenario::from_json_str(&bad).is_err(), "negative gain");
}

/// A `table_file` reference loads the same table the inline form
/// carries, and re-serializes inline.
#[test]
fn oracle_table_file_reference_loads() {
    use bench::json::ToJson;
    let table = OracleTable {
        slab_width: 0.004,
        tinv_ns: 20_000_000,
        entries: vec![OracleEntry {
            slab: TipiSlab(16),
            cf: Freq(12),
            uf: Freq(22),
        }],
    };
    let dir = std::env::temp_dir().join("cuttlefish-oracle-table-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("table.json");
    std::fs::write(&path, table.to_json().to_pretty()).expect("write table");
    let by_ref = doc_with_policy(&NodePolicy::Oracle(table.clone())).replace(
        "\"table\": {",
        &format!(
            "\"table_file\": {}, \"unused\": {{",
            bench::json::Json::Str(path.display().to_string()).to_pretty()
        ),
    );
    let parsed = Scenario::from_json_str(&by_ref).expect("file-referenced table parses");
    assert_eq!(parsed.nodes[0].1, NodePolicy::Oracle(table));
    let reserialized = parsed.to_json_string();
    assert!(
        reserialized.contains("\"table\"") && !reserialized.contains("table_file"),
        "file references re-serialize inline"
    );
}

#[test]
fn scenario_axis_grid_is_shard_invariant() {
    // A grid whose cells exist only because of the scenario fleet axis:
    // heterogeneous straggler BSP next to uniform replicated cells.
    let mut spec = GridSpec::new("scenario-axis", 0.02);
    spec.push(
        AxisSet::new(
            vec!["Heat-ws".into()],
            vec![
                GridSetup::new("Default", Setup::Default),
                GridSetup::new("Cuttlefish", Setup::Cuttlefish(Policy::Both)),
            ],
        )
        .with_fleets(vec![
            Fleet::uniform(2),
            Fleet::hetero(vec![HASWELL_2650V3.clone(), straggler_spec()]).with_bsp(6, 24.0e6),
        ]),
    );
    let serial = spec.run(1).to_json_string();
    let sharded = spec.run(8).to_json_string();
    assert_eq!(
        serial, sharded,
        "scenario-axis grids must stay shard-invariant"
    );
}

#[test]
fn scenario_file_reproduces_grid_cell_bit_for_bit() {
    // The acceptance contract behind `--scenario`: a scenario document
    // describing a grid cell, parsed back from its own JSON, runs to
    // the identical artifact cell bytes.
    let mut spec = GridSpec::new("one-cell", 0.02);
    spec.push(AxisSet::new(
        vec!["UTS".into()],
        vec![GridSetup::new("Default", Setup::Default).with_trace()],
    ));
    let grid_cell_json = {
        use bench::json::ToJson;
        spec.run(1).cells[0].to_json().to_pretty()
    };

    let scenario = spec.cells()[0].scenario(&spec.machine, spec.scale);
    assert_eq!(scenario.seed, HARNESS_SEED);
    assert_eq!(scenario.topology, Topology::SingleNode);
    // Round-trip the scenario through its file format first: the rerun
    // must work from JSON alone.
    let reparsed = Scenario::from_json_str(&scenario.to_json_string()).expect("file parses");
    let (result, timing) = run_scenario_timed(&reparsed, None).expect("scenario runs");
    assert_eq!(result.cells.len(), 1);
    assert_eq!(timing.cells.len(), 1);
    let scenario_cell_json = {
        use bench::json::ToJson;
        result.cells[0].to_json().to_pretty()
    };
    assert_eq!(
        scenario_cell_json, grid_cell_json,
        "a scenario-file run must reproduce the grid cell bit for bit"
    );
}
