//! The `warm-serve` workload: store, JSON and protocol work with the
//! simulator bypassed. Set-up fills a fresh store through a daemon's
//! miss path; every timed pass starts a fresh daemon over that store
//! (a long-lived one would answer repeats from its never-evicted job
//! table and stop reading the store) and one client calls
//! `Client::submit_and_fetch` on every cell, one connection at a time.
//! An op is a round trip. The corpus is fixed; the seed picks the order
//! the cells are fetched in.

use crate::cells::{cf_ratios, fleet_cells, op_name, paper_eval_cells, ShapedCell};
use crate::golden::Golden;
use crate::stats::permutation;
use crate::trace::Layers;
use crate::{Pass, Workload};
use bench::cli::SMOKE_SCALE;
use bench::grid::{CellSpec, CellTiming};
use bench::json::Json;
use bench::store::{Store, BUILD_FINGERPRINT};
use serve::protocol::{CellSubmission, JobState, Submission};
use serve::{Client, Server};
use simproc::freq::{MachineSpec, HASWELL_2650V3};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Warm {
    machine: MachineSpec,
    corpus: Vec<ShapedCell>,
    submissions: Vec<Submission>,
    /// Corpus indices in fetch order.
    order: Vec<usize>,
    store: Store,
    scratch: PathBuf,
    /// What the set-up's daemon served for each cell: the bytes every
    /// later answer must reproduce.
    artifacts: Vec<String>,
    ratios: (f64, f64),
}

/// Run `f` against a fresh one-worker daemon over `store`, then shut
/// the daemon down and wait for its thread.
fn with_daemon<T>(store: &Store, f: impl FnOnce(&Client) -> T) -> Result<T, String> {
    let server =
        Server::bind("127.0.0.1:0", store.clone(), 1).map_err(|e| format!("bind daemon: {e}"))?;
    let client = Client::new(server.local_addr().to_string());
    let daemon = std::thread::spawn(move || server.run());
    let out = f(&client);
    let shutdown = client.shutdown();
    let joined = daemon.join();
    shutdown.map_err(|e| format!("daemon shutdown: {e}"))?;
    match joined {
        Ok(Ok(())) => Ok(out),
        Ok(Err(e)) => Err(format!("daemon failed: {e}")),
        Err(_) => Err("daemon thread panicked".into()),
    }
}

/// The corpus: the paper-eval and fleet cell shapes at smoke scale,
/// plus the paper-eval Default cells with their `Tinv`-rate trace —
/// entries from a few KB to tens of KB.
fn corpus() -> Vec<ShapedCell> {
    let mut cells = paper_eval_cells(SMOKE_SCALE);
    let traced: Vec<ShapedCell> = cells
        .iter()
        .filter(|(_, c)| c.label == "Default")
        .map(|(shape, c)| {
            let c = CellSpec {
                trace: true,
                ..c.clone()
            };
            (*shape, c)
        })
        .collect();
    cells.extend(fleet_cells(SMOKE_SCALE));
    cells.extend(traced);
    cells
}

fn joules_seconds(artifact: &Json) -> Option<(f64, f64)> {
    let cell = artifact.field("cells").ok()?.as_arr().ok()?.first()?;
    Some((
        cell.field("seconds").ok()?.as_f64().ok()?,
        cell.field("joules").ok()?.as_f64().ok()?,
    ))
}

impl Warm {
    /// Fill a fresh store under `scratch` through a daemon's miss path,
    /// then make one untimed warm round trip.
    pub fn setup(seed: u64, scratch: &Path) -> Result<Warm, String> {
        let machine = HASWELL_2650V3.clone();
        let corpus = corpus();
        for cell in &corpus {
            cell.1
                .scenario(&machine, SMOKE_SCALE)
                .validate()
                .map_err(|e| format!("{}: {e}", op_name(cell)))?;
        }
        let submissions: Vec<Submission> = corpus
            .iter()
            .map(|(_, cell)| {
                Submission::Cell(Box::new(CellSubmission {
                    machine: machine.clone(),
                    scale: SMOKE_SCALE,
                    cell: cell.clone(),
                }))
            })
            .collect();
        let root = scratch.join("store");
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::with_code_version(&root, BUILD_FINGERPRINT);
        let served = with_daemon(&store, |client| {
            submissions
                .iter()
                .map(|s| client.submit_and_fetch(s.clone()).map(|(_, a)| a))
                .collect::<Result<Vec<Json>, String>>()
        })??;
        let outs: Vec<(f64, f64)> = served
            .iter()
            .map(|a| joules_seconds(a).ok_or("artifact without seconds/joules"))
            .collect::<Result<_, _>>()?;
        let ratios = cf_ratios(&corpus, &outs);
        with_daemon(&store, |client| {
            client.submit_and_fetch(submissions[0].clone())
        })??;
        Ok(Warm {
            machine,
            order: permutation(corpus.len(), seed),
            corpus,
            submissions,
            store,
            scratch: scratch.to_path_buf(),
            artifacts: served.iter().map(Json::to_pretty).collect(),
            ratios,
        })
    }

    fn check(&self, i: usize, answer: &Result<(serve::JobTicket, Json), String>) -> bool {
        match answer {
            // A warm key settles inside `submit`: any other state means
            // the store missed and the daemon simulated.
            Ok((ticket, artifact)) => {
                ticket.state == JobState::Done && artifact.to_pretty() == self.artifacts[i]
            }
            Err(_) => false,
        }
    }
}

impl Workload for Warm {
    fn pass(&mut self) -> Result<Pass, String> {
        let (op_ms, answers) = with_daemon(&self.store, |client| {
            let mut op_ms = vec![0.0; self.submissions.len()];
            let mut answers = Vec::with_capacity(self.order.len());
            for &i in &self.order {
                let t = Instant::now();
                answers.push((i, client.submit_and_fetch(self.submissions[i].clone())));
                op_ms[i] = t.elapsed().as_secs_f64() * 1e3;
            }
            (op_ms, answers)
        })?;
        let mut failed = 0;
        for (i, answer) in &answers {
            if !self.check(*i, answer) {
                eprintln!(
                    "warm-serve: {} served a different artifact",
                    op_name(&self.corpus[*i])
                );
                failed += 1;
            }
        }
        Ok(Pass { op_ms, failed })
    }

    fn traced_pass(&mut self, layers: &mut Layers) -> Result<Pass, String> {
        // The serve layer: the same round trips as `pass`, each split
        // into its two requests.
        let (op_ms, answers) = with_daemon(&self.store, |client| {
            let mut op_ms = vec![0.0; self.submissions.len()];
            let mut answers = Vec::with_capacity(self.order.len());
            for &i in &self.order {
                let t = Instant::now();
                let answer = layers
                    .tracer
                    .span("serve.submit", |_| {
                        client.submit(self.submissions[i].clone())
                    })
                    .and_then(|ticket| {
                        let artifact = layers
                            .tracer
                            .span("serve.result", |_| client.result(&ticket.job))?;
                        Ok((ticket, artifact))
                    });
                op_ms[i] = t.elapsed().as_secs_f64() * 1e3;
                answers.push((i, answer));
            }
            (op_ms, answers)
        })?;

        // Outside the round trips' times, the JSON layer: every served
        // artifact re-encoded and parsed back.
        let mut bad = vec![false; self.corpus.len()];
        for (i, answer) in answers {
            let same = match &answer {
                Ok((ticket, artifact)) => {
                    let text = layers.tracer.span("json.encode", |_| artifact.to_pretty());
                    let parsed = layers.tracer.span("json.parse", |_| Json::parse(&text));
                    layers.json_encode_bytes += text.len() as u64;
                    layers.json_parse_bytes += text.len() as u64;
                    layers.response_bytes += text.len() as u64;
                    layers.responses += 1;
                    ticket.state == JobState::Done
                        && text == self.artifacts[i]
                        && parsed.as_ref() == Ok(artifact)
                }
                Err(_) => false,
            };
            if !same {
                eprintln!("warm-serve: traced {} differs", op_name(&self.corpus[i]));
                bad[i] = true;
            }
        }

        // And the store layer, driven directly: key and load every
        // entry of the filled store, commit each into a fresh root.
        let root = self.scratch.join("traced-store");
        let _ = std::fs::remove_dir_all(&root);
        let copy = Store::with_code_version(&root, BUILD_FINGERPRINT);
        for (i, (_, cell)) in self.corpus.iter().enumerate() {
            let identity = cell.store_identity(&self.machine, SMOKE_SCALE);
            let key = layers
                .tracer
                .span("store.key", |_| self.store.key(&identity));
            let entry = layers.tracer.span("store.load", |_| self.store.load(&key));
            layers.store_loads += 1;
            let Some(entry) = entry else {
                eprintln!(
                    "warm-serve: {} missed the filled store",
                    op_name(&self.corpus[i])
                );
                bad[i] = true;
                continue;
            };
            layers.store_hits += 1;
            let [stepped, idle, busy, total] = entry.quanta;
            let timing = CellTiming {
                wall_ms: entry.wall_ms,
                cached: false,
                stepped_quanta: stepped,
                idle_advanced_quanta: idle,
                busy_advanced_quanta: busy,
                total_quanta: total,
            };
            if let Err(e) = layers.tracer.span("store.commit", |_| {
                copy.commit(&key, &entry.result, &timing)
            }) {
                return Err(format!("commit into {}: {e}", root.display()));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
        Ok(Pass {
            op_ms,
            failed: bad.iter().filter(|b| **b).count() as u64,
        })
    }

    fn cf_ratios(&self) -> (f64, f64) {
        self.ratios
    }

    fn round_trips(&self) -> bool {
        true
    }

    fn golden(&self) -> Option<Golden> {
        None
    }
}
