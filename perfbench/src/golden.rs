//! Committed golden outputs: one digest per op at the default seed,
//! under `golden/<workload>.json`. Only `--bless` rewrites them.

use bench::json::{Json, JsonError};
use std::path::{Path, PathBuf};

/// Format tag of a golden file.
pub const SCHEMA: &str = "perfbench/golden/v1";

/// One op's expected output.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenOp {
    /// Op name (`fig10/UTS/Default`, `case-17`, ...).
    pub op: String,
    /// FNV-1a digest of the op's canonical output bytes.
    pub digest: u64,
    /// Virtual seconds and joules of a simulated cell — what the
    /// geomean-ratio test recomputes the headline numbers from.
    pub seconds: Option<f64>,
    pub joules: Option<f64>,
}

/// The golden outputs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    pub workload: String,
    pub seed: u64,
    pub ops: Vec<GoldenOp>,
}

/// Where the committed golden file of `workload` lives.
pub fn path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.json"))
}

impl Golden {
    pub fn to_json(&self) -> Json {
        let ops = self
            .ops
            .iter()
            .map(|o| {
                let mut fields = vec![
                    ("op".to_string(), Json::Str(o.op.clone())),
                    (
                        "digest".to_string(),
                        Json::Str(format!("{:016x}", o.digest)),
                    ),
                ];
                if let (Some(s), Some(j)) = (o.seconds, o.joules) {
                    fields.push(("seconds".into(), Json::Num(s)));
                    fields.push(("joules".into(), Json::Num(j)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("ops".into(), Json::Arr(ops)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Golden, JsonError> {
        let schema = j.field("schema")?.as_str()?;
        if schema != SCHEMA {
            return Err(JsonError(format!("unsupported golden schema `{schema}`")));
        }
        let ops = j
            .field("ops")?
            .as_arr()?
            .iter()
            .map(|o| {
                let hex = o.field("digest")?.as_str()?;
                Ok(GoldenOp {
                    op: o.field("op")?.as_str()?.to_string(),
                    digest: u64::from_str_radix(hex, 16)
                        .map_err(|e| JsonError(format!("bad digest `{hex}`: {e}")))?,
                    seconds: o.get("seconds").map(Json::as_f64).transpose()?,
                    joules: o.get("joules").map(Json::as_f64).transpose()?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(Golden {
            workload: j.field("workload")?.as_str()?.to_string(),
            seed: j.field("seed")?.as_u64()?,
            ops,
        })
    }

    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text)
            .and_then(|j| Golden::from_json(&j))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json().to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Expected per-op digests: the golden file's where it applies,
/// otherwise whatever the run's first pass produced (so every later
/// pass must reproduce it).
pub struct Expect {
    digests: Vec<Option<u64>>,
}

impl Expect {
    /// Expectations for `ops`, seeded from `golden` when its op names
    /// match one for one.
    pub fn new(ops: &[String], golden: Option<&Golden>) -> Result<Expect, String> {
        let digests = match golden {
            None => vec![None; ops.len()],
            Some(g) => {
                let names: Vec<&str> = g.ops.iter().map(|o| o.op.as_str()).collect();
                if names != ops.iter().map(String::as_str).collect::<Vec<_>>() {
                    return Err(format!(
                        "golden/{}.json lists other ops than the run; regenerate with --bless",
                        g.workload
                    ));
                }
                g.ops.iter().map(|o| Some(o.digest)).collect()
            }
        };
        Ok(Expect { digests })
    }

    /// Whether op `i` produced the expected digest.
    pub fn check(&mut self, i: usize, digest: u64) -> bool {
        match self.digests[i] {
            Some(d) => d == digest,
            None => {
                self.digests[i] = Some(digest);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_file_round_trips() {
        let golden = Golden {
            workload: "paper-eval".into(),
            seed: 0xC0FFEE,
            ops: vec![
                GoldenOp {
                    op: "fig10/UTS/Default".into(),
                    digest: 0xFEDC_BA98_7654_3210,
                    seconds: Some(61.25),
                    joules: Some(6123.456789),
                },
                GoldenOp {
                    op: "case-0".into(),
                    digest: 1,
                    seconds: None,
                    joules: None,
                },
            ],
        };
        let dir = std::env::temp_dir().join(format!("perfbench-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.json");
        golden.save(&file).unwrap();
        let back = Golden::load(&file).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, golden);
    }

    #[test]
    fn expectations_come_from_golden_or_the_first_pass() {
        let ops = vec!["a".to_string(), "b".to_string()];
        let golden = Golden {
            workload: "w".into(),
            seed: 1,
            ops: vec![
                GoldenOp {
                    op: "a".into(),
                    digest: 7,
                    seconds: None,
                    joules: None,
                },
                GoldenOp {
                    op: "b".into(),
                    digest: 8,
                    seconds: None,
                    joules: None,
                },
            ],
        };
        let mut from_golden = Expect::new(&ops, Some(&golden)).unwrap();
        assert!(from_golden.check(0, 7));
        assert!(!from_golden.check(1, 9));
        let mut from_run = Expect::new(&ops, None).unwrap();
        assert!(from_run.check(1, 9));
        assert!(from_run.check(1, 9));
        assert!(!from_run.check(1, 10));
        let renamed = vec!["a".to_string(), "c".to_string()];
        assert!(Expect::new(&renamed, Some(&golden)).is_err());
    }
}
