//! Workload specifications: the JSON artifacts under `benchmark/workloads/`.
//!
//! A spec names everything that decides what is timed — the dataset's scale
//! factor, stream mix, batch counts, engine and its topology — so two runs of
//! one spec and `--seed` time the same artifact (the input digest proves it).

use std::path::Path;

use serde_json::{json, Value};
use ttc_social_media::model::Query;

/// Which of the system's execution engines a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `GraphBlasIncremental`, driven batch by batch.
    Unsharded,
    /// `ShardedSolution` (synchronous, barrier per batch) on a rayon pool.
    Sharded,
    /// `PipelinedEngine` with recovery armed, saturating source.
    Pipeline,
    /// `PipelinedEngine` with `serve_views()`, open loop, one reader.
    Serve,
    /// The paper's protocol: load a large graph, then a few small
    /// insert-only changesets, applied as they are (no coalescing, no warm-up).
    Paper,
}

impl Engine {
    const NAMES: [(&'static str, Engine); 5] = [
        ("unsharded", Engine::Unsharded),
        ("sharded", Engine::Sharded),
        ("pipeline", Engine::Pipeline),
        ("serve", Engine::Serve),
        ("paper", Engine::Paper),
    ];

    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(_, e)| *e == self)
            .map_or("?", |(n, _)| n)
    }

    /// Engines whose traced pass is the serial route → apply → merge mirror.
    pub fn is_sharded(self) -> bool {
        matches!(self, Engine::Sharded | Engine::Pipeline | Engine::Serve)
    }
}

/// Seed of every generated network: with a spec's `sf`, the identity of its
/// dataset. The run's `--seed` draws the update stream over it (reseeding the
/// network too moved `q2_sharded` 14 % through shard skew alone).
pub const NETWORK_SEED: u64 = 42;
/// Bounded-queue depth of the staged engines.
pub const QUEUE_DEPTH: usize = 4;

/// Relative weights of the four stream operation kinds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    pub comment: f64,
    pub like: f64,
    pub friendship: f64,
    pub retraction: f64,
}

impl Default for Mix {
    fn default() -> Self {
        Mix {
            comment: 0.30,
            like: 0.40,
            friendship: 0.20,
            retraction: 0.10,
        }
    }
}

/// One workload specification. Keys absent from the JSON take the defaults
/// of [`Spec::new`]; unknown keys are an error.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub name: String,
    pub engine: Engine,
    pub query: Query,
    pub sf: u64,
    /// Measured batches (for `paper`: the update phase's changesets).
    pub batches: usize,
    /// Batches applied before measurement starts.
    pub warmup: usize,
    pub batch_size: usize,
    pub mix: Mix,
    pub shards: usize,
    /// Rayon pool size around the engine.
    pub threads: usize,
    /// Checkpoint cadence of the pipelined engines; 0 leaves recovery off.
    pub checkpoint_every: u64,
    /// Open-loop rate in batches per second; 0 is a saturating source.
    pub rate: f64,
}

const KEYS: [&str; 12] = [
    "name",
    "engine",
    "query",
    "sf",
    "batches",
    "warmup",
    "batch_size",
    "mix",
    "shards",
    "threads",
    "checkpoint_every",
    "rate",
];

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.get(key).filter(|v| **v != Value::Null)
}

fn uint(value: &Value, key: &str, default: u64) -> Result<u64, String> {
    match field(value, key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("spec key `{key}` expects a non-negative integer")),
    }
}

fn float(value: &Value, key: &str, default: f64) -> Result<f64, String> {
    match field(value, key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .filter(|f| f.is_finite() && *f >= 0.0)
            .ok_or_else(|| format!("spec key `{key}` expects a non-negative number")),
    }
}

impl Spec {
    /// A spec with the stream defaults of the issue: mix 30/40/20/10, batches
    /// of 64, 50 warm-up batches, one shard, one thread, saturating source.
    pub fn new(name: &str, engine: Engine, query: Query, sf: u64, batches: usize) -> Self {
        Spec {
            name: name.to_string(),
            engine,
            query,
            sf,
            batches,
            warmup: if engine == Engine::Paper { 0 } else { 50 },
            batch_size: 64,
            mix: Mix::default(),
            shards: 1,
            threads: 1,
            checkpoint_every: 0,
            rate: 0.0,
        }
    }

    pub fn from_json(value: &Value) -> Result<Spec, String> {
        let Value::Object(map) = value else {
            return Err("a spec is a JSON object".to_string());
        };
        if let Some(unknown) = map.keys().find(|k| !KEYS.contains(&k.as_str())) {
            return Err(format!(
                "unknown spec key `{unknown}` (known: {})",
                KEYS.join(", ")
            ));
        }
        let text = |key: &str| -> Result<&str, String> {
            field(value, key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("spec key `{key}` expects a string"))
        };
        let name = text("name")?;
        let engine_name = text("engine")?;
        let engine = Engine::NAMES
            .iter()
            .find(|(n, _)| *n == engine_name)
            .map(|(_, e)| *e)
            .ok_or_else(|| {
                format!("unknown engine `{engine_name}` (unsharded|sharded|pipeline|serve|paper)")
            })?;
        let query = match text("query")? {
            "q1" => Query::Q1,
            "q2" => Query::Q2,
            other => return Err(format!("unknown query `{other}` (q1|q2)")),
        };
        let sf = uint(value, "sf", 0)?;
        let batches = uint(value, "batches", 0)? as usize;
        if sf == 0 || batches == 0 {
            return Err("spec keys `sf` and `batches` expect integers >= 1".to_string());
        }
        let defaults = Spec::new(name, engine, query, sf, batches);
        let mix = match field(value, "mix") {
            None => defaults.mix,
            Some(mix) => Mix {
                comment: float(mix, "comment", 0.0)?,
                like: float(mix, "like", 0.0)?,
                friendship: float(mix, "friendship", 0.0)?,
                retraction: float(mix, "retraction", 0.0)?,
            },
        };
        let spec = Spec {
            warmup: uint(value, "warmup", defaults.warmup as u64)? as usize,
            batch_size: uint(value, "batch_size", defaults.batch_size as u64)? as usize,
            mix,
            shards: uint(value, "shards", defaults.shards as u64)? as usize,
            threads: uint(value, "threads", defaults.threads as u64)? as usize,
            checkpoint_every: uint(value, "checkpoint_every", defaults.checkpoint_every)?,
            rate: float(value, "rate", defaults.rate)?,
            ..defaults
        };
        spec.check()?;
        Ok(spec)
    }

    fn check(&self) -> Result<(), String> {
        let mix = self.mix;
        if mix.comment + mix.like + mix.friendship + mix.retraction <= 0.0 {
            return Err("spec key `mix` needs at least one positive weight".to_string());
        }
        if self.batch_size == 0 || self.shards == 0 || self.threads == 0 {
            return Err(
                "spec keys `batch_size`, `shards`, `threads` expect integers >= 1".to_string(),
            );
        }
        if self.engine.is_sharded() && self.shards < 2 {
            return Err(format!(
                "engine `{}` needs `shards` >= 2",
                self.engine.name()
            ));
        }
        if self.engine == Engine::Serve && self.rate <= 0.0 {
            return Err("engine `serve` is open loop and needs a positive `rate`".to_string());
        }
        Ok(())
    }

    pub fn to_json(&self) -> Value {
        json!({
            "name": &self.name,
            "engine": self.engine.name(),
            "query": match self.query { Query::Q1 => "q1", Query::Q2 => "q2" },
            "sf": self.sf,
            "batches": self.batches,
            "warmup": self.warmup,
            "batch_size": self.batch_size,
            "mix": json!({
                "comment": self.mix.comment,
                "like": self.mix.like,
                "friendship": self.mix.friendship,
                "retraction": self.mix.retraction,
            }),
            "shards": self.shards,
            "threads": self.threads,
            "checkpoint_every": self.checkpoint_every,
            "rate": self.rate,
        })
    }

    /// Read `<dir>/<name>.json`.
    pub fn load(dir: &Path, name: &str) -> Result<Spec, String> {
        let path = dir.join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read spec {}: {e}", path.display()))?;
        let value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec = Spec::from_json(&value).map_err(|e| format!("{}: {e}", path.display()))?;
        if spec.name != name {
            return Err(format!(
                "{}: spec is named `{}`, expected `{name}`",
                path.display(),
                spec.name
            ));
        }
        Ok(spec)
    }

    /// The CI-sized variant every workload shrinks to under `--smoke`: sf1 and
    /// 40 measured batches.
    pub fn smoke(mut self) -> Spec {
        self.sf = 1;
        self.warmup = self.warmup.min(5);
        self.batches = 40;
        self
    }

    /// Batches the stream is materialised to (warm-up + measured).
    pub fn total_batches(&self) -> usize {
        self.warmup + self.batches
    }
}

/// `benchmark/workloads` of this repository, for tests: the sources build
/// both as a bin of `crates/bench` and as the `benchmark/` package, so the
/// directory is looked for from the manifest directory upwards.
#[cfg(test)]
pub fn workloads_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("benchmark/workloads"))
        .find(|dir| dir.is_dir())
        .expect("benchmark/workloads exists above the manifest directory")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::WORKLOADS;

    #[test]
    fn spec_json_round_trips() {
        let mut spec = Spec::new("x", Engine::Serve, Query::Q1, 16, 1000);
        spec.shards = 2;
        spec.rate = 100.0;
        spec.checkpoint_every = 8;
        spec.mix.retraction = 0.25;
        let rendered = serde_json::to_string(&spec.to_json()).expect("renders");
        let parsed = Spec::from_json(&serde_json::from_str(&rendered).expect("parses"))
            .expect("a rendered spec is valid");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn bad_specs_are_rejected_with_the_key_named() {
        let parse = |text: &str| Spec::from_json(&serde_json::from_str(text).expect("JSON"));
        let ok = r#"{"name":"a","engine":"unsharded","query":"q1","sf":1,"batches":5}"#;
        assert_eq!(parse(ok).expect("minimal spec").warmup, 50);
        for (bad, hint) in [
            (
                r#"{"name":"a","engine":"warp","query":"q1","sf":1,"batches":5}"#,
                "engine",
            ),
            (
                r#"{"name":"a","engine":"paper","query":"q3","sf":1,"batches":5}"#,
                "query",
            ),
            (
                r#"{"name":"a","engine":"paper","query":"q1","sf":0,"batches":5}"#,
                "sf",
            ),
            (
                r#"{"name":"a","engine":"paper","query":"q1","sf":1,"batches":5,"colour":1}"#,
                "colour",
            ),
            (
                r#"{"name":"a","engine":"paper","query":"q1","sf":"big","batches":5}"#,
                "sf",
            ),
            (
                r#"{"name":"a","engine":"serve","query":"q1","sf":1,"batches":5,"shards":2}"#,
                "rate",
            ),
            (
                r#"{"name":"a","engine":"pipeline","query":"q1","sf":1,"batches":5}"#,
                "shards",
            ),
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains(hint), "{err} should mention {hint}");
        }
    }

    #[test]
    fn every_declared_workload_has_a_valid_spec_file() {
        let dir = workloads_dir();
        for workload in WORKLOADS {
            let spec = Spec::load(&dir, workload.name).expect(workload.name);
            // percentiles need their samples: 1000 measured batches leave ten beyond p99
            if spec.engine != Engine::Paper {
                assert!(spec.batches >= 1000, "{}", workload.name);
            }
        }
        let specs = std::fs::read_dir(&dir).expect("workloads dir").count();
        assert_eq!(specs, WORKLOADS.len(), "a spec file without a table entry");
    }
}
