//! `ttc_bench run`: one workload, one pass. Set-up (three times, median),
//! then either the timed pass (end-to-end metrics, tracing off) or the traced
//! pass (per-layer metrics), then the reference comparison, outside every
//! timed window.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use datagen::partition::{ModuloPartitioner, Partitioner, RingPartitioner};
use serde_json::{json, Value};

use crate::cli::Args;
use crate::input::{self, Input};
use crate::spec::{Engine, Spec};
use crate::stats::{self, median, ratio};
use crate::tables::{END_TO_END, PER_LAYER};
use crate::timed::{self, Chaos, Rep};
use crate::traced;
use crate::verify::{self, Reference, Tally};
use crate::{host, trace};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Load samples per run (repetitions first, load-only engines for the rest):
/// at least the first count, and up to the second while the load-only
/// engines have taken less than [`SHORT_LOADS_S`] — a 10 ms load needs more
/// than five samples for a steady median, a 0.7 s one cannot afford them.
const LOAD_SAMPLES: (usize, usize) = (5, 25);
/// Time the load-only engines may take beyond the first five samples.
const SHORT_LOADS_S: f64 = 0.5;
/// The paced workload is flagged unsustainable beyond this share of late batches.
const UNSUSTAINABLE_LATE_RATIO: f64 = 0.01;

/// What a run hands back: the full row for result files and the contract's
/// four-key object for the driver.
pub struct Outcome {
    pub row: Value,
    pub contract: Value,
}

/// The spec of the run: the workload's file, shrunk under `--smoke`.
pub fn spec_for(args: &Args) -> Result<Spec, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let spec = Spec::load(&args.specs, name)?;
    Ok(if args.smoke { spec.smoke() } else { spec })
}

/// Build the input [`SETUPS`] times; keeps the last, returns every timing.
fn set_up(spec: &Spec, seed: u64) -> (Input, Vec<f64>, Vec<f64>) {
    let mut input = input::build(spec, seed);
    let mut setup_s = vec![input.setup_s()];
    let mut generate_s = vec![input.generate_s];
    for _ in 1..SETUPS {
        drop(input);
        input = input::build(spec, seed);
        setup_s.push(input.setup_s());
        generate_s.push(input.generate_s);
    }
    (input, setup_s, generate_s)
}

/// Check everything one engine repetition produced against the reference.
fn check_rep(tally: &mut Tally, what: &str, rep: &Rep, spec: &Spec, reference: &Reference) {
    if let Some(initial) = &rep.initial {
        tally.check_one(&format!("{what}: initial"), initial, &reference.initial);
    }
    tally.check_all(what, &rep.results, reference.measured(spec));
    if let Some(served) = &rep.served {
        tally.check_all("served view", &served.view_results, &reference.results);
        tally.fail_many("invalid view seals", served.bad_seals);
    }
}

fn late_ratio(rep: &Rep) -> f64 {
    rep.lateness
        .as_ref()
        .map_or(0.0, |(log, schedule)| log.late_ratio(schedule))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec_for(args)?;
    let (input, setup_s, generate_s) = set_up(&spec, args.seed);
    eprintln!(
        "# {} seed {} digest {:016x}: sf{} {} nodes {} edges, {} batches ({} warm-up) {} ops",
        spec.name,
        args.seed,
        input.digest,
        spec.sf,
        input.network.node_count(),
        input.network.edge_count(),
        input.batches.len(),
        spec.warmup,
        input.ops(),
    );

    let mut tally = Tally::default();
    let mut extra = BTreeMap::new();
    // every declared metric of the pass, in table order; a layer the workload
    // does not run computed nothing and reports 0
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let m = traced_pass(args, &spec, &input, &generate_s, &mut tally, &mut extra)?;
        debug_assert!(m.keys().all(|k| PER_LAYER.iter().any(|p| p.name == *k)));
        let value = |name| m.get(name).copied().unwrap_or(0.0);
        PER_LAYER
            .iter()
            .map(|p| (p.name, value(p.name), p.unit))
            .collect()
    } else {
        let m = timed_pass(args, &spec, &input, &setup_s, &mut tally, &mut extra)?;
        END_TO_END
            .iter()
            .map(|e| (e.name, m[e.name], e.unit))
            .collect()
    };
    for note in &tally.notes {
        eprintln!("MISMATCH {note}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("{name:<42} {value:>16.6} {unit}");
    }

    let metrics_json: BTreeMap<String, Value> = metrics
        .iter()
        .map(|(name, value, unit)| (name.to_string(), json!({"value": *value, "unit": *unit})))
        .collect();
    let contract = json!({
        "correct": tally.correct(),
        "attempted": tally.attempted.max(1),
        "failed": tally.failed,
        "metrics": Value::Object(metrics_json.clone()),
    });
    let mut row = BTreeMap::from([
        ("workload".to_string(), Value::from(spec.name.as_str())),
        (
            "why".to_string(),
            Value::from(crate::tables::workload(&spec.name).map_or("", |w| w.why)),
        ),
        ("spec".to_string(), spec.to_json()),
        ("seed".to_string(), Value::from(args.seed)),
        ("smoke".to_string(), Value::from(args.smoke)),
        ("trace".to_string(), Value::from(args.trace)),
        (
            "input_digest".to_string(),
            Value::from(format!("{:016x}", input.digest)),
        ),
        ("correct".to_string(), Value::from(tally.correct())),
        ("attempted".to_string(), Value::from(tally.attempted)),
        ("failed".to_string(), Value::from(tally.failed)),
        (
            "failed_batch_ratio".to_string(),
            Value::from(ratio(tally.failed as f64, tally.attempted as f64)),
        ),
        ("metrics".to_string(), Value::Object(metrics_json)),
    ]);
    row.extend(extra);
    Ok(Outcome {
        row: Value::Object(row),
        contract,
    })
}

type Metrics = BTreeMap<&'static str, f64>;

/// The timed pass: repetitions on fresh engines while they fit the budget.
/// At the specs' sizes one repetition takes 5-12 s of the contract's 10, so
/// a run is one repetition (two of `q1_pipeline`) and the per-repetition
/// medians below are that repetition; `--smoke` and a larger `--seconds`
/// fit several.
fn timed_pass(
    args: &Args,
    spec: &Spec,
    input: &Input,
    setup_s: &[f64],
    tally: &mut Tally,
    extra: &mut BTreeMap<String, Value>,
) -> Result<Metrics, String> {
    let budget = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let started = Instant::now();
        reps.push(timed::run_rep(
            spec,
            &input.network,
            &input.batches,
            args.seed,
        )?);
        if reps.len() == 1 {
            // the high-water mark of set-up plus one repetition: whether a
            // second repetition fits, and how many load-only engines follow,
            // must not decide it (and the reference comes later still)
            peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        }
        let rep_s = started.elapsed().as_secs_f64();
        if budget.elapsed().as_secs_f64() + rep_s > args.seconds {
            break;
        }
    }
    let mut load_s: Vec<f64> = reps.iter().map(|r| r.load_s).collect();
    let extra_loads = Instant::now();
    while load_s.len() < LOAD_SAMPLES.0
        || (load_s.len() < LOAD_SAMPLES.1 && extra_loads.elapsed().as_secs_f64() < SHORT_LOADS_S)
    {
        load_s.push(timed::load_only(spec, &input.network)?);
    }

    let reference = verify::reference(spec, &input.network, &input.batches);
    for (i, rep) in reps.iter().enumerate() {
        check_rep(tally, &format!("rep {i} batch"), rep, spec, &reference);
    }
    reference.check_final_state(tally);

    let per_rep = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
    let metrics = Metrics::from([
        ("setup_s", median(setup_s)),
        ("load_initial_s", median(&load_s)),
        (
            "updates_per_s",
            per_rep(|r| ratio(r.ops as f64, r.window_s)),
        ),
        ("batch_p50_ms", per_rep(|r| r.p50_ms)),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    let late = median(&reps.iter().map(late_ratio).collect::<Vec<f64>>());
    extra.insert("repetitions".to_string(), Value::from(reps.len()));
    extra.insert("load_samples".to_string(), Value::from(load_s.len()));
    extra.insert(
        "percentile_samples".to_string(),
        Value::from(reps.first().map_or(0, |r| r.samples)),
    );
    extra.insert("late_ratio".to_string(), Value::from(late));
    extra.insert(
        "unsustainable".to_string(),
        Value::from(late > UNSUSTAINABLE_LATE_RATIO),
    );
    if late > UNSUSTAINABLE_LATE_RATIO {
        eprintln!(
            "UNSUSTAINABLE: {:.1}% of batches left the generator late",
            late * 100.0
        );
    }
    Ok(metrics)
}

/// Cost per key of a partition policy over the network's user ids.
fn partition_ns_per_key(policy: &dyn Partitioner, input: &Input) -> f64 {
    const ROUNDS: usize = 16;
    let started = Instant::now();
    let mut sum = 0usize;
    for _ in 0..ROUNDS {
        for user in &input.network.users {
            sum += policy.shard_of(std::hint::black_box(user.id));
        }
    }
    std::hint::black_box(sum);
    ratio(
        started.elapsed().as_nanos() as f64,
        (ROUNDS * input.network.users.len()) as f64,
    )
}

/// The extra recovery runs: the staged engine over the first quarter of the
/// stream with shard 1 killed, then resharded one wider, at that prefix's
/// midpoint.
fn recovery_runs(
    spec: &Spec,
    input: &Input,
    reference: &Reference,
    tally: &mut Tally,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let prefix = (input.batches.len() / 4)
        .max(spec.warmup + 2)
        .min(input.batches.len());
    let short = Spec {
        engine: Engine::Pipeline,
        batches: prefix - spec.warmup,
        ..spec.clone()
    };
    let midpoint = (prefix / 2) as u64;
    let expected = &reference.results[spec.warmup..prefix];
    let batches = &input.batches[..prefix];

    let kill = Chaos {
        kill_shards: vec![(1, midpoint)],
        ..Chaos::default()
    };
    let rep = timed::in_pool(spec.threads, || {
        timed::pipeline_rep(&short, &input.network, batches, &kill)
    })?;
    tally.check_all("restored run batch", &rep.results, expected);
    let restore_s = rep
        .pipeline
        .and_then(|p| p.recovery)
        .map_or(0.0, |r| r.max_restore_secs);
    m.insert("recovery.restore_ms", restore_s * 1e3);

    let reshard = Chaos {
        reshards: vec![(midpoint, spec.shards + 1)],
        ..Chaos::default()
    };
    let rep = timed::in_pool(spec.threads, || {
        timed::pipeline_rep(&short, &input.network, batches, &reshard)
    })?;
    tally.check_all("resharded run batch", &rep.results, expected);
    let barrier_s = rep
        .pipeline
        .and_then(|p| p.reshards.first().cloned())
        .map_or(0.0, |r| r.drain_secs + r.split_secs + r.respawn_secs);
    m.insert("recovery.reshard_barrier_ms", barrier_s * 1e3);
    Ok(())
}

/// The traced pass: one untraced engine repetition (for the engine's own
/// statistics and the wall-clock the trace is compared with), the serial
/// traced re-execution, and the extra recovery runs.
fn traced_pass(
    args: &Args,
    spec: &Spec,
    input: &Input,
    generate_s: &[f64],
    tally: &mut Tally,
    extra: &mut BTreeMap<String, Value>,
) -> Result<Metrics, String> {
    let rep = timed::run_rep(spec, &input.network, &input.batches, args.seed)?;
    let traced = timed::in_pool(1, || traced::run(spec, &input.network, &input.batches));
    let reference = verify::reference(spec, &input.network, &input.batches);

    check_rep(tally, "timed batch", &rep, spec, &reference);
    tally.check_one("traced initial", &traced.initial, &reference.initial);
    tally.check_all("traced batch", &traced.results, &reference.results);
    // the traced dataflow must be the engine's: same result after every batch
    tally.check_all(
        "traced vs timed batch",
        &traced.results[spec.warmup.min(traced.results.len())..],
        &rep.results,
    );
    tally.check_all(
        "incremental-CC batch",
        &traced.cc_results,
        &traced.cc_expected,
    );
    reference.check_final_state(tally);

    let mut m = traced.metrics.clone();
    if spec.engine.is_sharded() && spec.checkpoint_every > 0 {
        recovery_runs(spec, input, &reference, tally, &mut m)?;
    }

    m.insert("datagen.generate_s", median(generate_s));
    m.insert(
        "datagen.stream_us_per_batch",
        ratio(input.stream_s * 1e6, input.batches.len() as f64),
    );
    m.insert("datagen.ops_in", input.ops() as f64);
    let shards = spec.shards.max(2);
    m.insert(
        "datagen.partition_mod_ns_per_key",
        partition_ns_per_key(&ModuloPartitioner::new(shards), input),
    );
    m.insert(
        "datagen.partition_ring_ns_per_key",
        partition_ns_per_key(&RingPartitioner::new(shards, args.seed), input),
    );

    if let Some(p) = &rep.pipeline {
        let batches = input.batches.len() as f64;
        m.insert(
            "pipeline.ingest_backpressure_per_batch",
            ratio(p.ingest_backpressure as f64, batches),
        );
        m.insert(
            "pipeline.route_backpressure_per_batch",
            ratio(p.route_backpressure as f64, batches),
        );
        m.insert(
            "pipeline.apply_backpressure_per_batch",
            ratio(p.apply_backpressure as f64, batches),
        );
        m.insert("pipeline.max_watermark_lag", p.max_watermark_lag as f64);
        m.insert(
            "pipeline.vs_serial_ratio",
            ratio(rep.busy_s, traced.measured_s),
        );
    }
    if spec.engine == Engine::Pipeline {
        // under serving the repetition's percentiles are visibility lag instead
        m.insert("pipeline.e2e_p50_ms", rep.p50_ms);
        m.insert("pipeline.e2e_p99_ms", rep.p99_ms);
    }
    if let Some(served) = &rep.served {
        m.insert(
            "serve.visible_lag_p50_ms",
            stats::percentile(&served.lag_ms, 50.0),
        );
        m.insert(
            "serve.visible_lag_p95_ms",
            stats::percentile(&served.lag_ms, 95.0),
        );
        m.insert(
            "serve.capacity_updates_per_s",
            ratio(rep.ops as f64, rep.busy_s),
        );
        m.insert("serve.read_ns_per_op", median(&served.read_ns));
        m.insert("serve.read_topk_ns", median(&served.topk_ns));
        m.insert("serve.read_standing_ns", median(&served.standing_ns));
        m.insert("serve.read_component_ns", median(&served.component_ns));
    }
    if let Some((log, schedule)) = &rep.lateness {
        m.insert("loadgen.late_p99_ms", log.late_p99_ms());
        m.insert("loadgen.late_ratio", log.late_ratio(schedule));
    }
    m.insert("e2e.update_reeval_s", rep.window_s);
    m.insert("e2e.batch_p99_ms", rep.p99_ms);
    m.insert("nmf.updates_per_s", reference.nmf_updates_per_s);
    m.insert(
        "nmf.ratio",
        ratio(
            ratio(rep.ops as f64, rep.busy_s),
            reference.nmf_updates_per_s,
        ),
    );
    m.insert("trace.overhead_ratio", ratio(traced.measured_s, rep.busy_s));
    m.insert("verify.reference_s", reference.seconds);
    m.insert("host.nproc", host::nproc() as f64);
    m.insert("host.calibration_mops", host::calibration_mops());

    let path = args
        .out
        .join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
    write_trace(&traced.tracer, &spec.name, &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    extra.insert(
        "trace_file".to_string(),
        Value::from(path.display().to_string()),
    );
    extra.insert(
        "spans".to_string(),
        Value::from(traced.tracer.spans().len()),
    );
    extra.insert(
        "unsustainable".to_string(),
        Value::from(late_ratio(&rep) > UNSUSTAINABLE_LATE_RATIO),
    );

    Ok(m)
}

fn write_trace(
    tracer: &trace::Tracer,
    workload: &str,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_jsonl(workload, &mut out)?;
    out.flush()
}

/// `ttc_bench verify`: one engine repetition and the reference comparison,
/// nothing timed or reported beyond the tally.
pub fn verify_only(args: &Args) -> Result<Tally, String> {
    let spec = spec_for(args)?;
    let input = input::build(&spec, args.seed);
    let rep = timed::run_rep(&spec, &input.network, &input.batches, args.seed)?;
    let reference = verify::reference(&spec, &input.network, &input.batches);
    let mut tally = Tally::default();
    check_rep(&mut tally, "batch", &rep, &spec, &reference);
    reference.check_final_state(&mut tally);
    eprintln!(
        "# {} seed {} digest {:016x}: {} results checked against the reference in {:.2}s",
        spec.name, args.seed, input.digest, tally.attempted, reference.seconds
    );
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Command;
    use crate::tables::WORKLOADS;

    fn smoke_args(workload: &str, trace: bool) -> Args {
        Args {
            command: Command::Run,
            workload: Some(workload.to_string()),
            seed: 7,
            seconds: 0.0,
            trace,
            reps: 1,
            specs: crate::spec::workloads_dir(),
            out: std::env::temp_dir().join(format!("ttc_bench-smoke-{}", std::process::id())),
            smoke: true,
            files: Vec::new(),
        }
    }

    fn metric(outcome: &Outcome, name: &str) -> f64 {
        outcome
            .contract
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    fn metric_names(outcome: &Outcome) -> Vec<String> {
        match outcome.contract.get("metrics") {
            Some(Value::Object(map)) => map.keys().cloned().collect(),
            _ => panic!("no metrics object"),
        }
    }

    /// The smoke pass: every workload, both passes, at sf1 / 40 batches.
    /// Every declared metric is emitted under its declared name, every
    /// end-to-end metric is non-zero, no result differs from the reference,
    /// and each workload's traced pass shows work in the layers it runs and
    /// exactly none in the layers it does not.
    #[test]
    fn smoke_pass_emits_every_declared_metric_and_no_failures() {
        for workload in WORKLOADS {
            let timed = run(&smoke_args(workload.name, false)).expect(workload.name);
            let mut want: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
            want.sort();
            assert_eq!(metric_names(&timed), want, "{}", workload.name);
            for m in END_TO_END {
                assert!(
                    metric(&timed, m.name) > 0.0,
                    "{} {} is 0",
                    workload.name,
                    m.name
                );
            }

            let traced = run(&smoke_args(workload.name, true)).expect(workload.name);
            let mut want: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
            want.sort();
            assert_eq!(metric_names(&traced), want, "{}", workload.name);

            for outcome in [&timed, &traced] {
                let field = |key: &str| outcome.contract.get(key).cloned();
                assert_eq!(
                    field("correct"),
                    Some(Value::from(true)),
                    "{}",
                    workload.name
                );
                assert_eq!(
                    field("failed"),
                    Some(Value::from(0usize)),
                    "{}",
                    workload.name
                );
                assert!(field("attempted").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
                assert_eq!(
                    outcome
                        .row
                        .get("failed_batch_ratio")
                        .and_then(Value::as_f64),
                    Some(0.0)
                );
            }

            let spec = spec_for(&smoke_args(workload.name, true)).expect("spec");
            let busy = |name: &str| metric(&traced, name) > 0.0;
            assert!(busy("update.apply_us_p50") && busy("graph.from_network_s"));
            assert!(
                metric(&traced, "trace.unattributed_ratio") <= 0.1,
                "{}",
                workload.name
            );
            let (mine, other) = match spec.query {
                ttc_social_media::model::Query::Q1 => ("q1.update_us_p50", "q2.update_us_p50"),
                ttc_social_media::model::Query::Q2 => ("q2.update_us_p50", "q1.update_us_p50"),
            };
            assert!(busy(mine) && !busy(other), "{}", workload.name);
            assert_eq!(busy("shard.route_us_p50"), spec.engine.is_sharded());
            assert_eq!(busy("shard.merge_us_p50"), spec.engine.is_sharded());
            let staged = matches!(spec.engine, Engine::Pipeline | Engine::Serve);
            assert_eq!(busy("recovery.encode_ms_p50"), staged, "{}", workload.name);
            assert_eq!(busy("recovery.restore_ms"), staged, "{}", workload.name);
            assert_eq!(
                busy("pipeline.vs_serial_ratio"),
                staged,
                "{}",
                workload.name
            );
            assert_eq!(busy("pipeline.e2e_p50_ms"), spec.engine == Engine::Pipeline);
            for name in [
                "serve.build_us_p50",
                "serve.read_ns_per_op",
                "serve.visible_lag_p50_ms",
            ] {
                assert_eq!(
                    busy(name),
                    spec.engine == Engine::Serve,
                    "{} {name}",
                    workload.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(smoke_args("q1_stream", true).out);
    }

    #[test]
    fn verify_command_checks_one_workload_against_the_reference() {
        let tally = verify_only(&smoke_args("q2_sharded", false)).expect("runs");
        assert!(tally.correct(), "{:?}", tally.notes);
        // the initial result, 40 measured batches, the final-state recomputation
        assert_eq!(tally.attempted, 42);
    }
}
