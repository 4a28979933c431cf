//! `perfbench` — the repository benchmark: closed-loop served predictions
//! end to end, plus a traced per-layer breakdown.
//!
//! [`run`] executes one benchmark run of one workload:
//!
//! 1. **Reference**, untimed: every spec of the seeded plan through
//!    `RunSpec::run()` on the serial backend ([`workload::Plan::build`]).
//! 2. **Untraced closed loop** over `serve_configured` through the typed
//!    client ([`serve_loop::run`]) — the end-to-end metrics. Between
//!    rounds, every half second, the loop also times one set-up: start a
//!    second serve loop with its worker pool, connect, and submit the
//!    plan's first spec until it is accepted ([`serve_loop::setup_once`]).
//! 3. With tracing on, the same loop again with client spans and captured
//!    frames, then the hooked scheduler-level run ([`layers::run`]) and a
//!    serial replay of sampled batches ([`layers::replay`]) — the
//!    per-layer metrics, the self-time table and a Chrome trace.
//!
//! Every `done` frame and every hooked session must match its reference
//! fingerprint, and every replayed score the pool's, or the run is not
//! correct.

pub mod layers;
pub mod metrics;
pub mod serve_loop;
pub mod stats;
pub mod trace;
pub mod window;
pub mod workload;

use ess_service::jsonio::Json;
use metrics::{Metric, Metrics};
use std::path::PathBuf;
use workload::{Plan, Workload};

/// Pool workers of the served configuration (`worker-pool:2`).
pub const POOL_WORKERS: usize = 2;

/// Spawns a named thread. Every thread the benchmark starts goes through
/// here and is joined by its caller.
///
/// # Panics
/// When the OS refuses a thread.
pub fn start_thread<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    std::thread::Builder::new()
        .name(format!("perfbench-{name}"))
        // lint: allow(thread-spawn) — the benchmark hosts the serve loop on its own thread, as a server process would
        .spawn(f)
        .expect("spawn benchmark thread")
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which traffic mix.
    pub workload: Workload,
    /// Workload seed; every spec seed derives from it.
    pub seed: u64,
    /// Measured window per closed loop, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the trace, table and full result go.
    pub out_dir: PathBuf,
}

/// One run's outcome.
#[derive(Debug)]
pub struct Outcome {
    /// All outputs matched their references.
    pub correct: bool,
    /// Operations whose outcome fell in the measured window.
    pub attempted: usize,
    /// Of those, failed.
    pub failed: usize,
    /// The metrics this run reports.
    pub metrics: Metrics,
    /// Extra measurements that are not contract metrics (sample counts,
    /// tail percentiles the sample may not support).
    pub extra: Metrics,
    /// Why the run is not correct.
    pub problems: Vec<String>,
    /// Human-readable self-time table (traced runs).
    pub table: Option<String>,
}

/// Names of the end-to-end metrics every untraced run reports.
pub const END_TO_END: &[&str] = &[
    "sessions_per_s",
    "evals_per_s",
    "session_latency_p50_ms",
    "first_progress_p50_ms",
    "step_latency_p50_ms",
    "prediction_quality",
    "setup_s",
    "peak_rss_mb",
];

/// Runs the benchmark once.
///
/// # Errors
/// Set-up, transport or protocol failures that prevent measuring at all.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let reference_start = trace::now();
    let plan = Plan::build(opts.workload, opts.seed)?;
    let reference_s = trace::now()
        .saturating_duration_since(reference_start)
        .as_secs_f64();
    if let Err(e) = reset_peak_rss() {
        eprintln!("perfbench: peak_rss_mb covers the whole process: {e}");
    }
    let untraced = serve_loop::run(&plan, opts.seconds, None)?;
    let peak_rss = peak_rss_mb();
    let mut problems = untraced.failures.clone();
    // The two vCPUs of a small VM can run one thread at different
    // speeds, so set-up samples fall into two modes; their median jumps
    // between the modes as the mix shifts, the interquartile mean does not.
    let setup_s = stats::interquartile_mean(&untraced.setup_s).unwrap_or(f64::NAN);
    let mut all_e2e = metrics::end_to_end(&plan, &untraced, setup_s, peak_rss);
    all_e2e.insert(
        "reference_s".to_string(),
        Metric {
            value: reference_s,
            unit: "s",
        },
    );

    if !opts.trace {
        let (metrics, extra) = split(&all_e2e, END_TO_END, &mut problems);
        return Ok(Outcome {
            correct: problems.is_empty(),
            attempted: untraced.attempted,
            failed: untraced.failed,
            metrics,
            extra,
            problems,
            table: None,
        });
    }

    let origin = trace::now();
    let tracer = trace::Tracer::shared(origin);
    let traced = serve_loop::run(&plan, opts.seconds, Some(&tracer))?;
    let layer_run = layers::run(&plan, opts.seconds, &tracer)?;
    let replay = layers::replay(&layer_run.collected.samples, &tracer);
    problems.extend(traced.failures.iter().cloned());
    problems.extend(layer_run.failures.iter().cloned());
    for (name, observed) in [("traced", &traced.observed), ("layer", &layer_run.observed)] {
        if observed
            .iter()
            .any(|(k, v)| untraced.observed.get(k).is_some_and(|u| u != v))
        {
            problems.push(format!(
                "{name} run fingerprints differ from the untraced run's"
            ));
        }
    }
    let replay = replay.unwrap_or_else(|e| {
        problems.push(e);
        Default::default()
    });
    let jsonio_us = metrics::jsonio_cost(&traced.captured, 5).unwrap_or_else(|e| {
        problems.push(e);
        (f64::NAN, f64::NAN)
    });
    let mut spans = trace::lock(&tracer).take();
    trace::assign_parents(&mut spans);
    let serve_window_us = traced.bounds.map_or((0.0, 0.0), |(s, e)| {
        (trace::us_since(origin, s), trace::us_since(origin, e))
    });
    let all_layers = metrics::per_layer(&metrics::LayerInputs {
        untraced: &untraced,
        traced: &traced,
        layers: &layer_run,
        spans: &spans,
        serve_window_us,
        replay: &replay,
        jsonio_us,
    });
    let table = metrics::self_time_report(
        &spans,
        &[
            (
                serve_loop::LANE_CLIENT,
                "serve path (client spans)",
                serve_window_us.0,
                serve_window_us.1,
            ),
            (
                layers::LANE_LAYERS,
                "scheduler path (hooked layers)",
                layer_run.window_us.0,
                layer_run.window_us.1,
            ),
        ],
    );
    let stem = format!("{}_seed{}", opts.workload, opts.seed);
    write(
        &opts.out_dir.join(format!("trace_{stem}.json")),
        &trace::chrome_trace(
            &spans,
            &[
                (serve_loop::LANE_CLIENT, "client (serve path)"),
                (layers::LANE_LAYERS, "scheduler (hooked layers)"),
                (layers::LANE_REPLAY, "serial replay"),
            ],
        )
        .to_string(),
    )?;
    write(&opts.out_dir.join(format!("layers_{stem}.txt")), &table)?;
    let names: Vec<&str> = all_layers.keys().map(String::as_str).collect();
    let (metrics, mut extra) = split(&all_layers, &names, &mut problems);
    extra.extend(all_e2e);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
        extra,
        problems,
        table: Some(table),
    })
}

/// Splits `all` into the metrics named in `wanted` (each must be present
/// and finite) and the rest.
fn split(all: &Metrics, wanted: &[&str], problems: &mut Vec<String>) -> (Metrics, Metrics) {
    let mut chosen = Metrics::new();
    let mut rest = all.clone();
    for &name in wanted {
        match rest.remove(name) {
            Some(m) if m.value.is_finite() => {
                chosen.insert(name.to_string(), m);
            }
            Some(m) => problems.push(format!("metric {name} is not finite ({})", m.value)),
            None => problems.push(format!("metric {name} has too few samples to report")),
        }
    }
    (chosen, rest)
}

/// Writes `text` to `path`, creating its directory.
///
/// # Errors
/// Filesystem errors.
pub fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Resets this process's peak resident set size to its current one, so
/// that [`peak_rss_mb`] then reports the peak of what runs after.
///
/// # Errors
/// Where `/proc/self/clear_refs` is unavailable.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Peak resident set size of this process, MB (`VmHWM`; NaN where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host and build facts every result records.
pub fn host_facts(opts: &Options) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .field("workload", opts.workload.name())
        .field("seed", opts.seed)
        .field("seconds", opts.seconds)
        .field("trace", opts.trace)
        .field("nproc", nproc)
        .field("pool_workers", POOL_WORKERS)
        .field("policy", "round-robin")
        .field("fused", false)
        .field(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .field("commit", commit())
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The contract's result line.
pub fn result_line(outcome: &Outcome) -> Json {
    Json::obj()
        .field("correct", outcome.correct)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", metrics_json(&outcome.metrics))
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &Metrics) -> Json {
    let mut obj = Json::obj();
    for (name, Metric { value, unit }) in metrics {
        obj = obj.field(
            name,
            Json::obj().field("value", *value).field("unit", *unit),
        );
    }
    obj
}
