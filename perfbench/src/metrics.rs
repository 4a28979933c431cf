//! From measurements to named metrics.

use crate::layers::{LayerRun, ShapeCost};
use crate::serve_loop::LoopRun;
use crate::stats::{mean, median, tail_percentile, MIN_BEYOND};
use crate::trace::{covered_us, self_time_table, self_times_ms, Span};
use crate::workload::Plan;
use ess_service::jsonio::Json;
use ess_service::proto::Frame;
use std::collections::BTreeMap;

/// One reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Metrics by name (sorted, so output order is stable).
pub type Metrics = BTreeMap<String, Metric>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), Metric { value, unit });
}

/// [`put`] for a statistic of a possibly empty sample: NaN when empty,
/// which the caller reports as a problem.
fn put_opt(m: &mut Metrics, name: &str, value: Option<f64>, unit: &'static str) {
    put(m, name, value.unwrap_or(f64::NAN), unit);
}

/// Latency samples with every failed completion counted as missing the
/// limit (`INFINITY`).
fn with_failures(samples: &[f64], failed: usize) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.extend(std::iter::repeat_n(f64::INFINITY, failed));
    v
}

/// Mean prediction quality over the plan's distinct specs, from the first
/// `done` of each; `None` until every distinct spec finished once.
pub fn prediction_quality(plan: &Plan, run: &LoopRun) -> Option<f64> {
    let mut qualities = Vec::new();
    for (c, specs) in plan.specs.iter().enumerate() {
        for i in 0..specs.len() {
            qualities.push(run.observed.get(&(c, i))?.quality());
        }
    }
    mean(&qualities)
}

/// The end-to-end metrics of one untraced closed loop. Tail percentiles
/// appear only when the sample supports them (see [`crate::stats`]).
pub fn end_to_end(plan: &Plan, run: &LoopRun, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::new();
    let ok: Vec<_> = run.completions.iter().filter(|c| c.ok).collect();
    let secs = run.window_s.max(f64::MIN_POSITIVE);
    put(&mut m, "sessions_per_s", ok.len() as f64 / secs, "1/s");
    let evals: u64 = ok.iter().map(|c| c.evaluations).sum();
    put(&mut m, "evals_per_s", evals as f64 / secs, "1/s");
    let latency: Vec<f64> = run.completions.iter().map(|c| c.latency_ms).collect();
    let series = [
        ("session_latency", latency),
        (
            "first_progress",
            with_failures(&run.first_progress_ms, run.failed),
        ),
        ("step_latency", with_failures(&run.step_gap_ms, run.failed)),
    ];
    for (name, samples) in series {
        if let Some(p50) = median(&samples) {
            put(&mut m, &format!("{name}_p50_ms"), p50, "ms");
        }
        if let Some(p90) = tail_percentile(&samples, 90.0, MIN_BEYOND) {
            put(&mut m, &format!("{name}_p90_ms"), p90, "ms");
        }
        put(
            &mut m,
            &format!("{name}_samples"),
            samples.len() as f64,
            "count",
        );
    }
    if let Some(q) = prediction_quality(plan, run) {
        put(&mut m, "prediction_quality", q, "jaccard");
    }
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    put(&mut m, "error_rate", error_rate, "ratio");
    put(&mut m, "setup_s", setup_s, "s");
    put(&mut m, "peak_rss_mb", peak_rss_mb, "MB");
    m
}

/// Per-frame decode and encode cost of the captured response lines:
/// `(decode µs, encode µs)`, each the median over `passes` replays.
///
/// # Errors
/// A captured line that does not parse back into a frame.
pub fn jsonio_cost(lines: &[String], passes: usize) -> Result<(f64, f64), String> {
    if lines.is_empty() {
        return Err("no response lines captured".to_string());
    }
    let frames: Vec<Frame> = lines
        .iter()
        .map(|l| {
            Json::parse(l)
                .map_err(|e| e.to_string())
                .and_then(|j| Frame::from_json(&j))
        })
        .collect::<Result<_, _>>()?;
    let (mut decode, mut encode) = (Vec::new(), Vec::new());
    for _ in 0..passes.max(1) {
        let t0 = crate::trace::now();
        for l in lines {
            let frame = Json::parse(l)
                .map_err(|e| e.to_string())
                .and_then(|j| Frame::from_json(&j))?;
            std::hint::black_box(frame);
        }
        let t1 = crate::trace::now();
        for f in &frames {
            std::hint::black_box(f.to_json().to_string());
        }
        let t2 = crate::trace::now();
        let per = |a: std::time::Instant, b: std::time::Instant| {
            b.saturating_duration_since(a).as_secs_f64() * 1e6 / lines.len() as f64
        };
        decode.push(per(t0, t1));
        encode.push(per(t1, t2));
    }
    Ok((
        median(&decode).unwrap_or(0.0),
        median(&encode).unwrap_or(0.0),
    ))
}

/// Wall time of `[lo, hi]` that no top-level span of `lane` covers, ms.
pub fn unattributed_ms(spans: &[Span], lane: u32, lo: f64, hi: f64) -> f64 {
    let top: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.lane == lane && s.parent.is_none())
        .map(|s| (s.start_us, s.end_us))
        .collect();
    ((hi - lo) - covered_us(lo, hi, top)) / 1e3
}

/// A metric-name fragment for a system (`"ESS-NS"` → `"ess_ns"`).
pub fn system_key(system: &str) -> String {
    system.to_ascii_lowercase().replace('-', "_")
}

/// Inputs of the per-layer metrics.
pub struct LayerInputs<'a> {
    /// Untraced closed loop of the same run.
    pub untraced: &'a LoopRun,
    /// Traced closed loop over the serve path.
    pub traced: &'a LoopRun,
    /// The hooked scheduler-level run.
    pub layers: &'a LayerRun,
    /// Every span, parents assigned.
    pub spans: &'a [Span],
    /// Serve-loop window in µs since the tracer origin.
    pub serve_window_us: (f64, f64),
    /// Serial replay cost per grid shape.
    pub replay: &'a BTreeMap<(usize, usize), ShapeCost>,
    /// `(decode, encode)` µs per frame.
    pub jsonio_us: (f64, f64),
}

/// The per-layer metrics of a traced run.
pub fn per_layer(inp: &LayerInputs<'_>) -> Metrics {
    use crate::layers::LANE_LAYERS;
    use crate::serve_loop::LANE_CLIENT;
    let mut m = Metrics::new();
    let traced = inp.traced;
    let ok: Vec<_> = traced.completions.iter().filter(|c| c.ok).collect();

    // client / service.spec / service.serve
    put_opt(
        &mut m,
        "client.run_rtt_p50_ms",
        median(&traced.run_rtt_ms),
        "ms",
    );
    put_opt(
        &mut m,
        "client.advance_rtt_p50_ms",
        median(&traced.advance_rtt_ms),
        "ms",
    );

    // service.jsonio / service.proto
    let frames = traced.captured.len() as f64 / traced.sessions_total.max(1) as f64;
    put(&mut m, "jsonio.frames_per_session", frames, "count");
    put(&mut m, "jsonio.decode_us_per_frame", inp.jsonio_us.0, "us");
    put(&mut m, "jsonio.encode_us_per_frame", inp.jsonio_us.1, "us");

    // service.scheduler, seen from the serve path
    let rounds: Vec<f64> = ok.iter().map(|c| c.rounds as f64).collect();
    put_opt(
        &mut m,
        "scheduler.rounds_per_session",
        mean(&rounds),
        "count",
    );
    let wait: Vec<f64> = ok.iter().map(|c| c.latency_ms - c.wall_ms).collect();
    put_opt(&mut m, "scheduler.wait_ms_p50", median(&wait), "ms");

    // service.scheduler / ess.pipeline / evoalg / parworker, from the
    // hooked run's spans inside its window
    let (lo, hi) = inp.layers.window_us;
    let in_window = |s: &Span| s.lane == LANE_LAYERS && s.end_us > lo && s.end_us <= hi;
    let selfs = self_times_ms(inp.spans);
    let mut rounds_ms = Vec::new();
    let mut round_self = Vec::new();
    let mut step_ms = Vec::new();
    let mut step_self = Vec::new();
    let mut event_delay = Vec::new();
    let mut optimize_ms = Vec::new();
    let mut optimizer_self: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut evaluate_ms = 0.0;
    for (i, s) in inp.spans.iter().enumerate() {
        if !in_window(s) {
            continue;
        }
        match s.name {
            "scheduler.round" => {
                rounds_ms.push(s.ms());
                round_self.push(selfs[i]);
            }
            "pipeline.step" => {
                step_ms.push(s.ms());
                step_self.push(selfs[i]);
                if let Some(p) = s.parent {
                    event_delay.push((inp.spans[p].end_us - s.end_us) / 1e3);
                }
            }
            "optimizer.optimize" => {
                optimize_ms.push(s.ms());
                let system = s
                    .session
                    .and_then(|tag| inp.layers.systems.get(&tag))
                    .map_or_else(|| "unknown".to_string(), |name| system_key(name));
                optimizer_self.entry(system).or_default().push(selfs[i]);
            }
            "pool.evaluate" => evaluate_ms += s.ms(),
            _ => {}
        }
    }
    let steps = step_ms.len().max(1) as f64;
    put_opt(&mut m, "scheduler.round_ms_p50", median(&rounds_ms), "ms");
    put_opt(&mut m, "scheduler.self_ms", mean(&round_self), "ms");
    put_opt(
        &mut m,
        "scheduler.event_delay_ms_p50",
        median(&event_delay),
        "ms",
    );
    put_opt(&mut m, "pipeline.step_ms_p50", median(&step_ms), "ms");
    put_opt(&mut m, "pipeline.optimize_ms", mean(&optimize_ms), "ms");
    put_opt(&mut m, "pipeline.stages_ms", mean(&step_self), "ms");
    for system in ess_service::systems::names() {
        let key = system_key(system);
        let v = optimizer_self.get(&key).and_then(|v| mean(v));
        put_opt(&mut m, &format!("optimizer.{key}.self_ms"), v, "ms");
    }

    let c = &inp.layers.collected;
    let window_steps: Vec<_> = c
        .steps
        .iter()
        .filter(|s| s.end_us > lo && s.end_us <= hi)
        .collect();
    let generations: Vec<f64> = window_steps
        .iter()
        .map(|s| f64::from(s.generations))
        .collect();
    put_opt(&mut m, "optimizer.generations", mean(&generations), "count");
    let batches: Vec<_> = c
        .batches
        .iter()
        .filter(|b| b.end_us > lo && b.end_us <= hi)
        .collect();
    let rows: usize = batches.iter().map(|b| b.rows).sum();
    put(
        &mut m,
        "optimizer.batches",
        batches.len() as f64 / steps,
        "count",
    );
    put(
        &mut m,
        "optimizer.batch_rows_mean",
        rows as f64 / batches.len().max(1) as f64,
        "count",
    );
    put(&mut m, "pool.evaluate_ms", evaluate_ms / steps, "ms");
    put(&mut m, "pool.rows", rows as f64 / steps, "count");
    let inline = batches.iter().filter(|b| b.inline).count();
    put(
        &mut m,
        "pool.inline_batches",
        inline as f64 / steps,
        "count",
    );

    // firelib / landscape, from the serial replay, weighted by the rows
    // each grid shape contributed to the window
    let mut rows_by_shape: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for b in &batches {
        *rows_by_shape.entry(b.shape).or_insert(0) += b.rows;
    }
    let (mut kernel, mut jaccard, mut burned, mut weight) = (0.0, 0.0, 0.0, 0.0);
    for (shape, &n) in &rows_by_shape {
        let Some(cost) = inp.replay.get(shape).filter(|c| c.evals > 0) else {
            continue;
        };
        let (w, e) = (n as f64, cost.evals as f64);
        kernel += w * cost.kernel_us / e;
        jaccard += w * cost.jaccard_us / e;
        burned += w * cost.burned as f64 / e;
        weight += w;
    }
    let weight = if weight > 0.0 { weight } else { f64::NAN };
    put(&mut m, "firelib.kernel_us_per_eval", kernel / weight, "us");
    put(
        &mut m,
        "firelib.burned_cells_per_eval",
        burned / weight,
        "count",
    );
    put(
        &mut m,
        "firelib.ns_per_burned_cell",
        kernel * 1e3 / burned,
        "ns",
    );
    put(
        &mut m,
        "landscape.jaccard_us_per_eval",
        jaccard / weight,
        "us",
    );
    // Serial cost of the window's rows ÷ (time in evaluate × workers).
    let serial_ms = (kernel + jaccard) / 1e3;
    let efficiency = serial_ms / (evaluate_ms * crate::POOL_WORKERS as f64);
    put(&mut m, "pool.parallel_efficiency", efficiency, "ratio");

    let unattributed = unattributed_ms(inp.spans, LANE_LAYERS, lo, hi)
        + unattributed_ms(
            inp.spans,
            LANE_CLIENT,
            inp.serve_window_us.0,
            inp.serve_window_us.1,
        );
    put(&mut m, "unattributed_ms", unattributed, "ms");

    let per_session =
        |r: &LoopRun| r.window_s / r.completions.iter().filter(|c| c.ok).count().max(1) as f64;
    let overhead = (per_session(traced) / per_session(inp.untraced) - 1.0) * 100.0;
    put(&mut m, "trace.overhead_pct", overhead, "%");
    m
}

/// The per-layer self-time table, as aligned text.
pub fn self_time_report(spans: &[Span], windows: &[(u32, &str, f64, f64)]) -> String {
    let mut out = String::new();
    for &(lane, label, lo, hi) in windows {
        let wall_ms = (hi - lo) / 1e3;
        out.push_str(&format!("\n{label}: window {wall_ms:.1} ms\n"));
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>12} {:>8}\n",
            "span", "count", "total_ms", "self_ms", "self_%"
        ));
        let rows = self_time_table(spans, |s| s.lane == lane && s.end_us > lo && s.end_us <= hi);
        for (name, (n, total, own)) in rows {
            out.push_str(&format!(
                "{name:<24} {n:>8} {total:>12.2} {own:>12.2} {:>7.1}%\n",
                own / wall_ms * 100.0
            ));
        }
        let gap = unattributed_ms(spans, lane, lo, hi);
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {gap:>12.2} {:>7.1}%\n",
            "(unattributed)",
            "",
            "",
            gap / wall_ms * 100.0
        ));
    }
    out
}
