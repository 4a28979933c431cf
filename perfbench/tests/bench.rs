//! The benchmark's own checks: the percentile reporting rule, self time on
//! a synthetic span tree, and a tiny-size smoke of every workload that
//! checks each completed session against its batch-path fingerprint.

use ess_service::jsonio::Json;
use perfbench::layers;
use perfbench::metrics::{self, LayerInputs};
use perfbench::serve_loop;
use perfbench::stats::{median, percentile, tail_percentile, MIN_BEYOND};
use perfbench::trace::{
    assign_parents, chrome_trace, self_time_table, self_times_ms, Span, Tracer,
};
use perfbench::workload::{Class, Plan, Workload};
use std::time::Instant;

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let v: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(
        tail_percentile(&v, 90.0, MIN_BEYOND),
        None,
        "99 samples: 9 beyond p90"
    );
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&v, 90.0, MIN_BEYOND), Some(90.0));
    assert_eq!(percentile(&v, 90.0), Some(90.0));
    assert_eq!(tail_percentile(&[], 50.0, MIN_BEYOND), None);
}

#[test]
fn failures_count_as_missing_the_limit() {
    // 100 samples, 11 of them failures: the p90 lands on a failure.
    let mut v: Vec<f64> = (1..=89).map(f64::from).collect();
    v.extend(std::iter::repeat_n(f64::INFINITY, 11));
    assert_eq!(tail_percentile(&v, 90.0, MIN_BEYOND), Some(f64::INFINITY));
    // A failure shifts the median instead of vanishing from it.
    assert_eq!(median(&[1.0, 2.0, f64::INFINITY]), Some(2.0));
    assert_eq!(median(&[1.0, 2.0]), Some(1.5));
}

fn span(name: &'static str, start: f64, end: f64, lane: u32) -> Span {
    Span {
        name,
        start_us: start,
        end_us: end,
        parent: None,
        session: Some(7),
        lane,
    }
}

#[test]
fn self_time_subtracts_covered_child_time() {
    // round ⊃ step ⊃ optimize ⊃ two evaluates; a second step shares the
    // round; a replay span on another lane overlaps but is no child.
    let mut spans = vec![
        span("pool.evaluate", 35.0, 45.0, 2),
        span("optimizer.optimize", 12.0, 50.0, 2),
        span("scheduler.round", 0.0, 100.0, 2),
        span("pipeline.step", 10.0, 60.0, 2),
        span("pool.evaluate", 20.0, 30.0, 2),
        span("pipeline.step", 65.0, 90.0, 2),
        span("firelib.simulate", 5.0, 95.0, 3),
    ];
    assign_parents(&mut spans);
    let by_name = |name: &str| {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    };
    let round = by_name("scheduler.round")[0];
    let optimize = by_name("optimizer.optimize")[0];
    for &step in &by_name("pipeline.step") {
        assert_eq!(spans[step].parent, Some(round));
    }
    for &eval in &by_name("pool.evaluate") {
        assert_eq!(spans[eval].parent, Some(optimize));
    }
    assert_eq!(
        spans[by_name("firelib.simulate")[0]].parent,
        None,
        "lanes never nest"
    );

    let selfs = self_times_ms(&spans);
    let own = |i: usize| (selfs[i] * 1e3).round();
    assert_eq!(own(round), 25.0, "100 − (50 + 25) µs");
    assert_eq!(own(optimize), 18.0, "38 − (10 + 10) µs");
    let first_step = by_name("pipeline.step")
        .into_iter()
        .find(|&i| spans[i].start_us == 10.0)
        .unwrap();
    assert_eq!(own(first_step), 12.0, "50 − 38 µs");

    let table = self_time_table(&spans, |_| true);
    let total_self: f64 = table.values().map(|r| r.2).sum();
    let lane2_wall = 0.1;
    assert!(
        (total_self - lane2_wall - 0.09).abs() < 1e-9,
        "lane 2 self times add up to its root span, lane 3 to its own"
    );
    assert!((metrics::unattributed_ms(&spans, 2, -50.0, 150.0) - 0.1).abs() < 1e-9);

    let trace = chrome_trace(&spans, &[(2, "layers")]).to_string();
    assert!(trace.contains(r#""ph":"X""#) && trace.contains(r#""thread_name""#));
}

#[test]
fn overlapping_children_are_counted_once() {
    let mut spans = vec![
        span("parent", 0.0, 100.0, 1),
        span("a", 10.0, 60.0, 1),
        span("b", 40.0, 80.0, 1),
    ];
    // `b` starts inside `a` but ends after it: not nested in `a`, so both
    // are children of the parent and their union (70 µs) is subtracted.
    assign_parents(&mut spans);
    let selfs = self_times_ms(&spans);
    assert!((selfs[0] * 1e3 - 30.0).abs() < 1e-9, "{selfs:?}");
}

/// A tiny plan: one spec per system per class, 5% budgets.
fn tiny_plan(workload: Workload) -> Plan {
    let classes: Vec<Class> = workload
        .classes()
        .into_iter()
        .map(|c| Class { distinct: 4, ..c })
        .collect();
    Plan::with_classes(classes, 11, 0.05).expect("tiny plan builds")
}

fn smoke(workload: Workload) {
    let plan = tiny_plan(workload);
    let untraced = serve_loop::run(&plan, 0.6, None).expect("untraced loop");
    assert!(untraced.failures.is_empty(), "{:?}", untraced.failures);
    assert_eq!(untraced.failed, 0);
    assert!(untraced.attempted > 0 && untraced.completions.iter().all(|c| c.ok));
    assert!(!untraced.setup_s.is_empty(), "no set-up sampled");
    for (&(class, spec), got) in &untraced.observed {
        assert_eq!(got, &plan.specs[class][spec].reference);
    }
    assert!(metrics::prediction_quality(&plan, &untraced).is_some());

    let tracer = Tracer::shared(Instant::now());
    let traced = serve_loop::run(&plan, 0.6, Some(&tracer)).expect("traced loop");
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    assert_eq!(
        traced.observed, untraced.observed,
        "tracing changed a result"
    );
    let layer_run = layers::run(&plan, 0.6, &tracer).expect("layer run");
    assert!(layer_run.failures.is_empty(), "{:?}", layer_run.failures);
    for (key, got) in &layer_run.observed {
        assert_eq!(
            Some(got),
            untraced.observed.get(key),
            "hooks changed a result"
        );
    }
    let replay = layers::replay(&layer_run.collected.samples, &tracer).expect("replay matches");
    let jsonio_us = metrics::jsonio_cost(&traced.captured, 1).expect("frames re-parse");
    let mut spans = perfbench::trace::lock(&tracer).take();
    assign_parents(&mut spans);
    let per_layer = metrics::per_layer(&LayerInputs {
        untraced: &untraced,
        traced: &traced,
        layers: &layer_run,
        spans: &spans,
        serve_window_us: (0.0, 1.0),
        replay: &replay,
        jsonio_us,
    });
    for (name, m) in &per_layer {
        assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
    }
    // Both cases run 3 steps, and `done` comes one round after the last.
    assert_eq!(per_layer["scheduler.rounds_per_session"].value, 4.0);
    let names: Vec<String> = per_layer.keys().cloned().collect();
    assert_eq!(
        names,
        declared("per_layer"),
        "traced metrics = BENCHMARK.json per_layer"
    );
}

/// Metric names `BENCHMARK.json` declares under `section`, sorted.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    let mut names: Vec<String> = perfbench::END_TO_END
        .iter()
        .map(|s| s.to_string())
        .collect();
    names.sort();
    assert_eq!(names, declared("end_to_end"));
}

#[test]
fn fleet_small_smoke() {
    smoke(Workload::FleetSmall);
}

#[test]
fn landscape_heavy_smoke() {
    smoke(Workload::LandscapeHeavy);
}

#[test]
fn mixed_tail_smoke() {
    smoke(Workload::MixedTail);
}
