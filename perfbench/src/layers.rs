//! The traced layer run: the same closed loop, one layer down.
//!
//! The serve loop builds its scheduler and sessions internally, so its
//! inner layers cannot be timed through it. This run drives the layer
//! under it — the real `ess_service::Scheduler` on a `worker-pool`,
//! round-robin, unfused — with the same plan and the same replacement
//! discipline, and times each layer from outside through public hooks:
//!
//! * `scheduler.round` — around `Scheduler::round`;
//! * `pipeline.step` — a session observer (`PredictionSession::observe`)
//!   sees each step end; the step's own `wall_ms` gives its start;
//! * `optimizer.optimize` — the session's optimizer is the registry's,
//!   wrapped in a shim that times `StepOptimizer::optimize`;
//! * `pool.evaluate` — the shim hands the optimizer an evaluator whose
//!   backend times each `SharedScenarioPool::evaluate_matrix` batch (the
//!   same call the pool's own adapter makes) and samples batches for a
//!   serial replay through `FireSim::simulate_arena_kernel` and
//!   `landscape::jaccard_at_time`.
//!
//! Every finished session is checked against its reference fingerprint,
//! and every replayed score against the pool's, so the hooks are shown not
//! to change a result.

use crate::trace::{lock, now, SharedTracer};
use crate::window::Window;
use crate::workload::{Fingerprint, Plan, PlannedSpec, Ramp, Rotation};
use ess::fitness::{DynBackend, EvalBackend, ScenarioEvaluator, SharedScenarioPool, StepContext};
use ess::pipeline::{EvalStrategy, OptimizeOutcome, StepOptimizer};
use ess_service::{
    systems, Budget, PolicyKind, PredictionSession, Scheduler, SessionEvent, SessionId,
};
use evoalg::{GenomeMatrix, NoveltyEngine};
use firelib::ScenarioSpace;
use parworker::Backend;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Trace lane of the scheduler-level spans.
pub const LANE_LAYERS: u32 = 2;
/// Trace lane of the serial replay spans.
pub const LANE_REPLAY: u32 = 3;

/// Batches kept per grid shape for the serial replay (about 400 rows).
const REPLAY_BATCHES_PER_SHAPE: usize = 24;

/// One evaluated batch, as the backend shim saw it.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// End, µs since the tracer origin.
    pub end_us: f64,
    /// Genomes in the batch.
    pub rows: usize,
    /// Whether the pool ran it inline (rows ≤ `inline_threshold()`).
    pub inline: bool,
    /// Grid shape of the batch's case.
    pub shape: (usize, usize),
}

/// One completed step, as the observer saw it.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Generations the optimizer ran.
    pub generations: u32,
    /// Step end, µs since the tracer origin.
    pub end_us: f64,
}

/// A batch kept for the serial replay.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The step context it was scored against.
    pub ctx: Arc<StepContext>,
    /// Genome rows.
    pub genomes: Vec<Vec<f64>>,
    /// The scores the pool returned.
    pub scores: Vec<f64>,
}

/// What the hooks collect while the loop runs.
#[derive(Debug, Default)]
pub struct Collected {
    /// Every evaluated batch.
    pub batches: Vec<BatchRecord>,
    /// Every completed step (parallel to the `pipeline.step` spans).
    pub steps: Vec<StepRecord>,
    /// Batches sampled for the replay: per grid shape, a uniform sample
    /// of every batch the run evaluated.
    pub samples: Vec<Sample>,
    /// Per shape: (batches seen, reservoir).
    reservoirs: BTreeMap<(usize, usize), (usize, Vec<Sample>)>,
    rng: u64,
}

impl Collected {
    /// Offers a batch to its shape's reservoir (Algorithm R with a fixed
    /// xorshift stream, so the same run samples the same batches).
    fn offer(&mut self, shape: (usize, usize), sample: impl FnOnce() -> Sample) {
        let (seen, kept) = self.reservoirs.entry(shape).or_default();
        *seen += 1;
        if kept.len() < REPLAY_BATCHES_PER_SHAPE {
            kept.push(sample());
            return;
        }
        let mut x = if self.rng == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            self.rng
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        if let Some(slot) = kept.get_mut((x % *seen as u64) as usize) {
            *slot = sample();
        }
    }

    /// Moves every reservoir into [`Collected::samples`], shape by shape.
    fn seal(&mut self) {
        for (_, (_, kept)) in std::mem::take(&mut self.reservoirs) {
            self.samples.extend(kept);
        }
    }
}

type SharedCollected = Arc<Mutex<Collected>>;

fn collected(c: &SharedCollected) -> std::sync::MutexGuard<'_, Collected> {
    c.lock()
        .expect("collector lock poisoned by a panicking hook")
}

/// Backend shim: times one pool batch and samples it for the replay.
struct TimedPool {
    ctx: Arc<StepContext>,
    pool: Arc<SharedScenarioPool>,
    tracer: SharedTracer,
    collected: SharedCollected,
    tag: u64,
}

impl Backend<Vec<f64>, f64> for TimedPool {
    fn map(&mut self, tasks: Vec<Vec<f64>>) -> Vec<f64> {
        let start = now();
        let scores = self
            .pool
            .evaluate_matrix(&self.ctx, &GenomeMatrix::from_rows(&tasks));
        let end = now();
        let end_us = {
            let mut t = lock(&self.tracer);
            t.record("pool.evaluate", start, end, Some(self.tag), LANE_LAYERS);
            t.us(end)
        };
        let terrain = self.ctx.sim().terrain();
        let shape = (terrain.rows(), terrain.cols());
        let mut c = collected(&self.collected);
        c.batches.push(BatchRecord {
            end_us,
            rows: tasks.len(),
            inline: tasks.len() <= self.pool.inline_threshold(),
            shape,
        });
        c.offer(shape, || Sample {
            ctx: Arc::clone(&self.ctx),
            genomes: tasks.clone(),
            scores: scores.clone(),
        });
        scores
    }

    fn name(&self) -> String {
        format!("timed:{}", self.pool.name())
    }

    fn workers(&self) -> usize {
        self.pool.workers()
    }
}

/// Optimizer shim: times `optimize` and routes its batches through
/// [`TimedPool`].
struct TimedOptimizer {
    inner: Box<dyn StepOptimizer>,
    pool: Arc<SharedScenarioPool>,
    tracer: SharedTracer,
    collected: SharedCollected,
    tag: u64,
}

impl StepOptimizer for TimedOptimizer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn optimize(&mut self, evaluator: &mut ScenarioEvaluator, seed: u64) -> OptimizeOutcome {
        let ctx = Arc::clone(evaluator.context());
        let backend: DynBackend = Box::new(TimedPool {
            ctx: Arc::clone(&ctx),
            pool: Arc::clone(&self.pool),
            tracer: Arc::clone(&self.tracer),
            collected: Arc::clone(&self.collected),
            tag: self.tag,
        });
        let mut timed = ScenarioEvaluator::with_backend(ctx, backend);
        let start = now();
        let outcome = self.inner.optimize(&mut timed, seed);
        let end = now();
        lock(&self.tracer).record(
            "optimizer.optimize",
            start,
            end,
            Some(self.tag),
            LANE_LAYERS,
        );
        outcome
    }
}

/// What the layer run measured.
#[derive(Debug, Default)]
pub struct LayerRun {
    /// Window `(start, end)` in µs since the tracer origin.
    pub window_us: (f64, f64),
    /// Hook records.
    pub collected: Collected,
    /// Session tag → system name.
    pub systems: BTreeMap<u64, &'static str>,
    /// Sessions finished over the whole run.
    pub sessions_total: usize,
    /// Failures (mismatches, non-finished terminals).
    pub failures: Vec<String>,
    /// Observed fingerprint per `(class, spec)`.
    pub observed: BTreeMap<(usize, usize), Fingerprint>,
}

/// Runs the closed loop on a `Scheduler` with every layer hooked.
///
/// # Errors
/// A spec that no longer resolves.
pub fn run(plan: &Plan, seconds: f64, tracer: &SharedTracer) -> Result<LayerRun, String> {
    let mut scheduler = Scheduler::with_policy(
        EvalBackend::WorkerPool(crate::POOL_WORKERS),
        PolicyKind::RoundRobin,
    );
    let pool = Arc::clone(scheduler.pool());
    let shared: SharedCollected = Arc::new(Mutex::new(Collected::default()));
    let mut out = LayerRun::default();
    let mut live: BTreeMap<SessionId, (usize, usize, u64)> = BTreeMap::new();
    let mut rotation = Rotation::new(plan);
    let mut window = Window::new(plan.in_flight(), seconds);
    let mut next_tag = 0u64;

    let mut submit = |class: usize,
                      scheduler: &mut Scheduler,
                      live: &mut BTreeMap<SessionId, (usize, usize, u64)>,
                      systems_by_tag: &mut BTreeMap<u64, &'static str>|
     -> Result<(), String> {
        let index = rotation.next_index(plan, class);
        next_tag += 1;
        let tag = next_tag;
        let start = now();
        let session = hooked_session(&plan.specs[class][index], tag, &pool, tracer, &shared)?;
        let end = now();
        lock(tracer).record("service.session_build", start, end, Some(tag), LANE_LAYERS);
        systems_by_tag.insert(tag, session.system());
        let id = scheduler.submit_session(session);
        live.insert(id, (class, index, tag));
        Ok(())
    };

    let mut ramp = Ramp::new(plan);
    for class in ramp.next_round() {
        submit(class, &mut scheduler, &mut live, &mut out.systems)?;
    }
    while !window.is_closed() {
        let start = now();
        let events = scheduler.round();
        let end = now();
        lock(tracer).record("scheduler.round", start, end, None, LANE_LAYERS);
        let mut replace = Vec::new();
        for (id, event) in events {
            let terminal = match event {
                SessionEvent::StepCompleted(_) => continue,
                SessionEvent::Finished(report) => Ok(report),
                SessionEvent::BudgetExhausted { reason, .. } => Err(reason.to_string()),
            };
            let (class, index, tag) = live
                .remove(&id)
                .ok_or_else(|| format!("terminal event for unknown session {id}"))?;
            out.sessions_total += 1;
            replace.push(class);
            let planned = &plan.specs[class][index];
            match terminal {
                Ok(report) => {
                    let got = Fingerprint::of_report(&report);
                    out.observed
                        .entry((class, index))
                        .or_insert_with(|| got.clone());
                    if got != planned.reference {
                        out.failures.push(format!(
                            "layer session {tag}: {got:?} != reference {:?}",
                            planned.reference
                        ));
                    }
                }
                Err(reason) => out
                    .failures
                    .push(format!("layer session {tag} stopped: {reason}")),
            }
            window.on_done(end);
        }
        window.end_round(out.observed.len() == plan.distinct());
        if window.is_closed() {
            break;
        }
        for class in replace.into_iter().chain(ramp.next_round()) {
            submit(class, &mut scheduler, &mut live, &mut out.systems)?;
        }
    }
    let (start, end) = window.bounds().ok_or("layer window never closed")?;
    {
        let t = lock(tracer);
        out.window_us = (t.us(start), t.us(end));
    }
    drop(scheduler);
    out.collected = std::mem::take(&mut *collected(&shared));
    out.collected.seal();
    Ok(out)
}

/// The session the server would build for `spec` (same case, system,
/// tuning, seed, budget and kernel), with its optimizer wrapped in the
/// timing shim and an observer recording every step.
fn hooked_session(
    planned: &PlannedSpec,
    tag: u64,
    pool: &Arc<SharedScenarioPool>,
    tracer: &SharedTracer,
    shared: &SharedCollected,
) -> Result<PredictionSession, String> {
    let spec = &planned.spec;
    let system = systems::resolve(spec.system_name()).map_err(|e| e.to_string())?;
    let case = ess::cases::by_name(spec.case_name())
        .ok_or_else(|| format!("unknown case {}", spec.case_name()))?;
    let optimizer = Box::new(TimedOptimizer {
        inner: system.make_tuned(planned.scale, NoveltyEngine::default()),
        pool: Arc::clone(pool),
        tracer: Arc::clone(tracer),
        collected: Arc::clone(shared),
        tag,
    });
    let mut session = PredictionSession::new(
        case,
        optimizer,
        EvalStrategy::Shared(Arc::clone(pool)),
        planned.seed,
        Budget::unlimited(),
    );
    let (tracer, shared) = (Arc::clone(tracer), Arc::clone(shared));
    session.observe(move |event| {
        if let SessionEvent::StepCompleted(step) = event {
            let end = now();
            let mut t = lock(&tracer);
            let end_us = t.us(end);
            // The step began before its optimizer did: take the earlier of
            // the step's own wall time and the optimize span it contains.
            let optimize_start = t
                .spans()
                .iter()
                .rev()
                .find(|s| s.name == "optimizer.optimize" && s.session == Some(tag))
                .map_or(f64::INFINITY, |s| s.start_us);
            let start_us = (end_us - step.wall_ms * 1e3).min(optimize_start);
            t.record_us("pipeline.step", start_us, end_us, Some(tag), LANE_LAYERS);
            collected(&shared).steps.push(StepRecord {
                generations: step.generations,
                end_us,
            });
        }
    });
    Ok(session)
}

/// Serial replay cost of one grid shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapeCost {
    /// Rows replayed.
    pub evals: usize,
    /// Σ kernel µs.
    pub kernel_us: f64,
    /// Σ Jaccard µs.
    pub jaccard_us: f64,
    /// Σ cells burned by the end of the interval.
    pub burned: usize,
}

/// Replays the sampled batches serially on the calling thread: one warm
/// arena per shape, each row decoded, simulated with the step's kernel and
/// scored. Returns per-shape costs, or the first score that differs from
/// the pool's.
///
/// # Errors
/// A replayed score whose bits differ from the pool's.
pub fn replay(
    samples: &[Sample],
    tracer: &SharedTracer,
) -> Result<BTreeMap<(usize, usize), ShapeCost>, String> {
    let mut arenas: BTreeMap<(usize, usize), firelib::SimArena> = BTreeMap::new();
    let mut costs: BTreeMap<(usize, usize), ShapeCost> = BTreeMap::new();
    let mut spans: Vec<(&'static str, Instant, Instant)> = Vec::new();
    for sample in samples {
        let ctx = &sample.ctx;
        let sim = ctx.sim();
        let shape = (sim.terrain().rows(), sim.terrain().cols());
        let arena = arenas.entry(shape).or_insert_with(|| {
            // Warm the arena once so lazy allocation is not timed.
            let mut arena = sim.arena();
            if let Some(g) = sample.genomes.first() {
                ctx.fitness_with(&ScenarioSpace.decode(g), &mut arena);
            }
            arena
        });
        let cost = costs.entry(shape).or_default();
        for (genes, &score) in sample.genomes.iter().zip(&sample.scores) {
            let scenario = ScenarioSpace.decode(genes);
            let t0 = now();
            let map = sim.simulate_arena_kernel(
                &scenario,
                ctx.from_line(),
                ctx.t0(),
                ctx.duration(),
                arena,
                ctx.kernel(),
            );
            let t1 = now();
            let fitness =
                landscape::jaccard_at_time(ctx.target_line(), map, ctx.t1(), Some(ctx.from_line()));
            let t2 = now();
            let burned = map.burned_count_at(ctx.t1());
            if fitness.to_bits() != score.to_bits() {
                return Err(format!(
                    "serial replay scored {fitness}, the pool scored {score}"
                ));
            }
            cost.evals += 1;
            cost.kernel_us += t1.saturating_duration_since(t0).as_secs_f64() * 1e6;
            cost.jaccard_us += t2.saturating_duration_since(t1).as_secs_f64() * 1e6;
            cost.burned += burned;
            spans.push(("firelib.simulate", t0, t1));
            spans.push(("landscape.jaccard", t1, t2));
        }
    }
    let mut t = lock(tracer);
    for (name, s, e) in spans {
        t.record(name, s, e, None, LANE_REPLAY);
    }
    Ok(costs)
}
