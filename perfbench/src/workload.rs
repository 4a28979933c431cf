//! The benchmark's workloads: which sessions stay in flight, and the
//! seeded specs they cycle through.
//!
//! Every workload keeps a fixed number of sessions of each *class* in
//! flight (a class is one burn case) and submits a replacement of the same
//! class as each session's `done` frame arrives. The specs of a class
//! rotate through the four paper systems; their seeds derive from the
//! workload seed, so one `--seed` fixes every input and a held-out-seed
//! check is one flag.

use ess::fitness::EvalBackend;
use ess::pipeline::RunReport;
use ess_service::proto::DoneFrame;
use ess_service::{systems, RunSpec};
use std::fmt;
use std::str::FromStr;

/// A burn case kept at a fixed concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    /// Case name (`ess::cases::by_name`).
    pub case: &'static str,
    /// Sessions of this class kept in flight.
    pub in_flight: usize,
    /// Distinct specs the class cycles through (a multiple of the four
    /// systems, so every system is measured).
    pub distinct: usize,
}

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many small sessions: dispatch, operators, scheduling and framing
    /// carry the time.
    FleetSmall,
    /// Few large sessions: fire propagation and the stages carry the time.
    LandscapeHeavy,
    /// One large session next to four small ones: small sessions wait
    /// behind the large step inside each round.
    MixedTail,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetSmall,
        Workload::LandscapeHeavy,
        Workload::MixedTail,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSmall => "fleet_small",
            Workload::LandscapeHeavy => "landscape_heavy",
            Workload::MixedTail => "mixed_tail",
        }
    }

    /// The session classes kept in flight.
    pub fn classes(self) -> Vec<Class> {
        const SMALL: &str = "meadow_small";
        const LARGE: &str = "archipelago_large";
        match self {
            Workload::FleetSmall => vec![Class {
                case: SMALL,
                in_flight: 8,
                distinct: 128,
            }],
            Workload::LandscapeHeavy => vec![Class {
                case: LARGE,
                in_flight: 2,
                distinct: 8,
            }],
            Workload::MixedTail => vec![
                Class {
                    case: LARGE,
                    in_flight: 1,
                    distinct: 4,
                },
                Class {
                    case: SMALL,
                    in_flight: 4,
                    distinct: 32,
                },
            ],
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{s}' (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// SplitMix64 step: derives independent spec seeds from the workload seed.
/// The result keeps 52 bits: a spec crosses the wire as JSON, whose
/// integers are exact only up to 2^53, and the server refuses larger
/// seeds.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(a.wrapping_add(1)))
        .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(b.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 12
}

/// The deterministic part of a terminal frame: status, steps, the bits of
/// the mean quality and the evaluation count (wall time excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `"finished"` for a complete run.
    pub status: String,
    /// Steps completed.
    pub steps: usize,
    /// `mean_quality.to_bits()`.
    pub quality_bits: u64,
    /// Scenario evaluations spent.
    pub evaluations: u64,
}

impl Fingerprint {
    /// The fingerprint a `done` frame carries.
    pub fn of_done(done: &DoneFrame) -> Self {
        Self {
            status: done.status.clone(),
            steps: done.steps,
            quality_bits: done.mean_quality.to_bits(),
            evaluations: done.total_evaluations,
        }
    }

    /// The fingerprint of a finished run's report.
    pub fn of_report(report: &RunReport) -> Self {
        Self {
            status: "finished".to_string(),
            steps: report.steps.len(),
            quality_bits: report.mean_quality().to_bits(),
            evaluations: report.total_evaluations(),
        }
    }

    /// The mean prediction quality the fingerprint pins.
    pub fn quality(&self) -> f64 {
        f64::from_bits(self.quality_bits)
    }
}

/// One generated spec and the fingerprint its batch run produces.
#[derive(Debug, Clone)]
pub struct PlannedSpec {
    /// The spec submitted over the wire.
    pub spec: RunSpec,
    /// The spec's seed (`RunSpec` keeps it private).
    pub seed: u64,
    /// The spec's budget scale.
    pub scale: f64,
    /// `RunSpec::run()` on the serial backend, computed before timing.
    pub reference: Fingerprint,
}

/// The full input plan of one run: per class, its distinct specs in
/// submission order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Class definitions.
    pub classes: Vec<Class>,
    /// `specs[c]` = class `c`'s distinct specs, cycled in order.
    pub specs: Vec<Vec<PlannedSpec>>,
}

impl Plan {
    /// Generates the specs of `workload` from `seed` at the paper's
    /// budgets (scale 1.0) and runs every one through the serial batch
    /// path for its reference fingerprint (the pool's worker count of
    /// threads share that work; none of it is timed).
    ///
    /// # Errors
    /// A spec that does not resolve or does not finish.
    pub fn build(workload: Workload, seed: u64) -> Result<Plan, String> {
        Self::with_classes(workload.classes(), seed, 1.0)
    }

    /// [`Plan::build`] with explicit classes (smaller pools for smoke
    /// tests).
    ///
    /// # Errors
    /// A spec that does not resolve or does not finish.
    pub fn with_classes(classes: Vec<Class>, seed: u64, scale: f64) -> Result<Plan, String> {
        let systems = systems::names();
        let mut jobs: Vec<(usize, u64, RunSpec)> = Vec::new();
        for (c, class) in classes.iter().enumerate() {
            for i in 0..class.distinct {
                // Each cycle through the systems starts one later, so
                // sessions scheduled side by side pair different systems
                // from cycle to cycle while every system keeps its share.
                let n = systems.len();
                let system = systems[(i + i / n) % n];
                let spec_seed = mix(seed, c as u64, i as u64);
                let spec = RunSpec::new(system, class.case)
                    .seed(spec_seed)
                    .scale(scale)
                    .replicates(1);
                jobs.push((c, spec_seed, spec));
            }
        }
        let references = parworker::scoped_chunk_map(crate::POOL_WORKERS, jobs.len(), 1, |i| {
            reference(&jobs[i].2)
        });
        let mut specs: Vec<Vec<PlannedSpec>> = vec![Vec::new(); classes.len()];
        for ((class, seed, spec), reference) in jobs.into_iter().zip(references) {
            specs[class].push(PlannedSpec {
                spec,
                seed,
                scale,
                reference: reference?,
            });
        }
        Ok(Plan { classes, specs })
    }

    /// Total sessions kept in flight.
    pub fn in_flight(&self) -> usize {
        self.classes.iter().map(|c| c.in_flight).sum()
    }

    /// Distinct specs over all classes.
    pub fn distinct(&self) -> usize {
        self.specs.iter().map(Vec::len).sum()
    }
}

/// The reference fingerprint: the spec's batch run on the serial backend.
fn reference(spec: &RunSpec) -> Result<Fingerprint, String> {
    let report = spec
        .clone()
        .backend(EvalBackend::Serial)
        .run()
        .map_err(|e| {
            format!(
                "reference run of {} on {}: {e}",
                spec.system_name(),
                spec.case_name()
            )
        })?;
    Ok(Fingerprint::of_report(&report))
}

/// Round-robin cursor over each class's distinct specs.
#[derive(Debug, Clone)]
pub struct Rotation {
    next: Vec<usize>,
}

impl Rotation {
    /// A cursor at the start of every class.
    pub fn new(plan: &Plan) -> Self {
        Self {
            next: vec![0; plan.classes.len()],
        }
    }

    /// Index into `plan.specs[class]` of the class's next spec (wrapping).
    pub fn next_index(&mut self, plan: &Plan, class: usize) -> usize {
        let index = self.next[class] % plan.specs[class].len();
        self.next[class] += 1;
        index
    }
}

/// Staggered start: each class's sessions are spread evenly over one
/// session lifetime (`steps + 1` rounds) — after ramp round `r` a class
/// has `ceil((r + 1) · in_flight / lifetime)` sessions, capped at its
/// in-flight count. Replacements keep those phases, so in steady state
/// the sessions of a class sit at evenly spaced step indices instead of
/// running in lockstep, and every session sees the same mix of steps in
/// the rounds it shares.
#[derive(Debug, Clone)]
pub struct Ramp {
    round: usize,
    /// Per class: (in flight, lifetime in rounds, submitted so far).
    classes: Vec<(usize, usize, usize)>,
}

impl Ramp {
    /// A ramp before its first round.
    pub fn new(plan: &Plan) -> Self {
        let classes = plan
            .classes
            .iter()
            .zip(&plan.specs)
            .map(|(c, specs)| {
                let steps = specs.first().map_or(0, |p| p.reference.steps);
                (c.in_flight, steps + 1, 0)
            })
            .collect();
        Self { round: 0, classes }
    }

    /// The classes that gain a session this round (a class may appear
    /// more than once).
    pub fn next_round(&mut self) -> Vec<usize> {
        self.round += 1;
        let mut out = Vec::new();
        for (class, (in_flight, lifetime, submitted)) in self.classes.iter_mut().enumerate() {
            let target = (self.round * *in_flight)
                .div_ceil(*lifetime)
                .min(*in_flight);
            while *submitted < target {
                *submitted += 1;
                out.push(class);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_spreads_sessions_over_a_lifetime() {
        let ramp_of = |in_flight: usize| Ramp {
            round: 0,
            classes: vec![(in_flight, 4, 0)],
        };
        let per_round =
            |mut ramp: Ramp| -> Vec<usize> { (0..5).map(|_| ramp.next_round().len()).collect() };
        assert_eq!(per_round(ramp_of(8)), [2, 2, 2, 2, 0]);
        assert_eq!(per_round(ramp_of(4)), [1, 1, 1, 1, 0]);
        assert_eq!(
            per_round(ramp_of(2)),
            [1, 0, 1, 0, 0],
            "two sessions, half a lifetime apart"
        );
        assert_eq!(per_round(ramp_of(1)), [1, 0, 0, 0, 0]);
    }
}
