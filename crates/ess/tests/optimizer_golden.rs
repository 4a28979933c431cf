//! Golden pins for the four prediction systems: fixed values, recorded
//! once, that every later change to the optimizers must reproduce bit for
//! bit. The equivalence suites compare two execution paths of the same
//! code; these compare the code against its own past output, so a change
//! that moves every path together (an engine refactor, a batching change)
//! still cannot slip through.
//!
//! Each pin is one full prediction run on `meadow_small` with the serial
//! backend: the `RunReport`'s mean quality (as bits), its total evaluation
//! count, and the bits of every step's best optimizer fitness.

use ess::cases;
use ess::essim_de::EssimDeConfig;
use ess::essim_ea::EssimEaConfig;
use ess::fitness::EvalBackend;
use ess::pipeline::{PredictionPipeline, RunReport, StepOptimizer};
use ess::{BurnCase, EssClassic, EssimDe, EssimEa, TuningConfig};
use ess_ns::EssNs;

/// `(mean_quality bits, total evaluations, per-step best-fitness bits)`.
type Pin = (u64, u64, &'static [u64]);

fn meadow() -> BurnCase {
    cases::by_name("meadow_small").expect("meadow_small is a corpus case")
}

fn run(case: &BurnCase, system: &mut dyn StepOptimizer, seed: u64) -> RunReport {
    PredictionPipeline::new(EvalBackend::Serial, seed).run(case, system)
}

fn fingerprint(report: &RunReport) -> (u64, u64, Vec<u64>) {
    (
        report.mean_quality().to_bits(),
        report.total_evaluations(),
        report
            .steps
            .iter()
            .map(|s| s.os_best_fitness.to_bits())
            .collect(),
    )
}

fn assert_pinned(label: &str, report: &RunReport, pin: Pin) {
    let got = fingerprint(report);
    let want = (pin.0, pin.1, pin.2.to_vec());
    assert_eq!(got, want, "{label}: run diverged from its golden pin");
}

/// The island configuration the serving layer builds at scale 1: three
/// islands of twelve.
fn served_ea() -> EssimEa {
    EssimEa::new(EssimEaConfig {
        islands: 3,
        island_population: 12,
        offspring: 12,
        migration_interval: 3,
        migrants: 2,
        max_generations: 11,
        ..EssimEaConfig::default()
    })
}

fn served_de() -> EssimDe {
    EssimDe::new(EssimDeConfig {
        islands: 3,
        island_population: 12,
        migration_interval: 3,
        migrants: 2,
        max_generations: 11,
        result_set_size: 24,
        ..EssimDeConfig::default()
    })
}

/// ESSIM-DE with an unreachable threshold (the full generation budget
/// always runs) and the given tuning.
fn full_budget_de(tuning: TuningConfig) -> EssimDe {
    EssimDe::new(EssimDeConfig {
        islands: 3,
        island_population: 8,
        max_generations: 8,
        fitness_threshold: 2.0,
        result_set_size: 8,
        tuning,
        ..EssimDeConfig::default()
    })
}

/// Tuning that trips both restart operators: the IQR floor is far above
/// any converged spread, and one flat generation counts as stagnation.
fn aggressive_tuning() -> TuningConfig {
    TuningConfig {
        restart_enabled: true,
        stagnation_window: 1,
        restart_fraction: 0.5,
        iqr_enabled: true,
        iqr_threshold: 0.5,
        last_restart_frac: 1.0,
    }
}

const SEEDS: [u64; 2] = [1, 2];

#[test]
fn ess_classic_is_pinned() {
    let case = meadow();
    let pins: [Pin; 2] = [PIN_ESS_1, PIN_ESS_2];
    for (seed, pin) in SEEDS.into_iter().zip(pins) {
        let report = run(&case, &mut EssClassic::default(), seed);
        assert_pinned(&format!("ESS seed {seed}"), &report, pin);
    }
}

#[test]
fn essim_ea_is_pinned() {
    let case = meadow();
    let pins: [Pin; 2] = [PIN_EA_1, PIN_EA_2];
    for (seed, pin) in SEEDS.into_iter().zip(pins) {
        let report = run(&case, &mut EssimEa::default(), seed);
        assert_pinned(&format!("ESSIM-EA seed {seed}"), &report, pin);
    }
    let pins: [Pin; 2] = [PIN_EA_SERVED_1, PIN_EA_SERVED_2];
    for (seed, pin) in SEEDS.into_iter().zip(pins) {
        let report = run(&case, &mut served_ea(), seed);
        assert_pinned(&format!("ESSIM-EA 3x12 seed {seed}"), &report, pin);
    }
}

#[test]
fn essim_de_is_pinned() {
    let case = meadow();
    let pins: [Pin; 2] = [PIN_DE_1, PIN_DE_2];
    for (seed, pin) in SEEDS.into_iter().zip(pins) {
        let report = run(&case, &mut EssimDe::default(), seed);
        assert_pinned(&format!("ESSIM-DE seed {seed}"), &report, pin);
    }
    let pins: [Pin; 2] = [PIN_DE_SERVED_1, PIN_DE_SERVED_2];
    for (seed, pin) in SEEDS.into_iter().zip(pins) {
        let report = run(&case, &mut served_de(), seed);
        assert_pinned(&format!("ESSIM-DE 3x12 seed {seed}"), &report, pin);
    }
}

#[test]
fn ess_ns_is_pinned() {
    let case = meadow();
    let pins: [Pin; 2] = [PIN_NS_1, PIN_NS_2];
    for (seed, pin) in SEEDS.into_iter().zip(pins) {
        let report = run(&case, &mut EssNs::baseline(), seed);
        assert_pinned(&format!("ESS-NS seed {seed}"), &report, pin);
    }
}

/// Both ESSIM-DE restart operators fire in the pinned restart case: with
/// either operator alone, and with both, a full-budget run spends more
/// evaluations than the untuned run's fixed `islands × population ×
/// (1 + generations)` per step.
#[test]
fn essim_de_restarts_fire_and_are_pinned() {
    let case = meadow();
    let steps = case.intervals() as u64 - 1;
    let untuned = run(&case, &mut full_budget_de(TuningConfig::disabled()), 1);
    assert_eq!(untuned.total_evaluations(), steps * 3 * 8 * (1 + 8));
    let iqr_only = TuningConfig {
        restart_enabled: false,
        ..aggressive_tuning()
    };
    let stagnation_only = TuningConfig {
        iqr_enabled: false,
        ..aggressive_tuning()
    };
    for (label, tuning) in [("IQR", iqr_only), ("stagnation", stagnation_only)] {
        let report = run(&case, &mut full_budget_de(tuning), 1);
        assert!(
            report.total_evaluations() > untuned.total_evaluations(),
            "{label} restart never fired ({} evaluations)",
            report.total_evaluations()
        );
    }
    let pins: [Pin; 2] = [PIN_DE_RESTART_1, PIN_DE_RESTART_2];
    for (seed, pin) in SEEDS.into_iter().zip(pins) {
        let report = run(&case, &mut full_budget_de(aggressive_tuning()), seed);
        assert!(report.total_evaluations() > untuned.total_evaluations());
        assert_pinned(&format!("ESSIM-DE restarts seed {seed}"), &report, pin);
    }
}

// Recorded from the per-island engine loop before the ask/tell batching;
// regenerate only for a deliberate change of results.
const PIN_ESS_1: Pin = (
    0x3fec3c3c3c3c3c3c,
    1248,
    &[0x3fe5555555555555, 0x3ff0000000000000, 0x3fe6276276276276],
);
const PIN_ESS_2: Pin = (
    0x3fe1bcd081bcd082,
    1248,
    &[0x3fd999999999999a, 0x3fe5555555555555, 0x3fed89d89d89d89e],
);
const PIN_EA_1: Pin = (
    0x3fec3c3c3c3c3c3c,
    1680,
    &[0x3fd999999999999a, 0x3ff0000000000000, 0x3fea000000000000],
);
const PIN_EA_2: Pin = (
    0x3feb0f0f0f0f0f0f,
    1584,
    &[0x3fe3333333333333, 0x3ff0000000000000, 0x3fed89d89d89d89e],
);
const PIN_EA_SERVED_1: Pin = (
    0x3fe93c3c3c3c3c3c,
    1296,
    &[0x3fd999999999999a, 0x3fea2e8ba2e8ba2f, 0x3fe6276276276276],
);
const PIN_EA_SERVED_2: Pin = (
    0x3fece30a6ce30a6d,
    1116,
    &[0x3fe3333333333333, 0x3ff0000000000000, 0x3fed89d89d89d89e],
);
const PIN_DE_1: Pin = (
    0x3feba7f6bba7f6bc,
    1836,
    &[0x3fe4000000000000, 0x3fe8e38e38e38e39, 0x3ff0000000000000],
);
const PIN_DE_2: Pin = (
    0x3fe5d3ce6ab62a0a,
    1248,
    &[0x3fe999999999999a, 0x3ff0000000000000, 0x3ff0000000000000],
);
const PIN_DE_SERVED_1: Pin = (
    0x3fe8000000000000,
    1368,
    &[0x3fe4000000000000, 0x3fec71c71c71c71c, 0x3fed89d89d89d89e],
);
const PIN_DE_SERVED_2: Pin = (
    0x3febb8bb8bb8bb8c,
    1368,
    &[0x3fe999999999999a, 0x3fec71c71c71c71c, 0x3fea000000000000],
);
const PIN_NS_1: Pin = (
    0x3fe3c3c3c3c3c3c4,
    1152,
    &[0x3fe999999999999a, 0x3ff0000000000000, 0x3fe6276276276276],
);
const PIN_NS_2: Pin = (
    0x3feb4b4b4b4b4b4c,
    1248,
    &[0x3fd999999999999a, 0x3fea2e8ba2e8ba2f, 0x3fe6969696969697],
);
const PIN_DE_RESTART_1: Pin = (
    0x3fec5d1745d1745d,
    1408,
    &[0x3fe3333333333333, 0x3fec71c71c71c71c, 0x3ff0000000000000],
);
const PIN_DE_RESTART_2: Pin = (
    0x3fe4ce4ce4ce4ce4,
    1488,
    &[0x3fe3333333333333, 0x3fec71c71c71c71c, 0x3fe8000000000000],
);
