//! The island models evaluate all their islands as one batch per round:
//! the batch-shape contract, gated on exact row counts (no timing), so it
//! cannot flake.
//!
//! A counting backend scores every genome with the same pure fitness
//! function as the real backends and records the row count of each
//! `evaluate` call the optimizer makes.

use ess::cases;
use ess::essim_de::EssimDeConfig;
use ess::essim_ea::EssimEaConfig;
use ess::fitness::{ScenarioEvaluator, StepContext};
use ess::pipeline::StepOptimizer;
use ess::{EssimDe, EssimEa, TuningConfig};
use evoalg::BatchEvaluator;
use parworker::Backend;
use std::sync::{Arc, Mutex};

struct CountingBackend {
    ctx: Arc<StepContext>,
    batches: Arc<Mutex<Vec<usize>>>,
}

impl Backend<Vec<f64>, f64> for CountingBackend {
    fn map(&mut self, tasks: Vec<Vec<f64>>) -> Vec<f64> {
        self.batches
            .lock()
            .expect("batch log poisoned")
            .push(tasks.len());
        tasks
            .iter()
            .map(|g| self.ctx.fitness_of_genome(g))
            .collect()
    }

    fn name(&self) -> String {
        "counting".into()
    }

    fn workers(&self) -> usize {
        1
    }
}

fn meadow_step() -> Arc<StepContext> {
    let case = cases::by_name("meadow_small").expect("meadow_small is a corpus case");
    Arc::new(StepContext::new(
        Arc::clone(&case.sim),
        case.fire_lines[1].clone(),
        case.fire_lines[2].clone(),
        case.times[1],
        case.times[2],
    ))
}

/// Runs one optimization step and returns the row count of every batch
/// it evaluated, plus the outcome's generation and evaluation counts.
fn batch_rows(system: &mut dyn StepOptimizer, seed: u64) -> (Vec<usize>, u32, u64) {
    let ctx = meadow_step();
    let batches = Arc::new(Mutex::new(Vec::new()));
    let backend: Box<dyn Backend<Vec<f64>, f64>> = Box::new(CountingBackend {
        ctx: Arc::clone(&ctx),
        batches: Arc::clone(&batches),
    });
    let mut evaluator = ScenarioEvaluator::with_backend(ctx, backend);
    let out = system.optimize(&mut evaluator, seed);
    assert_eq!(out.evaluations, evaluator.evaluations());
    let rows = batches.lock().expect("batch log poisoned").clone();
    assert_eq!(rows.iter().sum::<usize>() as u64, out.evaluations);
    (rows, out.generations, out.evaluations)
}

#[test]
fn essim_ea_evaluates_all_three_islands_in_every_batch() {
    for seed in [1, 2, 3, 4] {
        let mut ea = EssimEa::new(EssimEaConfig {
            islands: 3,
            island_population: 12,
            offspring: 12,
            max_generations: 11,
            ..EssimEaConfig::default()
        });
        let (rows, generations, _) = batch_rows(&mut ea, seed);
        assert!(generations >= 1, "seed {seed}: no generation ran");
        // The initial populations, then one batch per generation.
        assert_eq!(rows, vec![36; 1 + generations as usize], "seed {seed}");
    }
}

#[test]
fn essim_de_batches_whole_islands() {
    let restarting = TuningConfig {
        restart_enabled: true,
        stagnation_window: 1,
        restart_fraction: 0.5,
        iqr_enabled: true,
        iqr_threshold: 0.5,
        last_restart_frac: 1.0,
    };
    for tuning in [
        TuningConfig::disabled(),
        TuningConfig::enabled(),
        restarting,
    ] {
        for seed in [1, 2, 3] {
            let mut de = EssimDe::new(EssimDeConfig {
                islands: 3,
                island_population: 12,
                max_generations: 11,
                fitness_threshold: 2.0,
                result_set_size: 24,
                tuning,
                ..EssimDeConfig::default()
            });
            let (rows, generations, evaluations) = batch_rows(&mut de, seed);
            assert_eq!(generations, 11);
            assert!(
                rows.iter().all(|&r| r > 0 && r % 12 == 0),
                "seed {seed}: a batch split an island: {rows:?}"
            );
            // At most: the initial batch, then per generation one step
            // batch, one IQR-restart batch and one stagnation batch.
            assert!(rows.len() <= 1 + 3 * generations as usize);
            assert_eq!(rows[0], 36, "seed {seed}: initial populations");
            if !tuning.restart_enabled && !tuning.iqr_enabled {
                assert_eq!(rows, vec![36; 12]);
                assert_eq!(evaluations, 36 * 12);
            }
            if tuning == restarting {
                // Restarts fired, and some IQR restart batch carried only
                // the islands that converged.
                assert!(rows.len() > 12, "seed {seed}: no restart batch");
                assert!(
                    rows.contains(&12) || rows.contains(&24),
                    "seed {seed}: {rows:?}"
                );
            }
        }
    }
}
