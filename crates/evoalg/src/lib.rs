//! `evoalg` — the evolutionary-computation substrate of the ESS-NS
//! reproduction.
//!
//! The paper's Optimization Stage is populated by metaheuristics: a classic
//! genetic algorithm (ESS), an island-model GA (ESSIM-EA), differential
//! evolution (ESSIM-DE) and the proposed novelty-search GA (ESS-NS,
//! Algorithm 1). This crate provides their shared building blocks:
//!
//! * [`individual`] — genomes (normalised `f64` gene vectors), scored
//!   individuals and populations;
//! * [`selection`] — roulette-wheel (the paper's GA selection strategy,
//!   §III-B) and tournament selection over arbitrary scores;
//! * [`operators`] — crossover (one-point, uniform, BLX-α) and mutation
//!   (uniform reset, Gaussian creep) over `[0, 1]` genes;
//! * [`ga`] — a step-wise fitness-driven GA engine (the baseline systems);
//! * [`de`] — a step-wise Differential Evolution engine (`rand/1/bin`,
//!   the ESSIM-DE metaheuristic); both engines split each generation into
//!   an ask/tell pair, and [`ask_evaluate_tell`] scores several engines'
//!   asks as one batch (the island models);
//! * [`novelty`] — the Novelty Search kit: the novelty score ρ(x) of
//!   Eq. (1), behaviour distances including the paper's fitness-difference
//!   measure of Eq. (2), and the novelty [`novelty::NoveltyArchive`]
//!   (which maintains its descriptors incrementally in the flat layout);
//! * [`behaviour`] — [`behaviour::BehaviourMatrix`], the flat
//!   structure-of-arrays descriptor store every novelty path reads;
//! * [`knn`] — the batched novelty-scoring subsystem:
//!   [`knn::NoveltyIndex`] (sorted-scan / chunked brute-force kNN
//!   strategies, bit-identical to the reference functions by
//!   construction) and [`knn::NoveltyEngine`] (the batch driver that can
//!   fan subject chunks out over `parworker` scoped workers);
//! * [`bestset`] — the bounded max-fitness memory `bestSet` that
//!   Algorithm 1 returns;
//! * [`diversity`] — population diversity statistics (E2 of the experiment
//!   index);
//! * [`benchmarks`] — deceptive and unimodal test functions used to
//!   reproduce the §II-C deceptiveness argument (E5).
//!
//! Everything is deterministic given a seed and performs no I/O; batch
//! fitness evaluation is abstracted behind [`BatchEvaluator`] so callers
//! can plug the parallel Master/Worker engine in.

pub mod behaviour;
pub mod benchmarks;
pub mod bestset;
pub mod de;
pub mod diversity;
pub mod ga;
pub mod genome;
pub mod individual;
pub mod knn;
pub mod novelty;
pub mod operators;
pub mod selection;

pub use behaviour::BehaviourMatrix;
pub use bestset::BestSet;
pub use de::{DeConfig, DeEngine};
pub use ga::{GaConfig, GaEngine, GenStats};
pub use genome::GenomeMatrix;
pub use individual::{Individual, Population};
pub use knn::{NoveltyEngine, NoveltyIndex, ParseNoveltyEngineError, PreparedIndex};
pub use novelty::{novelty_score, novelty_score_external, NoveltyArchive};

/// Batch fitness evaluation: maps a slice of genomes to their fitness
/// values, in order. Implemented by closures and by the parallel evaluators
/// in the `ess` crate (where the fire simulations happen).
pub trait BatchEvaluator {
    /// Evaluates every genome; `result[i]` is the fitness of `genomes[i]`.
    /// Fitness must be finite and is maximised by every engine here.
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<f64>;

    /// Number of evaluations performed so far, when the implementation
    /// tracks it (used for evaluation-budget experiments).
    fn evaluations(&self) -> u64 {
        0
    }

    /// Evaluates a flat [`GenomeMatrix`] batch — the preferred entry point
    /// for callers that already hold their genomes in the flat layout (one
    /// allocation per batch). The default projects to nested rows and
    /// calls [`BatchEvaluator::evaluate`]; implementations with a native
    /// flat path (the `ess` crate's shared scenario pool) override it to
    /// skip the projection.
    fn evaluate_matrix(&mut self, genomes: &GenomeMatrix) -> Vec<f64> {
        self.evaluate(&genomes.to_rows())
    }
}

impl<F> BatchEvaluator for F
where
    F: FnMut(&[Vec<f64>]) -> Vec<f64>,
{
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<f64> {
        self(genomes)
    }
}

/// Steps several ask/tell engines with **one** evaluation batch: `ask`
/// each engine in order, concatenate the asked genomes, make a single
/// [`BatchEvaluator::evaluate`] call, and `tell` each engine its slice of
/// the scores, in the same order. Returns the `tell` results in engine
/// order; no engines means no `evaluate` call at all.
///
/// This is how an island model evaluates all its islands at once, the
/// way each island's Master and Workers run concurrently in the paper.
/// Every engine owns its RNG and the evaluation is a pure function of the
/// genome, so the result equals asking, evaluating and telling each
/// engine on its own; only the batch shape differs.
///
/// # Panics
/// Panics when the evaluator returns a different number of scores than
/// genomes it was given.
pub fn ask_evaluate_tell<'a, T: 'a, E: BatchEvaluator + ?Sized>(
    evaluator: &mut E,
    engines: impl IntoIterator<Item = &'a mut T>,
    mut ask: impl FnMut(&mut T) -> Vec<Vec<f64>>,
    mut tell: impl FnMut(&mut T, &[f64]) -> GenStats,
) -> Vec<GenStats> {
    let mut asked: Vec<(&mut T, usize)> = Vec::new();
    let mut rows = Vec::new();
    for engine in engines {
        let genomes = ask(engine);
        asked.push((engine, genomes.len()));
        rows.extend(genomes);
    }
    if asked.is_empty() {
        return Vec::new();
    }
    let scores = evaluator.evaluate(&rows);
    assert_eq!(
        scores.len(),
        rows.len(),
        "evaluator must return one score per genome"
    );
    let mut offset = 0;
    asked
        .into_iter()
        .map(|(engine, n)| {
            let stats = tell(engine, &scores[offset..offset + n]);
            offset += n;
            stats
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::sphere;

    fn engines(seed: u64) -> Vec<DeEngine> {
        (0..3)
            .map(|i| {
                DeEngine::new(
                    4,
                    DeConfig {
                        population_size: 6,
                        seed: seed + i,
                        ..DeConfig::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn one_batch_for_all_engines_matches_stepping_each() {
        let mut batches = Vec::new();
        let mut counting = |gs: &[Vec<f64>]| -> Vec<f64> {
            batches.push(gs.len());
            gs.iter().map(|g| sphere(g)).collect()
        };
        let mut plain = |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| sphere(g)).collect() };
        let mut batched = engines(3);
        let mut stepped = engines(3);
        ask_evaluate_tell(
            &mut counting,
            &mut batched,
            DeEngine::ask_initial,
            DeEngine::tell,
        );
        for e in &mut stepped {
            e.evaluate_initial(&mut plain);
        }
        for _ in 0..5 {
            let stats =
                ask_evaluate_tell(&mut counting, &mut batched, DeEngine::ask, DeEngine::tell);
            let expected: Vec<GenStats> = stepped.iter_mut().map(|e| e.step(&mut plain)).collect();
            assert_eq!(stats, expected);
        }
        for (b, s) in batched.iter().zip(&stepped) {
            assert_eq!(b.population().genomes(), s.population().genomes());
            assert_eq!(b.evaluations(), s.evaluations());
        }
        // No engines, no evaluate call.
        let none: Vec<&mut DeEngine> = Vec::new();
        assert!(ask_evaluate_tell(&mut counting, none, DeEngine::ask, DeEngine::tell).is_empty());
        assert_eq!(batches, vec![18; 6], "one batch of all engines per round");
    }
}
