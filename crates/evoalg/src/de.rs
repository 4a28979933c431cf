//! A step-wise Differential Evolution engine (`rand/1/bin`).
//!
//! This is the per-island metaheuristic of ESSIM-DE (paper §II-B). The
//! engine exposes one generation per [`DeEngine::step`] so the framework
//! layer can interleave migration and the published tuning operators
//! (population restart \[21\] and IQR-based dynamic tuning \[22\]) between
//! generations.
//!
//! Like the GA engine, a generation is an ask/tell pair:
//! [`DeEngine::ask`] builds the trials, [`DeEngine::tell`] runs the
//! greedy replacement, and [`DeEngine::step`] is `ask → evaluate → tell`.

use crate::ga::{iqr, Asked, GenStats};
use crate::individual::{Individual, Population};
use crate::operators::{de_binomial_crossover, de_rand_1_donor};
use crate::BatchEvaluator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Differential Evolution parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeConfig {
    /// Population size (≥ 4 for `rand/1`).
    pub population_size: usize,
    /// Differential weight `F` ∈ (0, 2].
    pub differential_weight: f64,
    /// Crossover probability `CR`.
    pub crossover_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeConfig {
    fn default() -> Self {
        Self {
            population_size: 50,
            differential_weight: 0.8,
            crossover_rate: 0.9,
            seed: 0,
        }
    }
}

/// The step-wise DE engine.
#[derive(Debug)]
pub struct DeEngine {
    config: DeConfig,
    dims: usize,
    population: Population,
    rng: StdRng,
    generation: u32,
    evaluations: u64,
    asked: Asked,
}

impl DeEngine {
    /// Creates an engine with a random initial population; call
    /// [`DeEngine::evaluate_initial`] before the first [`DeEngine::step`].
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn new(dims: usize, config: DeConfig) -> Self {
        assert!(
            config.population_size >= 4,
            "DE rand/1 needs at least 4 individuals"
        );
        assert!(
            config.differential_weight > 0.0 && config.differential_weight <= 2.0,
            "differential weight must be in (0, 2]"
        );
        assert!(
            (0.0..=1.0).contains(&config.crossover_rate),
            "CR is a probability"
        );
        assert!(dims >= 1, "genome needs at least one gene");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let population = Population::random(config.population_size, dims, &mut rng);
        Self {
            config,
            dims,
            population,
            rng,
            generation: 0,
            evaluations: 0,
            asked: Asked::Nothing,
        }
    }

    /// Evaluates the current population (initially, and after restarts or
    /// migrations that introduced unevaluated members).
    pub fn evaluate_initial<E: BatchEvaluator>(&mut self, evaluator: &mut E) -> GenStats {
        let genomes = self.ask_initial();
        let fitness = evaluator.evaluate(&genomes);
        self.tell(&fitness)
    }

    /// One DE generation: per target, build a `rand/1` donor, binomial
    /// crossover into a trial, evaluate all trials, and greedily replace
    /// each target whose trial is at least as fit.
    pub fn step<E: BatchEvaluator>(&mut self, evaluator: &mut E) -> GenStats {
        let trials = self.ask();
        let fitness = evaluator.evaluate(&trials);
        self.tell(&fitness)
    }

    /// The ask half of [`DeEngine::evaluate_initial`]: the current
    /// population's genomes, in member order.
    pub fn ask_initial(&mut self) -> Vec<Vec<f64>> {
        Asked::put(&mut self.asked, Asked::Population);
        self.population.genomes()
    }

    /// The ask half of [`DeEngine::step`]: one `rand/1/bin` trial per
    /// target, in member order.
    ///
    /// # Panics
    /// Panics before the population has been evaluated.
    pub fn ask(&mut self) -> Vec<Vec<f64>> {
        assert!(
            self.population
                .members()
                .iter()
                .all(Individual::is_evaluated),
            "call evaluate_initial before step"
        );
        let genomes = self.population.genomes();
        let mut trials = Vec::with_capacity(genomes.len());
        for target in 0..genomes.len() {
            let donor = de_rand_1_donor(
                &genomes,
                target,
                self.config.differential_weight,
                &mut self.rng,
            );
            trials.push(de_binomial_crossover(
                &genomes[target],
                &donor,
                self.config.crossover_rate,
                &mut self.rng,
            ));
        }
        Asked::put(&mut self.asked, Asked::Bred(trials.clone()));
        trials
    }

    /// The tell half: scores for the pending ask, in its row order. After
    /// [`DeEngine::ask_initial`] they become the population's fitness;
    /// after [`DeEngine::ask`] each target is replaced by its trial when
    /// the trial is at least as fit, and the generation counter advances.
    ///
    /// # Panics
    /// Panics without a pending ask, or when `fitness` is not one finite
    /// value per asked genome.
    pub fn tell(&mut self, fitness: &[f64]) -> GenStats {
        let asked = Asked::take(&mut self.asked, self.population.len(), fitness.len());
        self.evaluations += fitness.len() as u64;
        if let Asked::Bred(trials) = asked {
            for (i, (trial, &tf)) in trials.into_iter().zip(fitness).enumerate() {
                assert!(tf.is_finite(), "fitness must be finite");
                let m = &mut self.population.members_mut()[i];
                // Greedy selection with >=: drifting across plateaus is what
                // lets DE escape flat fitness regions (important for J = 0
                // early fire-prediction populations).
                if tf >= m.fitness {
                    m.genes = trial;
                    m.fitness = tf;
                }
            }
            self.generation += 1;
        } else {
            self.population.assign_fitness(fitness);
        }
        self.stats()
    }

    /// Reinitialises the `frac` worst members uniformly at random — the
    /// ESSIM-DE population restart operator (\[21\]). Restarted members are
    /// unevaluated; call [`DeEngine::evaluate_initial`] (or its ask/tell
    /// pair) before stepping.
    pub fn restart_worst(&mut self, frac: f64) {
        assert!(
            (0.0..=1.0).contains(&frac),
            "restart fraction is a probability"
        );
        let n = ((self.population.len() as f64) * frac).round() as usize;
        if n == 0 {
            return;
        }
        self.population.sort_by_fitness_desc();
        let len = self.population.len();
        let dims = self.dims;
        for m in &mut self.population.members_mut()[len - n..] {
            m.genes = (0..dims).map(|_| self.rng.random::<f64>()).collect();
            m.fitness = f64::NAN;
        }
    }

    /// Current population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Mutable population access (migration).
    pub fn population_mut(&mut self) -> &mut Population {
        &mut self.population
    }

    /// Generation counter.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Total evaluations so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Statistics of the current population.
    pub fn stats(&self) -> GenStats {
        let f = self.population.fitness_values();
        let mean = if f.is_empty() {
            0.0
        } else {
            f.iter().sum::<f64>() / f.len() as f64
        };
        GenStats {
            generation: self.generation,
            best_fitness: f.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean_fitness: mean,
            fitness_iqr: iqr(&f),
            evaluations: self.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::sphere;

    fn sphere_eval() -> impl FnMut(&[Vec<f64>]) -> Vec<f64> {
        |gs: &[Vec<f64>]| gs.iter().map(|g| sphere(g)).collect()
    }

    #[test]
    fn de_converges_on_sphere() {
        let mut engine = DeEngine::new(
            6,
            DeConfig {
                seed: 77,
                ..DeConfig::default()
            },
        );
        let mut eval = sphere_eval();
        engine.evaluate_initial(&mut eval);
        let mut last = engine.stats();
        for _ in 0..60 {
            last = engine.step(&mut eval);
        }
        assert!(
            last.best_fitness > 0.98,
            "DE should solve sphere, got {}",
            last.best_fitness
        );
    }

    #[test]
    fn greedy_selection_never_regresses_any_member() {
        let mut engine = DeEngine::new(
            4,
            DeConfig {
                seed: 3,
                ..DeConfig::default()
            },
        );
        let mut eval = sphere_eval();
        engine.evaluate_initial(&mut eval);
        let before: Vec<f64> = engine.population().fitness_values();
        engine.step(&mut eval);
        let after: Vec<f64> = engine.population().fitness_values();
        for (b, a) in before.iter().zip(&after) {
            assert!(a >= b, "member regressed: {b} → {a}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut e = DeEngine::new(
                4,
                DeConfig {
                    seed,
                    ..DeConfig::default()
                },
            );
            let mut eval = sphere_eval();
            e.evaluate_initial(&mut eval);
            for _ in 0..10 {
                e.step(&mut eval);
            }
            e.population().genomes()
        };
        assert_eq!(run(8), run(8));
        assert_ne!(run(8), run(9));
    }

    #[test]
    fn evaluations_accumulate() {
        let cfg = DeConfig {
            population_size: 12,
            seed: 1,
            ..DeConfig::default()
        };
        let mut e = DeEngine::new(3, cfg);
        let mut eval = sphere_eval();
        e.evaluate_initial(&mut eval);
        e.step(&mut eval);
        e.step(&mut eval);
        assert_eq!(e.evaluations(), 36);
    }

    #[test]
    fn restart_marks_worst_unevaluated() {
        let mut e = DeEngine::new(
            3,
            DeConfig {
                seed: 4,
                ..DeConfig::default()
            },
        );
        let mut eval = sphere_eval();
        e.evaluate_initial(&mut eval);
        e.restart_worst(0.25);
        let fresh = e
            .population()
            .members()
            .iter()
            .filter(|m| !m.is_evaluated())
            .count();
        assert_eq!(fresh, 13); // round(50 × 0.25)
        e.evaluate_initial(&mut eval);
        e.step(&mut eval);
    }

    #[test]
    #[should_panic(expected = "one fitness value per asked genome")]
    fn tell_with_the_wrong_length_panics() {
        let mut e = DeEngine::new(3, DeConfig::default());
        let mut eval = sphere_eval();
        let genomes = e.ask_initial();
        let mut fitness = eval(&genomes);
        fitness.push(0.5);
        e.tell(&fitness);
    }

    #[test]
    #[should_panic(expected = "before asking again")]
    fn asking_twice_without_a_tell_panics() {
        let mut e = DeEngine::new(3, DeConfig::default());
        let _ = e.ask_initial();
        let _ = e.ask_initial();
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_population_rejected() {
        let _ = DeEngine::new(
            3,
            DeConfig {
                population_size: 3,
                ..DeConfig::default()
            },
        );
    }
}
