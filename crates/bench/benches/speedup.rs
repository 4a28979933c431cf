//! E3 (kernel) — one batch of scenario evaluations through each backend of
//! the unified evaluation layer: serial and the channel Master/Worker farm.
//! Both produce bit-identical fitness vectors, so this isolates pure
//! scheduling cost.

use ess::cases;
use ess::fitness::{EvalBackend, ScenarioEvaluator, StepContext};
use ess_benches::microbench::{bench, group};
use evoalg::BatchEvaluator;
use firelib::ScenarioSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let case = cases::chaparral_slope();
    let ctx = Arc::new(StepContext::new(
        Arc::clone(&case.sim),
        case.fire_lines[0].clone(),
        case.fire_lines[1].clone(),
        case.times[0],
        case.times[1],
    ));
    let mut rng = StdRng::seed_from_u64(11);
    let batch: Vec<Vec<f64>> = (0..64)
        .map(|_| ScenarioSpace.sample_genes(&mut rng).to_vec())
        .collect();

    group("eval_backends (64 scenarios/batch)");
    let mut reference: Option<Vec<u64>> = None;
    for backend in [EvalBackend::Serial, EvalBackend::WorkerPool(2)] {
        let mut evaluator = ScenarioEvaluator::new(Arc::clone(&ctx), backend);
        let fitness = evaluator.evaluate(&batch);
        let bits: Vec<u64> = fitness.iter().map(|f| f.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(r, &bits, "{backend} diverged from serial"),
        }
        bench(&backend.name(), 10, || evaluator.evaluate(&batch));
    }
}
