//! The `accuracy_pipeline` workload: Algorithm 1 end to end on the fig12
//! task set.
//!
//! Each task goes through dataset generation (set-up), dense pretraining,
//! `GradientRedistribution::apply` (Jacobi SVD, truncation, fine-tuning,
//! gradient collection), then a 7-rate x 3-seed noise sweep at 2-bit MLC on
//! the worker pool. A traced pass runs the same pipeline stage by stage
//! (`factorize_model_pooled` -> `train` -> `collect_profiles`) and times
//! each call; it also runs the serial references of the two pooled stages.

use crate::report::{self, median, timed, Rows, Tally};
use crate::Args;
use hyflex_parallel::JobPool;
use hyflex_pim::gradient_redistribution::{GradientRedistribution, RedistributionReport};
use hyflex_pim::noise_sim::{HybridMappingSpec, NoiseSimulator, SweepOutcome, SweepPoint};
use hyflex_pim::PimError;
use hyflex_runtime::par_noise_sweep;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::SvdAlgorithm;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};
use hyflex_workloads::{lm, vision, Dataset};
use std::time::Instant;

/// SLC protection rates of the sweep (fig12's axis).
const RATES: [f64; 7] = [0.0, 0.05, 0.10, 0.30, 0.40, 0.50, 1.0];
const SEEDS_PER_RATE: u64 = 3;
const PRETRAIN_EPOCHS: usize = 4;
const FINETUNE_EPOCHS: usize = 2;
/// The protection rate of `modeled_accuracy_slc5` and `core.slc_rank_frac`.
const SLC5: f64 = 0.05;
/// At 100 % SLC the task metric must stay this close to the noise-free
/// fine-tuned model (absolute, in the metric's own units; the LM metric is
/// the negative loss, so it is compared relative to the loss).
const FULL_SLC_TOLERANCE: f64 = 0.1;

/// One fig12 task: a tiny model and its synthetic dataset.
struct Task {
    name: &'static str,
    config: ModelConfig,
    dataset: Dataset,
    seed: u64,
    metric: Metric,
}

/// The task's primary metric (`TaskMetrics::primary_value`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Metric {
    Accuracy,
    Pearson,
    NegativeLoss,
}

/// The fig12 task set (the `hyflex-workloads` layer).
fn tasks(seed: u64) -> Vec<Task> {
    let task_seed = |k: u64| seed.wrapping_mul(8).wrapping_add(k);
    let glue_config = GlueConfig::default();
    let mut tasks: Vec<Task> = [
        (GlueTask::Mrpc, "MRPC"),
        (GlueTask::Cola, "CoLA"),
        (GlueTask::Sst2, "SST-2"),
        (GlueTask::Rte, "RTE"),
    ]
    .into_iter()
    .enumerate()
    .map(|(k, (task, name))| Task {
        name,
        config: ModelConfig::tiny_encoder(2),
        dataset: glue::generate(task, &glue_config, task_seed(k as u64)),
        seed: task_seed(k as u64),
        metric: Metric::Accuracy,
    })
    .collect();
    tasks.push(Task {
        name: "STS-B",
        config: ModelConfig::tiny_encoder_regression(),
        dataset: glue::generate(GlueTask::Stsb, &glue_config, task_seed(4)),
        seed: task_seed(4),
        metric: Metric::Pearson,
    });
    tasks.push(Task {
        name: "WikiText-2",
        config: ModelConfig::tiny_decoder(),
        dataset: lm::wikitext2_dataset(task_seed(5)),
        seed: task_seed(5),
        metric: Metric::NegativeLoss,
    });
    tasks.push(Task {
        name: "CIFAR-10",
        config: ModelConfig::tiny_vit(10),
        dataset: vision::generate(&vision::VisionConfig::default(), task_seed(6)),
        seed: task_seed(6),
        metric: Metric::Accuracy,
    });
    tasks
}

fn trainer() -> Trainer {
    Trainer::new(
        AdamWConfig {
            learning_rate: 3e-3,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        },
        16,
    )
}

fn pipeline() -> GradientRedistribution {
    GradientRedistribution {
        finetune_epochs: FINETUNE_EPOCHS,
        svd_algorithm: SvdAlgorithm::Jacobi,
        ..GradientRedistribution::new(trainer())
    }
}

fn sweep_points(task: &Task) -> Vec<SweepPoint> {
    SweepPoint::grid(&RATES, SEEDS_PER_RATE, task.seed.wrapping_mul(100))
}

fn pretrained(task: &Task) -> Result<TransformerModel, PimError> {
    let mut rng = Rng::seed_from(task.seed);
    let mut model = TransformerModel::new(task.config.clone(), &mut rng)?;
    trainer().train(&mut model, &task.dataset.train, PRETRAIN_EPOCHS)?;
    Ok(model)
}

fn sweep(
    pool: &JobPool,
    task: &Task,
    model: &TransformerModel,
    report: &RedistributionReport,
) -> Result<Vec<SweepOutcome>, PimError> {
    par_noise_sweep(
        pool,
        &NoiseSimulator::paper_default(),
        model,
        &report.layer_profiles,
        &HybridMappingSpec::gradient_based(0.0),
        &task.dataset.eval,
        &sweep_points(task),
    )
}

/// What one task's pipeline produces.
#[derive(Debug, PartialEq)]
struct TaskResult {
    report: RedistributionReport,
    outcomes: Vec<SweepOutcome>,
}

/// Calls one untraced pass makes per task (pretraining, `apply`, sweep).
const TASK_STEPS: usize = 3;

/// One task, untraced: the library's own entry points, with the host
/// seconds of each of its `TASK_STEPS` calls.
fn run_task(task: &Task, pool: &JobPool) -> Result<(TaskResult, [f64; TASK_STEPS]), PimError> {
    let (model, pretrain_s) = timed(|| pretrained(task));
    let mut model = model?;
    let (report, apply_s) =
        timed(|| pipeline().apply(&mut model, &task.dataset.train, &task.dataset.eval));
    let report = report?;
    let (outcomes, sweep_s) = timed(|| sweep(pool, task, &model, &report));
    let result = TaskResult {
        report,
        outcomes: outcomes?,
    };
    Ok((result, [pretrain_s, apply_s, sweep_s]))
}

/// Host seconds per layer call, summed over one traced pass.
#[derive(Debug, Default, Clone)]
struct Spans {
    pretrain_s: f64,
    finetune_s: f64,
    evaluate_s: f64,
    factorize_s: f64,
    collect_profiles_s: f64,
    noise_sweep_s: f64,
    train_samples: usize,
    factorized_layers: usize,
    sweep_points: usize,
    /// Serial references of the pooled stages (not part of the pipeline).
    factorize_serial_s: f64,
    noise_sweep_serial_s: f64,
}

/// One task, traced: the pipeline stage by stage, each call timed, plus the
/// serial references of the two pooled stages.
fn run_task_traced(
    task: &Task,
    pool: &JobPool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<TaskResult, PimError> {
    let (train, eval) = (&task.dataset.train, &task.dataset.eval);
    let trainer = trainer();
    let pipeline = pipeline();
    let mut rng = Rng::seed_from(task.seed);
    let mut model = TransformerModel::new(task.config.clone(), &mut rng)?;
    let (pretrain, s) = timed(|| trainer.train(&mut model, train, PRETRAIN_EPOCHS));
    pretrain?;
    spans.pretrain_s += s;
    spans.train_samples += PRETRAIN_EPOCHS * train.len();

    let (eval_dense, s) = timed(|| trainer.evaluate(&model, eval));
    spans.evaluate_s += s;
    let eval_dense = eval_dense?;
    let mut serial = model.clone();
    let (ranks, s) = timed(|| pipeline.factorize_model_pooled(&mut model, pool));
    spans.factorize_s += s;
    spans.factorized_layers += ranks?.len();
    let (serial_ranks, s) = timed(|| pipeline.factorize_model(&mut serial));
    spans.factorize_serial_s += s;
    serial_ranks?;
    tally.check(
        serial == model,
        &format!("{}: pooled factorization equals serial", task.name),
    );

    let (eval_truncated, s) = timed(|| trainer.evaluate(&model, eval));
    spans.evaluate_s += s;
    let (finetune_losses, s) = timed(|| trainer.train(&mut model, train, FINETUNE_EPOCHS));
    spans.finetune_s += s;
    spans.train_samples += FINETUNE_EPOCHS * train.len();
    let (eval_finetuned, s) = timed(|| trainer.evaluate(&model, eval));
    spans.evaluate_s += s;
    let (layer_profiles, s) = timed(|| pipeline.collect_profiles(&mut model, train));
    spans.collect_profiles_s += s;
    let report = RedistributionReport {
        layer_profiles: layer_profiles?,
        finetune_losses: finetune_losses?,
        eval_dense,
        eval_truncated: eval_truncated?,
        eval_finetuned: eval_finetuned?,
    };

    let (outcomes, s) = timed(|| sweep(pool, task, &model, &report));
    spans.noise_sweep_s += s;
    let outcomes = outcomes?;
    spans.sweep_points += outcomes.len();
    let (serial_outcomes, s) = timed(|| sweep(&JobPool::serial(), task, &model, &report));
    spans.noise_sweep_serial_s += s;
    tally.check(
        serial_outcomes? == outcomes,
        &format!("{}: pooled noise sweep equals serial", task.name),
    );
    Ok(TaskResult { report, outcomes })
}

/// Mean primary metric of the sweep points at `rate`.
fn mean_at(outcomes: &[SweepOutcome], rate: f64, value: impl Fn(&SweepOutcome) -> f64) -> f64 {
    let at: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.point.protection_rate == rate)
        .map(value)
        .collect();
    at.iter().sum::<f64>() / at.len().max(1) as f64
}

/// Output checks of one pass: at 100 % SLC every task stays close to its
/// noise-free fine-tuned model.
fn check_pass(tasks: &[Task], results: &[TaskResult], tally: &mut Tally) {
    tally.check(results.len() == tasks.len(), "every task produced a result");
    for (task, result) in tasks.iter().zip(results) {
        let baseline = result.report.eval_finetuned.metrics.primary_value();
        let full = mean_at(&result.outcomes, 1.0, |o| o.primary_metric);
        eprintln!(
            "{:<12} noise-free {baseline:.4}  5% SLC {:.4}  100% SLC {full:.4}",
            task.name,
            mean_at(&result.outcomes, SLC5, |o| o.primary_metric)
        );
        let scale = match task.metric {
            Metric::Accuracy | Metric::Pearson => 1.0,
            Metric::NegativeLoss => baseline.abs().max(1.0),
        };
        tally.check(
            (full - baseline).abs() <= FULL_SLC_TOLERANCE * scale,
            &format!(
                "{}: 100% SLC metric {full:.4} within {FULL_SLC_TOLERANCE} of the \
                 noise-free {baseline:.4}",
                task.name
            ),
        );
        tally.check(
            result.outcomes.len() == RATES.len() * SEEDS_PER_RATE as usize,
            &format!("{}: every sweep point evaluated", task.name),
        );
    }
}

/// One set-up repetition: generating the task set's datasets.
fn set_up(seed: u64, times: &mut Vec<f64>) -> Vec<Task> {
    let (tasks, s) = timed(|| tasks(seed));
    times.push(s);
    tasks
}

/// Runs the accuracy pipeline and fills its metric rows.
pub fn run(args: &Args, tally: &mut Tally, rows: &mut Rows) {
    let mut setup_times = Vec::new();
    let mut tasks = set_up(args.seed, &mut setup_times);
    for _ in 1..report::SETUP_REPS {
        tasks = set_up(args.seed, &mut setup_times);
    }
    let pool = JobPool::with_default_parallelism();
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };

    // Untraced passes: the end-to-end measurement.
    let mut walls = Vec::new();
    let mut step_times = vec![Vec::new(); tasks.len() * TASK_STEPS];
    let mut reference: Option<Vec<TaskResult>> = None;
    report::repeat_for(budget, || {
        set_up(args.seed, &mut setup_times);
        let start = Instant::now();
        let mut results = Vec::new();
        for (task, times) in tasks.iter().zip(step_times.chunks_mut(TASK_STEPS)) {
            if let Some((result, steps)) = tally.op(run_task(task, &pool), task.name) {
                for (time, s) in times.iter_mut().zip(steps) {
                    time.push(s);
                }
                results.push(result);
            }
        }
        walls.push(start.elapsed().as_secs_f64());
        match &reference {
            None => {
                check_pass(&tasks, &results, tally);
                reference = Some(results);
            }
            Some(first) => tally.check(
                *first == results,
                "every pass of one seed gives the same results",
            ),
        }
    });
    let Some(reference) = reference else {
        return;
    };
    report::log_passes("untraced", &walls);
    rows.set("setup_s", median(&setup_times));
    rows.set("workloads.generate_s", median(&setup_times));
    // One pass assembled from the fastest run of each of its calls (see
    // `report::fastest`): a whole pass lasts seconds, long enough to
    // straddle the host's slow regimes, while one call rarely does.
    let wall_s: f64 = step_times.iter().map(|t| report::fastest(t)).sum();
    let inferences: usize = tasks
        .iter()
        .map(|t| sweep_points(t).len() * t.dataset.eval.len())
        .sum();
    if !args.trace {
        rows.set("wall_s", wall_s);
        rows.set("sim_req_per_s", inferences as f64 / wall_s);
        if let Some(mb) = report::peak_rss_mb() {
            rows.set("peak_rss_mb", mb);
        }
        return;
    }
    let classification: Vec<f64> = tasks
        .iter()
        .zip(&reference)
        .filter(|(task, _)| task.metric == Metric::Accuracy)
        .map(|(_, result)| mean_at(&result.outcomes, SLC5, |o| o.primary_metric))
        .collect();
    rows.set(
        "modeled_accuracy_slc5",
        classification.iter().sum::<f64>() / classification.len().max(1) as f64,
    );
    let slc_fracs: Vec<f64> = reference
        .iter()
        .map(|r| mean_at(&r.outcomes, SLC5, |o| o.stats.slc_rank_fraction()))
        .collect();
    rows.set(
        "core.slc_rank_frac",
        slc_fracs.iter().sum::<f64>() / slc_fracs.len().max(1) as f64,
    );

    // Traced passes: the pipeline stage by stage.
    let mut passes: Vec<(Spans, f64)> = Vec::new();
    report::repeat_for(budget, || {
        let mut spans = Spans::default();
        let start = Instant::now();
        let mut results = Vec::new();
        for task in &tasks {
            let result = run_task_traced(task, &pool, &mut spans, tally);
            if let Some(result) = tally.op(result, task.name) {
                results.push(result);
            }
        }
        // The serial references are not part of the traced pipeline.
        let traced_s =
            start.elapsed().as_secs_f64() - spans.factorize_serial_s - spans.noise_sweep_serial_s;
        tally.check(
            results == reference,
            "the stage-split pipeline equals GradientRedistribution::apply",
        );
        passes.push((spans, traced_s));
    });
    let fast = |f: fn(&Spans) -> f64| {
        report::fastest(&passes.iter().map(|(s, _)| f(s)).collect::<Vec<_>>())
    };
    let Some((first, _)) = passes.first() else {
        return;
    };
    let train_s = fast(|s| s.pretrain_s + s.finetune_s);
    rows.set("transformer.pretrain_s", fast(|s| s.pretrain_s));
    rows.set("transformer.finetune_s", fast(|s| s.finetune_s));
    rows.set("transformer.evaluate_s", fast(|s| s.evaluate_s));
    rows.set(
        "transformer.train_samples_per_s",
        first.train_samples as f64 / train_s,
    );
    rows.set("core.factorize_s", fast(|s| s.factorize_s));
    rows.set("core.factorized_layers", first.factorized_layers as f64);
    rows.set("core.collect_profiles_s", fast(|s| s.collect_profiles_s));
    let sweep_s = fast(|s| s.noise_sweep_s);
    rows.set("core.noise_sweep_s", sweep_s);
    rows.set(
        "core.noise_points_per_s",
        first.sweep_points as f64 / sweep_s,
    );
    rows.set(
        "parallel.factorize_speedup",
        fast(|s| s.factorize_serial_s) / fast(|s| s.factorize_s),
    );
    rows.set(
        "parallel.noise_sweep_speedup",
        fast(|s| s.noise_sweep_serial_s) / sweep_s,
    );
    let traced_s = report::fastest(&passes.iter().map(|(_, t)| *t).collect::<Vec<_>>());
    rows.set(
        "bench.trace_overhead_frac",
        traced_s / report::fastest(&walls) - 1.0,
    );
}
