//! End-to-end benchmark of the interactive Nemo loop.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload catalog-quick --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` times the workload and reports its end-to-end metrics;
//! `--trace 1` runs it traced and reports the per-layer metrics. Both
//! check the program's outputs. Standard output ends with a stamp line
//! (machine and configuration) and the JSON result line; a readable table
//! goes to standard error. See `perfbench/README.md`.

mod measure;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use nemo_core::pipeline::{ContextualizedPipeline, LearningPipeline};
use nemo_core::IdpConfig;

use measure::{json_str, ratio, result_line};
use workloads::{Args, Workload};

const USAGE: &str = "usage: perfbench --workload <catalog-quick|amazon-full|pool-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(pos + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let report = workloads::run(&args);
    let elapsed = start.elapsed().as_secs_f64();

    let config = IdpConfig::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let error_rate = ratio(report.failed as f64, report.attempted as f64);
    eprintln!(
        "perfbench {} seed {} trace {}: {} rounds attempted, {} failed (round_error_rate {}), \
         {} latency samples, {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        error_rate,
        report.samples,
        elapsed
    );
    eprint!("{}", report.metrics.table());
    println!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"workers\": {}, \"profile\": {}, \"label_model\": {}, \
         \"engine\": {}, \"pipeline\": {}, \"rounds_per_session\": {}, \"eval_every\": {}, \
         \"user_threshold\": {}, \"dataset_seed\": {}, \"commit\": {}, \
         \"round_samples\": {}, \"round_error_rate\": {error_rate}, \"host_speed\": {}, \
         \"elapsed_s\": {elapsed}}}}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        nemo_sparse::parallel::num_threads(),
        json_str(args.workload.profile().name()),
        json_str(config.label_model.name()),
        json_str(config.selection.name()),
        json_str(ContextualizedPipeline::default().name()),
        workloads::ROUNDS,
        workloads::EVAL_EVERY,
        workloads::USER_THRESHOLD,
        workloads::DATASET_SEED,
        json_str(&measure::commit()),
        report.samples,
        report.host_speed,
    );
    println!("{}", result_line(report.correct, report.attempted, report.failed, &report.metrics));
    ExitCode::SUCCESS
}
