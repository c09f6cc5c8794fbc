//! `perfbench`: wall-clock benchmark of the reading-machine serving and
//! training paths at the paper preset (43.7k users × 2.7k books).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf|batch-hetero|train-paper --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! workload's end-to-end metrics; with `--trace 1` it replays the same
//! requests layer by layer and reports the per-layer metrics. The last
//! line of standard output is the result as one JSON object; the line
//! before it is the environment record, which is also written to
//! `perfbench/out/`. See `perfbench/README.md` for the metrics.

mod check;
mod env;
mod replay;
mod report;
mod setup;
mod stats;
mod trace;
mod traced;
mod workloads;

use report::{metrics_with_spread, num, object, result_line, string, Outcome};
use workloads::Workload;

/// A seed later performance claims must also hold on, besides the seed
/// they were measured with.
const SECOND_SEED: u64 = 20_261_017;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 16u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The environment record: what ran, where, and every number with the
/// spread of the samples behind it.
fn record(args: &Args, o: &Outcome) -> String {
    let extra = object(o.extra.iter().map(|(k, v)| (k.as_str(), num(*v))));
    let faults = format!(
        "[{}]",
        o.faults
            .iter()
            .map(|f| string(f))
            .collect::<Vec<_>>()
            .join(",")
    );
    let failed_share = o.failed as f64 / o.attempted.max(1) as f64;
    object([
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("second_seed", SECOND_SEED.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", args.seconds.to_string()),
        ("preset", string("paper")),
        ("nproc", env::nproc().to_string()),
        ("git_commit", string(&env::git_commit())),
        ("source_fingerprint", string(&env::source_fingerprint())),
        ("rustc", string(&env::rustc_version())),
        ("setup_reps", workloads::SETUP_REPS.to_string()),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
        ("failed_share", num(failed_share)),
        ("metrics", metrics_with_spread(&o.metrics)),
        ("record_metrics", metrics_with_spread(&o.record_metrics)),
        ("extra", extra),
        ("faults", faults),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve-zipf|batch-hetero|train-paper --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let outcome = if args.trace {
        traced::traced(args.workload, args.seed)
    } else {
        match args.workload {
            Workload::ServeZipf => workloads::serve_zipf(args.seed, args.seconds),
            Workload::BatchHetero => workloads::batch_hetero(args.seed, args.seconds),
            Workload::TrainPaper => workloads::train_paper(args.seed, args.seconds),
        }
    };
    let rec = record(&args, &outcome);
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &rec)) {
        eprintln!("record not written to {}: {e}", path.display());
    }
    println!("{}", object([("record", rec)]));
    println!("{}", result_line(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = parse_args(&argv(
            "--workload batch-hetero --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::BatchHetero);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve-zipf --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-zipf --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload serve-zipf --bogus 1")).is_err());
    }
}
