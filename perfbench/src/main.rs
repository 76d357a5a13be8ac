//! The repository benchmark. One run drives one workload against the
//! real stack for a fixed time and prints, as its last line, one JSON
//! object: whether every checked output was correct, how many operations
//! were attempted and failed, and the metrics. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) report per-layer metrics taken from the benchmark's own
//! spans and write those spans to `perfbench/out/`. A run whose checks
//! fail prints its result and exits with code 1.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload portal-hot --seed 1 --seconds 10 --trace 0
//! ```

mod check;
mod gen;
mod portal;
mod probe;
mod run;
mod stack;
mod stats;
mod trace;
mod zipf;

use run::{Args, Outcome};

const WORKLOADS: [&str; 2] = ["portal-hot", "client-zipf"];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // No default: the run length is the one in BENCHMARK.json.
    if args.seconds == 0 {
        return Err("--seconds is required and must be above 0".into());
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Per-layer metrics of a traced run; also prints the span report and
/// writes a sample of the spans to `perfbench/out/`.
pub(crate) fn finish_trace(
    args: &Args,
    spans: &[trace::Span],
    counts: &probe::CacheCounts,
    root: &str,
) -> Vec<(&'static str, f64, &'static str)> {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ));
    match trace::write_spans(&path, spans, SPAN_SAMPLE) {
        Ok(n) => eprintln!("wrote {n} of {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    let mut metrics = probe::layer_metrics(spans, counts);
    metrics.push(("obs.record_ns", probe::record_cost_ns(1), "ns"));
    metrics.push(("obs.record_2t_ns", probe::record_cost_ns(2), "ns"));
    probe::print_report(spans, root, &metrics);
    metrics
}

/// The span file keeps the spans of one request in this many.
const SPAN_SAMPLE: u64 = 64;

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Outcome {
        attempted,
        failed,
        correct,
        metrics,
    } = match args.workload.as_str() {
        "portal-hot" => portal::run(&args),
        _ => zipf::run(&args),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    for (name, value, unit) in &metrics {
        eprintln!("{name:<28} {value:>14.4} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct || failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_seed_and_the_rest_come_from_the_command_line() {
        let a = parse("--workload client-zipf --seed 42 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("client-zipf", 42, 3, true)
        );
        assert!(parse("--workload portal-hot --seed x").is_err());
        assert!(parse("--workload portal-hot --seed 1").is_err());
        assert!(parse("--workload portal-hot --seconds 0").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload portal-hot --seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
