//! The benchmark command.
//!
//! ```text
//! perfbench --workload <exact_matrix|seed_sweep> --seed <n>
//!           --seconds <n> --trace <0|1>
//! perfbench --write-digests
//! ```
//!
//! Prints a provenance line and, last, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`. Traced runs
//! also write their spans to `out/` beside this crate.

use esp_perfbench::checks;
use esp_perfbench::{run, RunSpec, Workload, DEFAULT_SCALE, DEFAULT_SEED};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <exact_matrix|seed_sweep> \
--seed <n> --seconds <n> --trace <0|1>\n       perfbench --write-digests";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--write-digests"] {
        return write_digests();
    }
    let spec = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&spec);
    let mut failures = result.failures;
    for m in &result.metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    if spec.trace {
        report_spans(&spec, &result.tracer);
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!("{}", result.provenance);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        result.attempted,
        failures.len(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.ok_or("--trace is required")?,
        scale: DEFAULT_SCALE,
        digests: Some(checks::committed()),
    })
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the spans and prints per-layer self time to stderr.
fn report_spans(spec: &RunSpec, tracer: &esp_perfbench::spans::Tracer) {
    let dir = out_dir();
    let path = dir.join(format!("spans-{}-seed{}.jsonl", spec.workload.name(), spec.seed));
    let written = fs::create_dir_all(&dir)
        .and_then(|()| fs::File::create(&path))
        .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)));
    match written {
        Ok(()) => eprintln!("# wrote {} spans to {}", tracer.spans().len(), path.display()),
        Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
    }
    eprintln!("# {:<28} {:>7} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for s in tracer.self_times() {
        eprintln!("# {:<28} {:>7} {:>12.3} {:>12.3}", s.name, s.count, s.total_ms, s.self_ms);
    }
}

/// Regenerates `digests/exact.txt`: every exact cell at the default
/// scale and seed.
fn write_digests() -> ExitCode {
    let table = checks::digest_table(DEFAULT_SCALE, DEFAULT_SEED);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("digests/exact.txt");
    match fs::write(&path, table.render()) {
        Ok(()) => {
            eprintln!("# wrote {} digests to {}", table.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
