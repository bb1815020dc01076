//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the machine fingerprint and every figure as `# ...` lines, then
//! one JSON result line: `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero, printing no result line, on bad arguments, a pinned
//! environment variable, or a workload that could not run at all.

use perfbench::{check_env, machine_fingerprint, run, Settings, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <prove-safe|find-attack|serve-mix> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut settings =
        Settings { seed: 0, seconds: Duration::from_secs(10), trace: false, spans_path: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => settings.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
                settings.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, settings))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, mut settings) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_env() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if settings.trace {
        settings.spans_path = Some(PathBuf::from(format!(
            "perfbench/out/spans-{workload}-seed{}.jsonl",
            settings.seed
        )));
    }
    println!("# machine {}", machine_fingerprint());
    println!(
        "# workload {workload} seed {} seconds {} trace {}",
        settings.seed,
        settings.seconds.as_secs_f64(),
        u8::from(settings.trace)
    );
    let out = match run(&workload, &settings) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &out.notes {
        println!("# note {note}");
    }
    println!("# failed_frac {} ratio ({}/{})", out.failed_frac(), out.failed, out.attempted);
    for m in out.metrics.iter().chain(&out.extra) {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json_line());
    ExitCode::SUCCESS
}
