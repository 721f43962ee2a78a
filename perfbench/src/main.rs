//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's full record as one JSON line, then the result line
//! (`correct`, `attempted`, `failed`, `metrics`) last. Exits 1 when any
//! output check failed and 2 on bad arguments.

use std::process::ExitCode;

use perfbench::{Options, Size};

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        spans_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => opts.spans_out = Some(value.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for msg in &report.checks.messages {
        eprintln!("FAIL: {msg}");
    }
    println!("{}", report.record_json());
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
