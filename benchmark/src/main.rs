//! `requiem-benchmark --workload W [--seed S] [--seconds X] [--trace 0|1]
//! [--quick] [--out DIR]`
//!
//! Runs one workload in one mode, prints every metric as
//! `workload metric value unit`, writes `DIR/W.json` (traced:
//! `DIR/W.layers.json` and `DIR/W.trace.json`), and ends with one JSON line
//! holding `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! check failed.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use requiem_benchmark::{run_plain, run_traced, workloads, Options, Report};

struct Args {
    workload: String,
    opt: Options,
    trace: bool,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        opt: Options {
            seed: 11,
            seconds: 10.0,
            quick: false,
        },
        trace: false,
        out: PathBuf::from("out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.opt.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.opt.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.opt.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.opt.seconds > 0.0 && args.opt.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// The metrics as a JSON object: `{"name": {"value": v, "unit": "u"}, ...}`.
fn metrics_json(report: &Report) -> String {
    let mut out = String::from("{");
    for (i, ((name, unit), value)) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("requiem-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let report = if args.trace {
        run_traced(w, args.opt)
    } else {
        run_plain(w, args.opt)
    }
    .expect("workload name was validated");

    for ((name, unit), value) in &report.metrics {
        println!("{w} {name} {value} {unit}");
    }
    println!("{w} sim_fingerprint {:016x} hash", report.sim_fingerprint);
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!("{w} failed_share {failed_share} ratio");
    for note in &report.notes {
        println!("# {w}: {note}");
    }
    for e in &report.errors {
        println!("# {w}: FAILED CHECK: {e}");
    }

    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics_json(&report)
    );
    let file = if args.trace { "layers.json" } else { "json" };
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            let body = format!(
                "{{\"workload\": \"{w}\", \"seed\": {}, \"quick\": {}, \"sim_fingerprint\": \
                 \"{:016x}\", \"result\": {result}}}\n",
                args.opt.seed, args.opt.quick, report.sim_fingerprint
            );
            std::fs::write(args.out.join(format!("{w}.{file}")), body)
        })
        .and_then(|()| match &report.tracer {
            Some(tr) => std::fs::write(
                args.out.join(format!("{w}.trace.json")),
                tr.chrome_trace_json(),
            ),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("requiem-benchmark: writing {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    println!("{result}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
