//! Command line of one benchmark leg (`run.py` is the entry point):
//!
//! ```text
//! oijbench plan --workload <name> --trace <0|1>
//! oijbench leg --workload <name> --leg <leg> --seed <n> --round <r> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! `plan` prints the joiners per engine or plan (`joiners <n>`), then
//! the legs of one run, one `<leg> <share of seconds>` per line. `leg` runs one leg and prints its report as the last line.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use oijbench::legs::{plan, Leg};
use oijbench::report::{Report, Tracer};
use oijbench::workload::{joiners, Workload};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("oijbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let flag = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?;
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    match args.first().map(String::as_str) {
        Some("plan") => {
            println!("joiners {}", joiners());
            for (leg, share) in plan(workload, trace) {
                println!("{leg} {share}");
            }
            Ok(())
        }
        Some("leg") => {
            let name = flag("--leg")?;
            let seed: u64 = flag("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?;
            let round: u64 = flag("--round")?
                .parse()
                .map_err(|e| format!("--round: {e}"))?;
            let seconds: f64 = flag("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?;
            if !(seconds.is_finite() && seconds >= 0.0) {
                return Err(format!(
                    "--seconds must be a non-negative number, not {seconds}"
                ));
            }
            let out = PathBuf::from(flag("--out")?);
            std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
            let mut leg = Leg {
                workload,
                seed,
                round,
                budget: Duration::from_secs_f64(seconds),
                trace,
                scratch: &out,
                tracer: Tracer::new(trace),
                report: Report::default(),
            };
            leg.run(name)?;
            let spans = out.join(format!(
                "spans-{}-{seed}-{name}-{round}.json",
                workload.name()
            ));
            leg.tracer
                .write(&spans)
                .map_err(|e| format!("{}: {e}", spans.display()))?;
            println!("{}", leg.report.to_json());
            Ok(())
        }
        _ => Err("usage: oijbench plan|leg --workload <name> --trace <0|1> ...".into()),
    }
}
