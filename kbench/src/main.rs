//! `kbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics as the last line of
//! standard output. Exits 1 when a check fails, 2 on bad arguments.

use std::process::ExitCode;

use kbench::run::Options;
use kbench::workload::Workload;

const USAGE: &str =
    "usage: kbench --workload <heavy_tail|large_graph|small_graph> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::SmallGraph,
        seed: 1,
        seconds: 10,
        trace: false,
        tiny: false,
        root: std::env::current_dir().map_err(|e| format!("current dir: {e}"))?,
    };
    let mut workload = None;
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?.max(1),
            "--trace" => options.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match kbench::execute(&options) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.json_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("kbench: {e}");
            ExitCode::from(1)
        }
    }
}
