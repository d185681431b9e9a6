//! `perfbench` — the QUASII benchmark. Times calls into the public API of
//! the engine, the shard router, the snapshot layer and the deployed
//! `quasii serve` binary, checks every answer against a reference, and
//! prints one JSON result line.
//!
//! ```text
//! perfbench --workload cold_neuro|steady_uniform --seed N --seconds S
//!           --trace 0|1 --quasii PATH [--seal true|false]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--seal false` runs the engine's unsealed reference setting (the
//! benchmark's sensitivity check). `run.py` builds this package and the
//! `quasii` binary, then runs this program; see `NOTES.md`.

mod common;
mod inproc;
mod layers;
mod served;

use common::Workload;
use std::path::PathBuf;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub seal: bool,
    pub quasii: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut seal) = (None, None, false, true);
    let mut quasii = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                }
            }
            "--seal" => {
                seal = match value.as_str() {
                    "true" => true,
                    "false" => false,
                    _ => return Err(format!("--seal must be true or false, got '{value}'")),
                }
            }
            "--quasii" => quasii = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        seal,
        quasii: quasii.unwrap_or_default(),
    })
}

fn run(args: &Args) -> Result<common::Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}; {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.workload.describe()
    );
    eprintln!(
        "  deployment: ShardedQuasii<3> shards=2 shard_threads=2 inner.threads=1 seal={} \
         simd=auto (resolved {}, partitions {}) assign_by=lower tau=60; nproc={nproc}",
        args.seal,
        quasii::SimdPolicy::Auto.resolve().name(),
        quasii::SimdPolicy::Auto.resolve_crack().name(),
    );
    let reference = common::reference(args.workload, args.seed)?;
    match args.workload {
        Workload::ColdNeuro => inproc::cold(args, &reference),
        Workload::SteadyUniform => inproc::steady(args, &reference),
    }
}

fn main() {
    common::fix_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("reference") {
        match parse(&argv[1..]) {
            Ok(args) => common::print_reference(args.workload, args.seed),
            Err(e) => {
                eprintln!("perfbench reference: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            outcome.print(args.trace);
            if !outcome.correct {
                eprintln!("perfbench: answers differ from the reference");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
