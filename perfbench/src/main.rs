//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit (and, traced, the self-time
//! table), then one JSON object as the last line of standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. A traced
//! run also writes its span log as JSON lines under
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`).

use perfbench::run::{json_line, run, Metric, Report};
use perfbench::workload::{Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = num()?,
            "--seconds" => out.seconds = num()?,
            "--trace" => out.trace = num()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.workload != "all" && Workload::find(&out.workload).is_none() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(out)
}

fn print_report(r: &Report, seed: u64) {
    let kernel = Workload::find(r.workload).map_or("", |w| w.calibration.name());
    println!(
        "== {} seed={seed} trace={} passes: {} untraced, {} traced; calibration kernel: {kernel}",
        r.workload, r.traced as u8, r.passes.0, r.passes.1
    );
    for m in &r.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(t) = &r.self_time {
        print!("{t}");
    }
    println!(
        "attempted {} DMA operations, {} failed",
        r.attempted, r.failed
    );
    for p in &r.problems {
        println!("FAILED: {p}");
    }
}

fn write_spans(r: &Report, seed: u64) {
    let Some(rec) = &r.recorder else { return };
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("perfbench");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", r.workload));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, rec.to_json_lines())) {
        Ok(()) => println!("span log: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Pins glibc's mmap threshold at its default, 128 KiB. Left dynamic,
/// glibc raises it the first time a large block is freed, and from then on
/// whether a stack build (the copy engine's shadow-pool metadata above
/// all) is served fresh pages or recycled heap flips unpredictably within
/// and between runs — `setup_s` swung 3x with it. Pinned, every build
/// faults its large blocks in, as the first build of a fresh process does.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only changes allocator tuning; it is called
    // before any allocation-heavy work and before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(&'static Workload, bool)> = match Workload::find(&args.workload) {
        Some(w) => vec![(w, args.trace)],
        None => WORKLOADS
            .iter()
            .flat_map(|w| [(w, false), (w, true)])
            .collect(),
    };
    let reports: Vec<Report> = runs
        .into_iter()
        .map(|(w, traced)| {
            let r = run(w, args.seed, args.seconds, traced);
            print_report(&r, args.seed);
            write_spans(&r, args.seed);
            r
        })
        .collect();
    let single = reports.len() == 1;
    let metrics: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if single {
                    m.name.to_string()
                } else {
                    format!("{}.{}", r.workload, m.name)
                };
                (name, m)
            })
        })
        .collect();
    println!(
        "{}",
        json_line(
            reports.iter().all(Report::correct),
            reports.iter().map(|r| r.attempted).sum(),
            reports.iter().map(|r| r.failed).sum(),
            &metrics
        )
    );
    ExitCode::SUCCESS
}
