//! Virtual-time profile reporter: `cargo run --release --bin profile_report`.
//!
//! Default mode runs the Figure 1 `TCP_STREAM` receive workload with the
//! stack-wide profiler (and its span log) enabled, for every engine in
//! the paper's comparison set, then
//!
//! 1. renders each engine's call tree — the Figure 5 per-phase breakdown
//!    refined into per-scope self/total time — and asserts the tree's
//!    depth-1 cut is cycle-identical to the runs' summed [`Breakdown`],
//! 2. writes `target/profile_fig1.jsonl` (the profile tree, replayable
//!    through `--diff`), `target/profile_fig1.collapsed` (flamegraph
//!    collapsed-stack format, one `engine;scope;...;phase count` line per
//!    stack), and `target/profile_fig1.trace.json` (Chrome trace-event
//!    JSON, loadable in Perfetto / `chrome://tracing`), and
//! 3. re-validates the trace-event file: valid JSON, every `B` matched by
//!    an `E`, timestamps monotone per track.
//!
//! `profile_report --diff <before.jsonl> <after.jsonl>` loads two profile
//! dumps and renders the per-scope delta table instead.

use dma_shadowing::netsim::{tcp_stream_rx_on, EngineKind, ExpConfig, SimStack, NIC_DEV};
use dma_shadowing::obs::json::Json;
use dma_shadowing::obs::profile::{
    chrome_trace, flamegraph, validate_chrome_trace, ProfileSnapshot,
};
use dma_shadowing::obs::sink::parse_jsonl;
use dma_shadowing::obs::Obs;
use dma_shadowing::simcore::{Breakdown, Phase};
use std::path::Path;
use std::process::ExitCode;

fn load_profile(path: &str) -> Result<ProfileSnapshot, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines = parse_jsonl(&doc).map_err(|e| format!("{path}: {e}"))?;
    ProfileSnapshot::from_json_lines(&lines).map_err(|e| format!("{path}: {e}"))
}

fn diff(before: &str, after: &str) -> ExitCode {
    let (a, b) = match (load_profile(before), load_profile(after)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("profile_report: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", a.render_diff(&b));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--diff") {
        let (Some(before), Some(after)) = (args.get(2), args.get(3)) else {
            eprintln!("usage: profile_report --diff <before.jsonl> <after.jsonl>");
            return ExitCode::from(2);
        };
        return diff(before, after);
    }

    // The Figure 1 receive workload, profiled for every engine.
    let obs = Obs::with_trace_capacity(1 << 16);
    obs.profiler().set_enabled(true);
    obs.profiler().set_span_log(true);
    let cfg = ExpConfig {
        cores: 2,
        msg_size: 64 * 1024,
        items_per_core: 400,
        warmup_per_core: 50,
        ..ExpConfig::default()
    };
    let mut merged = Breakdown::new();
    for kind in EngineKind::ALL {
        println!(
            "running tcp_stream_rx: {} ({} cores, {} B messages)...",
            kind.name(),
            cfg.cores,
            cfg.msg_size
        );
        let stack = SimStack::with_obs(kind, &cfg, obs.clone());
        let r = tcp_stream_rx_on(&stack, &cfg);
        println!("  {:>6.2} Gb/s at {:>4.1}% cpu", r.gbps, r.cpu * 100.0);
        merged += r.phases;
    }

    let prof = obs.profiler().snapshot();
    println!("\n{}", prof.render(cfg.cost.clock_ghz));

    // Acceptance: the tree's depth-1 cut IS the Figure 5 breakdown.
    let cut = prof.breakdown_cut(Some(NIC_DEV.0));
    for p in Phase::ALL {
        assert_eq!(
            cut.get(p),
            merged.get(p),
            "profile depth-1 cut disagrees with the runs' breakdown on '{}'",
            p.label()
        );
    }
    println!("profile depth-1 cut == runs' breakdown (all 8 phases)");

    // Artifacts.
    let target = Path::new("target");
    if let Err(e) = std::fs::create_dir_all(target) {
        eprintln!("profile_report: mkdir target: {e}");
        return ExitCode::from(2);
    }
    let tree_path = target.join("profile_fig1.jsonl");
    let tree_doc: String = prof
        .to_json_lines()
        .iter()
        .map(|l| l.encode() + "\n")
        .collect();
    let collapsed_path = target.join("profile_fig1.collapsed");
    let collapsed = flamegraph(&prof);
    let trace_path = target.join("profile_fig1.trace.json");
    let spans = obs.profiler().spans();
    let trace = chrome_trace(&spans, cfg.cost.clock_ghz);
    for (path, doc) in [
        (&tree_path, &tree_doc),
        (&collapsed_path, &collapsed),
        (&trace_path, &trace.encode()),
    ] {
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("profile_report: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    // Re-validate the trace-event file from its bytes, like a consumer.
    let reread = match std::fs::read_to_string(&trace_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("profile_report: reread {}: {e}", trace_path.display());
            return ExitCode::from(2);
        }
    };
    let doc = Json::parse(&reread).expect("trace-event file is valid JSON");
    let pairs = validate_chrome_trace(&doc).expect("B/E events match");

    // And the tree file round-trips losslessly.
    let lines = parse_jsonl(&tree_doc).expect("profile jsonl parses");
    let back = ProfileSnapshot::from_json_lines(&lines).expect("profile decodes");
    assert_eq!(
        back.breakdown_cut(Some(NIC_DEV.0)),
        cut,
        "profile JSONL round-trip preserves the tree"
    );

    println!("\nartifacts:");
    println!("  profile tree -> {}", tree_path.display());
    println!(
        "  flamegraph   -> {} ({} stacks)",
        collapsed_path.display(),
        collapsed.lines().count()
    );
    println!(
        "  chrome trace -> {} ({pairs} matched B/E pairs, {} spans dropped)",
        trace_path.display(),
        obs.profiler().span_dropped()
    );
    ExitCode::SUCCESS
}
