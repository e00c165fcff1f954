//! `perfbench-probe` — the compiled half of the hotnoc benchmark.
//!
//! ```text
//! perfbench-probe replay CAMPAIGN.json REPORT.json ARTIFACT.json
//! perfbench-probe expand CAMPAIGN.json
//! perfbench-probe serve-pass --socket PATH --script FILE --out FILE [--trace]
//! ```
//!
//! `replay` runs a campaign in-process through the crates' public functions
//! with a span around each call and writes the spans, exact counters and
//! the artifact it encoded. `expand` prints each job of a campaign as a
//! scenario spec, one per line. `serve-pass` drives a running daemon
//! through one request script and writes latencies, checks and (traced)
//! spans. `perfbench/run.py` turns these into metrics.

mod replay;
mod serve_client;
mod spans;

use hotnoc_scenario::json::Json;
use hotnoc_scenario::CampaignSpec;
use hotnoc_serve::Endpoint;
use std::path::PathBuf;
use std::process::ExitCode;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn campaign(path: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[&str]) -> Result<(), String> {
    match args {
        ["replay", spec, report, artifact] => {
            let replay = replay::replay_campaign(&campaign(spec)?)?;
            write(artifact, &replay.artifact)?;
            write(report, &replay.report().to_string())
        }
        ["expand", spec] => {
            for job in campaign(spec)?.expand() {
                println!("{}", job.to_json());
            }
            Ok(())
        }
        ["serve-pass", "--socket", socket, "--script", script, "--out", out, rest @ ..] => {
            let traced = match rest {
                [] => false,
                ["--trace"] => true,
                _ => return Err(format!("unexpected arguments {rest:?}")),
            };
            let doc = Json::parse(&read(script)?).map_err(|e| format!("{script}: {e}"))?;
            let script = serve_client::Script::from_json(&doc)?;
            let endpoint = Endpoint::Unix(PathBuf::from(socket));
            write(
                out,
                &serve_client::run_pass(&endpoint, &script, traced).to_string(),
            )
        }
        _ => Err(format!("usage: see the module docs (got {args:?})")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}
