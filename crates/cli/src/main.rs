//! `hotnoc` — the command-line front end of the scenario & campaign engine.
//!
//! ```text
//! hotnoc campaign run (--builtin NAME | --spec FILE) [--shard I/N] [options]
//! hotnoc campaign merge SHARD.json... [--out-dir DIR]
//! hotnoc campaign list
//! hotnoc campaign expand (--builtin NAME | --spec FILE) [--quick]
//! hotnoc campaign check FILE...
//! hotnoc campaign diff A.json B.json [options]
//! hotnoc scenario run --spec FILE [--trace FILE] [--profile FILE]
//! hotnoc trace summary FILE
//! hotnoc trace export --chrome FILE [--out FILE]
//! hotnoc serve (--socket PATH | --tcp ADDR:PORT) [options]
//! hotnoc serve --shutdown (--socket PATH | --tcp ADDR:PORT)
//! hotnoc submit SPEC.json (--socket PATH | --tcp ADDR:PORT) [--id ID]
//! ```
//!
//! The full contract (every flag, every exit code, artifact schemas) is
//! documented in `docs/CLI.md` and `docs/ARTIFACTS.md`.
//!
//! Exit codes: 0 = success (a partial `--max-jobs` run that stopped on
//! schedule is a success; a diff without `--fail-on-regression` is a
//! success whatever it finds). 1 = runtime failure (job failed, write
//! failed), a `check` cross-validation failure, or a gated `diff`
//! regression. 2 = usage error or bad input (unreadable file, not JSON,
//! missing/unknown `schema` tag, a scenario spec that fails validation —
//! e.g. a fault event naming a router outside the mesh); for `diff` and
//! `merge`, *any* unusable artifact — including one that fails
//! cross-validation, or an incomplete/duplicated/mismatched shard set —
//! is bad input (exit 2), mirroring `bench_regress`, so exit 1 from
//! `diff` always means "a regression was detected" and exit 1 from
//! `merge` always means "the merged artifacts could not be written".

use hotnoc_core::configs::Fidelity;
use hotnoc_scenario::builtin::{builtin, BUILTINS};
use hotnoc_scenario::exhibits::{latency_load_curves, render_latency_load};
use hotnoc_scenario::json::Json;
use hotnoc_scenario::runner::{
    campaign_json, run_campaign, summary_table, validate_campaign_json, CampaignDoc, RunnerOptions,
    CAMPAIGN_SCHEMA,
};
use hotnoc_scenario::shard::{merge_shards, Shard, SHARD_SCHEMA};
use hotnoc_scenario::stats::{aggregate, aggregate_json};
use hotnoc_scenario::tracefile::{profile_json, TraceDoc};
use hotnoc_scenario::{diff_campaigns, run_scenario_traced, CampaignSpec, ScenarioSpec};
use hotnoc_serve::Endpoint;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
hotnoc — scenario & campaign engine for the DATE'05 NoC reproduction

USAGE:
    hotnoc campaign run (--builtin NAME | --spec FILE)
                        [--shard I/N] [--out-dir DIR] [--threads N]
                        [--max-jobs N] [--fresh] [--quick] [--quiet]
                        [--trace-dir DIR]
    hotnoc campaign merge SHARD.json... [--out-dir DIR]
    hotnoc campaign list
    hotnoc campaign expand (--builtin NAME | --spec FILE) [--quick]
    hotnoc campaign check FILE...
    hotnoc campaign diff A.json B.json [--threshold-pct N]
                        [--fail-on-regression]
    hotnoc scenario run --spec FILE [--trace FILE] [--profile FILE]
    hotnoc trace summary FILE
    hotnoc trace export --chrome FILE [--out FILE]
    hotnoc serve (--socket PATH | --tcp ADDR:PORT) [--journal FILE]
                 [--trace FILE] [--threads N] [--spool DIR]
    hotnoc serve --shutdown (--socket PATH | --tcp ADDR:PORT)
    hotnoc submit SPEC.json (--socket PATH | --tcp ADDR:PORT) [--id ID]

OPTIONS:
    --builtin NAME   a built-in campaign (see `hotnoc campaign list`)
    --spec FILE      a JSON spec file (campaign or scenario)
    --shard I/N      run only stripe I of N (jobs with index ≡ I mod N);
                     emits a shard artifact for `campaign merge`
    --out-dir DIR    artifact directory (default .)
    --threads N      worker threads (default HOTNOC_THREADS / parallelism)
    --max-jobs N     stop after N new jobs (the campaign stays resumable)
    --fresh          ignore an existing manifest instead of resuming
    --quick          run built-ins at quick fidelity (seconds, not minutes);
                     spec files set their own \"fidelity\" instead
    --quiet          suppress per-job progress lines and the heartbeat
    --trace-dir DIR  write one hotnoc-trace-v1 event trace per job
                     (TRACE_<campaign>.job<index>.jsonl, byte-deterministic)
    --trace FILE     write the scenario's hotnoc-trace-v1 event trace
    --profile FILE   write a hotnoc-profile-v1 timing sidecar (wall-clock;
                     NOT deterministic — never diff it byte-for-byte)

TRACE SUBCOMMAND (consumes hotnoc-trace-v1 files):
    summary FILE           per-kind event counts and top congestion windows
    export --chrome FILE   convert to Chrome trace-event JSON (load in
                           Perfetto / chrome://tracing); --out FILE writes
                           to a file instead of stdout

SERVE / SUBMIT (the long-running submission daemon; see docs/SERVING.md):
    --socket PATH    listen on (connect to) a unix-domain socket
    --tcp ADDR:PORT  listen on (connect to) a TCP address instead
    --journal FILE   persist computed results (hotnoc-serve-journal-v1);
                     warm-loaded into the cache on the next start
    --trace FILE     [serve] write the hotnoc-trace-v1 serving trace
                     (cache-hit events) on shutdown
    --spool DIR      campaign working state (default hotnoc-serve-spool)
    --shutdown       ask a running daemon to drain gracefully and exit
    --id ID          [submit] request id echoed on every response line
                     (default: the spec's fingerprint)

DIFF OPTIONS (campaign B is compared against the A baseline):
    --threshold-pct N      regression threshold in percent (default 15):
                           the gate trips when the median worsening ratio
                           over aligned groups exceeds 1 + N/100
    --fail-on-regression   exit 1 when the gate trips (otherwise the
                           verdict is informational and the exit is 0)

The full contract lives in docs/CLI.md; artifact schemas in
docs/ARTIFACTS.md; the fleet runbook in docs/OPERATIONS.md.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["campaign", "run", rest @ ..] => campaign_run(rest),
        ["campaign", "merge", rest @ ..] => campaign_merge(rest),
        ["campaign", "list"] => campaign_list(),
        ["campaign", "expand", rest @ ..] => campaign_expand(rest),
        ["campaign", "check", rest @ ..] if !rest.is_empty() => campaign_check(rest),
        ["campaign", "diff", rest @ ..] => campaign_diff(rest),
        ["scenario", "run", rest @ ..] => scenario_run(rest),
        ["trace", "summary", rest @ ..] => trace_summary(rest),
        ["trace", "export", rest @ ..] => trace_export(rest),
        ["serve", rest @ ..] => serve_cmd(rest),
        ["submit", rest @ ..] => submit_cmd(rest),
        ["help"] | ["--help"] | ["-h"] => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => usage_error("unrecognized command"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("hotnoc: {msg}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// Flag parser shared by the subcommands: `--flag VALUE` options,
/// `--switch` booleans and positional arguments. An unknown flag, a flag
/// given twice, or a value flag without its value is a usage message.
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    fn parse(
        args: &[&'a str],
        value_flags: &[&str],
        switch_flags: &[&str],
    ) -> Result<Flags<'a>, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(&arg) = it.next() {
            if !arg.starts_with("--") {
                flags.positional.push(arg);
            } else if flags.get(arg).is_some() || flags.has(arg) {
                return Err(format!("{arg} given more than once"));
            } else if value_flags.contains(&arg) {
                let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.values.push((arg, v));
            } else if switch_flags.contains(&arg) {
                flags.switches.push(arg);
            } else {
                return Err(format!("unknown flag {arg:?}"));
            }
        }
        Ok(flags)
    }

    /// For subcommands that take no positional argument: a stray one is
    /// rejected like an unknown flag.
    fn without_positional(self) -> Result<Flags<'a>, String> {
        match self.positional.first() {
            Some(arg) => Err(format!("unknown flag {arg:?}")),
            None => Ok(self),
        }
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Loads the campaign named by `--builtin`/`--spec` (exactly one required).
fn load_campaign(flags: &Flags<'_>) -> Result<CampaignSpec, String> {
    let fidelity = if flags.has("--quick") {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    match (flags.get("--builtin"), flags.get("--spec")) {
        (Some(name), None) => builtin(name, fidelity)
            .ok_or_else(|| format!("unknown builtin {name:?} (see `hotnoc campaign list`)")),
        (None, Some(path)) => {
            if flags.has("--quick") {
                return Err(
                    "--quick only applies to --builtin campaigns; spec files set their own \
                     \"fidelity\""
                        .to_string(),
                );
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            CampaignSpec::parse(&text).map_err(|e| format!("{path}: {e}"))
        }
        _ => Err("exactly one of --builtin / --spec is required".to_string()),
    }
}

fn campaign_run(args: &[&str]) -> ExitCode {
    let flags = match Flags::parse(
        args,
        &[
            "--builtin",
            "--spec",
            "--shard",
            "--out-dir",
            "--threads",
            "--max-jobs",
            "--trace-dir",
        ],
        &["--fresh", "--quick", "--quiet"],
    )
    .and_then(Flags::without_positional)
    {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let spec = match load_campaign(&flags) {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    let shard = match flags.get("--shard").map(Shard::parse).transpose() {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    let parse_num = |flag: &str| -> Result<Option<usize>, String> {
        flags
            .get(flag)
            .map(|v| v.parse::<usize>().map_err(|e| format!("bad {flag}: {e}")))
            .transpose()
    };
    let (threads, max_jobs) = match (parse_num("--threads"), parse_num("--max-jobs")) {
        (Ok(t), Ok(m)) => (t, m),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    let opts = RunnerOptions {
        threads: threads.unwrap_or_else(minipool::configured_threads).max(1),
        out_dir: PathBuf::from(flags.get("--out-dir").unwrap_or(".")),
        max_jobs,
        fresh: flags.has("--fresh"),
        progress: !flags.has("--quiet"),
        trace_dir: flags.get("--trace-dir").map(PathBuf::from),
        shard,
    };
    let total = spec.expand().len();
    let (label, jobs) = match shard {
        Some(shard) => (
            format!("{} shard {shard}", spec.name),
            format!("{} of {total}", shard.stripe(total).len()),
        ),
        None => (spec.name.clone(), total.to_string()),
    };
    eprintln!(
        "campaign {label}: {jobs} jobs on {} thread(s), artifacts in {}",
        opts.threads,
        opts.out_dir.display()
    );
    match run_campaign(&spec, &opts) {
        Ok(run) => {
            print!("{}", summary_table(&run));
            if run.resumed_jobs > 0 {
                println!("resumed {} job(s) from the manifest", run.resumed_jobs);
            }
            if run.is_complete() && run.shard.is_none() {
                // The saturation-curve exhibit, when the campaign swept an
                // offered-load axis.
                if let Some(table) = render_latency_load(&latency_load_curves(&run.completed)) {
                    print!("\n{table}");
                }
            }
            for path in [&run.json_path, &run.aggregate_path].into_iter().flatten() {
                println!("[saved {}]", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hotnoc: campaign {label} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `campaign merge SHARD.json... [--out-dir DIR]`: validate the shard
/// set and reassemble the exact single-host campaign artifacts.
fn campaign_merge(args: &[&str]) -> ExitCode {
    let flags = match Flags::parse(args, &["--out-dir"], &[]) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let paths = &flags.positional;
    if paths.is_empty() {
        return usage_error("campaign merge needs at least one shard artifact");
    }
    let out_dir = PathBuf::from(flags.get("--out-dir").unwrap_or("."));
    // Any unusable input — unreadable, not a shard artifact, failed
    // cross-validation — is bad input (exit 2) naming the file, matching
    // the diff convention.
    let mut docs = Vec::with_capacity(paths.len());
    for path in paths {
        match load_artifact(path) {
            Ok(doc) if doc.shard.is_none() => {
                eprintln!(
                    "hotnoc: {path}: is a whole-campaign artifact ({CAMPAIGN_SCHEMA:?}), \
                     not a shard — nothing to merge"
                );
                return ExitCode::from(2);
            }
            Ok(doc) => docs.push(doc),
            Err(LoadFailure::BadInput(e) | LoadFailure::Invalid(e)) => {
                eprintln!("hotnoc: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let merged = match merge_shards(docs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("hotnoc: merge rejected: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("hotnoc: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "merged {} shard(s) of campaign {}: {} jobs",
        paths.len(),
        merged.spec.name,
        merged.records.len()
    );
    let json_path = out_dir.join(format!("CAMPAIGN_{}.json", merged.spec.name));
    let aggregate_path = out_dir.join(format!("CAMPAIGN_{}.aggregate.json", merged.spec.name));
    let groups = aggregate(&merged.records);
    for (path, text) in [
        (&json_path, campaign_json(&merged.spec, &merged.records)),
        (&aggregate_path, aggregate_json(&merged.spec, &groups)),
    ] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("hotnoc: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("[saved {}]", path.display());
    }
    ExitCode::SUCCESS
}

fn campaign_list() -> ExitCode {
    println!("built-in campaigns:");
    for (name, desc) in BUILTINS {
        println!("  {name:<18} {desc}");
    }
    println!("\nrun one with `hotnoc campaign run --builtin NAME [--quick]`");
    ExitCode::SUCCESS
}

fn campaign_expand(args: &[&str]) -> ExitCode {
    let flags = match Flags::parse(args, &["--builtin", "--spec"], &["--quick"])
        .and_then(Flags::without_positional)
    {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let spec = match load_campaign(&flags) {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    let jobs = spec.expand();
    println!(
        "campaign {} (fingerprint {}): {} jobs",
        spec.name,
        spec.fingerprint(),
        jobs.len()
    );
    for (i, job) in jobs.iter().enumerate() {
        println!("{i:>5}  {}", job.name);
    }
    ExitCode::SUCCESS
}

/// Why a campaign artifact failed to load: bad input (not a campaign
/// artifact at all — exit 2) vs a document that names a known schema but
/// fails cross-validation (exit 1 in `check`).
enum LoadFailure {
    BadInput(String),
    Invalid(String),
}

/// Loads and strictly validates a `CAMPAIGN_*.json` artifact — whole
/// campaign or shard — classifying failures. An unreadable file, non-JSON
/// content, or a missing/unknown `schema` field is *bad input*, not an
/// invalid artifact: those never were artifacts, and the subcommands
/// report them cleanly with exit 2 instead of treating them as failed
/// validations (or panicking).
fn load_artifact(path: &str) -> Result<CampaignDoc, LoadFailure> {
    let text =
        std::fs::read_to_string(path).map_err(|e| LoadFailure::BadInput(format!("{path}: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| LoadFailure::BadInput(format!("{path}: {e}")))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(CAMPAIGN_SCHEMA | SHARD_SCHEMA) => {
            validate_campaign_json(&doc).map_err(|e| LoadFailure::Invalid(format!("{path}: {e}")))
        }
        Some(other) => Err(LoadFailure::BadInput(format!(
            "{path}: unknown schema {other:?} (want {CAMPAIGN_SCHEMA:?} or {SHARD_SCHEMA:?})"
        ))),
        None => Err(LoadFailure::BadInput(format!(
            "{path}: missing \"schema\" field — not a campaign artifact"
        ))),
    }
}

fn campaign_check(paths: &[&str]) -> ExitCode {
    let mut invalid = false;
    let mut bad_input = false;
    for path in paths {
        match load_artifact(path) {
            Err(LoadFailure::BadInput(e)) => {
                eprintln!("{e}");
                bad_input = true;
            }
            Err(LoadFailure::Invalid(e)) => {
                eprintln!("{e}: INVALID");
                invalid = true;
            }
            Ok(doc) => match doc.shard {
                Some(shard) => println!(
                    "{path}: ok (shard {shard} of campaign {}, {} of {} jobs)",
                    doc.spec.name,
                    doc.records.len(),
                    doc.total_jobs
                ),
                None => println!(
                    "{path}: ok (campaign {}, {} jobs)",
                    doc.spec.name,
                    doc.records.len()
                ),
            },
        }
    }
    if bad_input {
        ExitCode::from(2)
    } else if invalid {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn campaign_diff(args: &[&str]) -> ExitCode {
    let flags = match Flags::parse(args, &["--threshold-pct"], &["--fail-on-regression"]) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let threshold_pct = match flags.get("--threshold-pct").map(str::parse::<f64>) {
        None => 15.0,
        Some(Ok(p)) if p.is_finite() && p >= 0.0 => p,
        Some(_) => return usage_error("--threshold-pct must be a non-negative number"),
    };
    let [path_a, path_b] = flags.positional[..] else {
        return usage_error("campaign diff needs exactly two artifact files");
    };
    let load = |path: &str| match load_artifact(path) {
        Ok(doc) => match doc.shard {
            None => Ok(doc),
            Some(shard) => {
                eprintln!(
                    "hotnoc: {path}: is shard {shard} of campaign {} — merge the shard set \
                     first (`hotnoc campaign merge`), then diff the merged artifact",
                    doc.spec.name
                );
                Err(())
            }
        },
        Err(LoadFailure::BadInput(e) | LoadFailure::Invalid(e)) => {
            eprintln!("hotnoc: {e}");
            Err(())
        }
    };
    let (Ok(a), Ok(b)) = (load(path_a), load(path_b)) else {
        return ExitCode::from(2);
    };
    let report = diff_campaigns(&a, &b, threshold_pct);
    print!("{}", report.render());
    if report.groups.is_empty() {
        eprintln!("hotnoc: the campaigns share no comparable groups");
        return ExitCode::from(2);
    }
    if flags.has("--fail-on-regression") && report.regressed() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn scenario_run(args: &[&str]) -> ExitCode {
    let flags = match Flags::parse(args, &["--spec", "--trace", "--profile"], &[])
        .and_then(Flags::without_positional)
    {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let Some(path) = flags.get("--spec") else {
        return usage_error("scenario run needs --spec FILE");
    };
    // An unreadable or invalid spec is bad input (exit 2), not a runtime
    // failure: nothing was simulated yet.
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hotnoc: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match ScenarioSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hotnoc: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_path = flags.get("--trace");
    let profile_path = flags.get("--profile");
    if profile_path.is_some() {
        // The timing sidecar is opt-in: with no flag the scope timers
        // stay a single relaxed load and record nothing.
        hotnoc_obs::prof::set_enabled(true);
    }
    let result = if trace_path.is_some() {
        run_scenario_traced(&spec).map(|(outcome, events)| (outcome, Some(events)))
    } else {
        hotnoc_scenario::run_scenario(&spec).map(|outcome| (outcome, None))
    };
    match result {
        Ok((outcome, events)) => {
            if let (Some(path), Some(events)) = (trace_path, events) {
                let doc = TraceDoc::new(&spec.name, events);
                if let Err(e) = std::fs::write(path, doc.to_jsonl()) {
                    eprintln!("hotnoc: {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[saved {path}]");
            }
            if let Some(path) = profile_path {
                let report = hotnoc_obs::prof::take_report();
                if let Err(e) = std::fs::write(path, profile_json(&report)) {
                    eprintln!("hotnoc: {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[saved {path}] (wall-clock sidecar; not deterministic)");
            }
            println!("{}", outcome.to_json());
            eprintln!("{}: {}", spec.name, outcome.summary());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hotnoc: scenario {} failed: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

/// Loads a `hotnoc-trace-v1` JSONL file; any unreadable or malformed
/// trace is bad input (exit 2), matching the artifact-loading convention.
fn load_trace(path: &str) -> Result<TraceDoc, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hotnoc: {path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    TraceDoc::parse(&text).map_err(|e| {
        eprintln!("hotnoc: {path}: {e}");
        ExitCode::from(2)
    })
}

fn trace_summary(args: &[&str]) -> ExitCode {
    let [path] = args else {
        return usage_error("trace summary needs exactly one FILE");
    };
    match load_trace(path) {
        Ok(doc) => {
            print!("{}", doc.summary(5));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn trace_export(args: &[&str]) -> ExitCode {
    let flags = match Flags::parse(args, &["--out"], &["--chrome"]) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    if flags.positional.len() > 1 {
        return usage_error("trace export takes exactly one FILE");
    }
    if !flags.has("--chrome") {
        return usage_error("trace export needs --chrome (the only export format)");
    }
    let Some(&path) = flags.positional.first() else {
        return usage_error("trace export needs a FILE");
    };
    let doc = match load_trace(path) {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    let json = doc.chrome_trace_json();
    match flags.get("--out") {
        Some(out_path) => {
            if let Err(e) = std::fs::write(out_path, &json) {
                eprintln!("hotnoc: {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[saved {out_path}]");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

/// Resolves the daemon endpoint from `--socket` / `--tcp`.
fn endpoint_of(socket: Option<&str>, tcp: Option<&str>) -> Result<Endpoint, String> {
    match (socket, tcp) {
        (Some(path), None) => Ok(Endpoint::Unix(PathBuf::from(path))),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr.to_string())),
        _ => Err("exactly one of --socket / --tcp is required".to_string()),
    }
}

fn serve_cmd(args: &[&str]) -> ExitCode {
    let flags = match Flags::parse(
        args,
        &[
            "--socket",
            "--tcp",
            "--journal",
            "--trace",
            "--threads",
            "--spool",
        ],
        &["--shutdown"],
    )
    .and_then(Flags::without_positional)
    {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let endpoint = match endpoint_of(flags.get("--socket"), flags.get("--tcp")) {
        Ok(e) => e,
        Err(e) => return usage_error(&e),
    };
    if flags.has("--shutdown") {
        // The graceful-drain path: ask the daemon to finish in-flight work
        // and exit. A daemon that isn't there is a runtime failure (1).
        return match hotnoc_serve::shutdown(&endpoint) {
            Ok(ack) => {
                println!("{ack}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("hotnoc: {endpoint}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let threads = match flags.get("--threads").map(str::parse::<usize>).transpose() {
        Ok(t) => t.unwrap_or_else(minipool::configured_threads).max(1),
        Err(e) => return usage_error(&format!("bad --threads: {e}")),
    };
    let opts = hotnoc_serve::ServeOptions {
        endpoint,
        threads,
        journal: flags.get("--journal").map(PathBuf::from),
        trace: flags.get("--trace").map(PathBuf::from),
        spool: PathBuf::from(flags.get("--spool").unwrap_or("hotnoc-serve-spool")),
    };
    match hotnoc_serve::serve(&opts) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hotnoc: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn submit_cmd(args: &[&str]) -> ExitCode {
    let flags = match Flags::parse(args, &["--socket", "--tcp", "--id"], &[]) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    if flags.positional.len() > 1 {
        return usage_error("submit takes exactly one SPEC.json");
    }
    let endpoint = match endpoint_of(flags.get("--socket"), flags.get("--tcp")) {
        Ok(e) => e,
        Err(e) => return usage_error(&e),
    };
    let Some(&path) = flags.positional.first() else {
        return usage_error("submit needs a SPEC.json file");
    };
    // An unreadable or invalid spec is bad input (exit 2) — nothing
    // reached the daemon yet.
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hotnoc: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("hotnoc: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    // Validate locally and derive the default request id (the spec's
    // fingerprint, so repeat submissions of the same file produce
    // byte-identical responses), classifying exactly as the daemon does:
    // a "schema" field marks a campaign.
    let fingerprint = if spec.get("schema").is_some() {
        CampaignSpec::from_json(&spec).map(|c| c.fingerprint())
    } else {
        ScenarioSpec::from_json(&spec).map(|s| s.fingerprint())
    };
    let fingerprint = match fingerprint {
        Ok(f) => f,
        Err(e) => {
            eprintln!("hotnoc: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let line = hotnoc_serve::submit_line(flags.get("--id").unwrap_or(&fingerprint), &spec);
    match hotnoc_serve::request(&endpoint, &line) {
        Ok(lines) => {
            for l in &lines {
                println!("{l}");
            }
            let status = hotnoc_serve::response_status(&lines);
            ExitCode::from(u8::try_from(status).unwrap_or(1))
        }
        Err(e) => {
            eprintln!("hotnoc: {endpoint}: {e}");
            ExitCode::FAILURE
        }
    }
}
