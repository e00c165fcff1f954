//! The campaign runner: executes an expanded job list in parallel on
//! `minipool`, journals every completed job to an on-disk manifest, resumes
//! a killed campaign from that manifest without recomputing, and emits the
//! machine-readable `CAMPAIGN_<name>.json` artifact plus a human summary
//! table.
//!
//! A shard ([`RunnerOptions::shard`]) is the same run over a smaller work
//! list: it owns one modulo stripe of the expansion, journals to
//! `CAMPAIGN_<name>.shard-i-of-n.manifest.jsonl` and, once its stripe is
//! complete, writes the `hotnoc-campaign-shard-v1` artifact instead of the
//! campaign and aggregate artifacts. [`crate::shard::merge_shards`]
//! reassembles a complete shard set into the whole campaign.
//!
//! # Determinism
//!
//! Jobs are independent and each is internally deterministic (see
//! [`crate::run`]); co-simulation jobs of one chip run in lockstep groups
//! whose every job has the bytes it has alone. Workers pull work units
//! from a shared counter, so *completion* order varies with the thread
//! count, but results are stored by job index and the artifact is
//! serialized in index order — the emitted `CAMPAIGN_<name>.json` is
//! byte-identical at any `--threads`, and a
//! resumed campaign (outcomes read back from the manifest) produces the
//! same bytes as an uninterrupted one.
//!
//! # Manifest format (`CAMPAIGN_<name>.manifest.jsonl`)
//!
//! Line 1 is a header binding the journal to one campaign fingerprint;
//! every further line is one completed job. Recovery is
//! [`crate::journal`]'s: a torn trailing line (killed mid-write) is
//! truncated on resume, and a header that does not match the campaign
//! being run restarts the journal from scratch.
//!
//! ```text
//! {"schema": "hotnoc-campaign-manifest-v1", "name": ..., "fingerprint": ..., "jobs": N}
//! {"job": 3, "scenario": "A/w0:ldpc/rotation/p8/s0", "outcome": {...}}
//! ```
//!
//! A shard's header adds `"shard": {"index": i, "count": n}`, so a
//! whole-run journal never satisfies a shard resume (or vice versa).

use crate::campaign::CampaignSpec;
use crate::error::ScenarioError;
use crate::journal::{self, ResumeError};
use crate::json::Json;
use crate::outcome::ScenarioOutcome;
use crate::run::{lane_key, run_jobs};
use crate::shard::{Shard, SHARD_SCHEMA};
use crate::spec::ScenarioSpec;
use crate::stats::{aggregate, aggregate_json, headline_metric};
use crate::tracefile::TraceDoc;
use hotnoc_core::cosim::LANES;
use hotnoc_obs::TraceEvent;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema tag of the `CAMPAIGN_<name>.json` artifact.
pub const CAMPAIGN_SCHEMA: &str = "hotnoc-campaign-v1";

/// Schema tag of the manifest journal header.
pub const MANIFEST_SCHEMA: &str = "hotnoc-campaign-manifest-v1";

/// How the runner executes a campaign.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads (>= 1). Defaults to `HOTNOC_THREADS` / available
    /// parallelism via [`minipool::configured_threads`].
    pub threads: usize,
    /// Directory receiving the manifest and the campaign artifact.
    pub out_dir: PathBuf,
    /// Cap on how many *new* jobs this invocation executes; `None` runs to
    /// completion. Used to exercise (and test) interrupt/resume.
    pub max_jobs: Option<usize>,
    /// Discard any existing manifest instead of resuming from it.
    pub fresh: bool,
    /// Print one progress line per completed job to stderr.
    pub progress: bool,
    /// Write each job's deterministic `hotnoc-trace-v1` event trace to
    /// `TRACE_<campaign>.job<index>.jsonl` in this directory.
    pub trace_dir: Option<PathBuf>,
    /// Run only this stripe of the expansion (`--shard i/n`); `None` runs
    /// the whole campaign.
    pub shard: Option<Shard>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            threads: minipool::configured_threads(),
            out_dir: PathBuf::from("."),
            max_jobs: None,
            fresh: false,
            progress: false,
            trace_dir: None,
            shard: None,
        }
    }
}

/// Heartbeat cadence: a progress/ETA line every this many completed jobs…
const HEARTBEAT_JOBS: usize = 25;

/// …or whenever this much wall time has passed since the last one.
const HEARTBEAT_SECS: u64 = 10;

/// One completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Index in the expanded job list.
    pub index: usize,
    /// The job's scenario.
    pub spec: ScenarioSpec,
    /// Its result.
    pub outcome: ScenarioOutcome,
}

/// The state of a campaign (or shard) after one `run_campaign` invocation.
#[derive(Debug)]
pub struct CampaignRun {
    /// The campaign that ran.
    pub spec: CampaignSpec,
    /// The stripe that ran ([`RunnerOptions::shard`]); `None` for a whole
    /// run.
    pub shard: Option<Shard>,
    /// Completed jobs in index order (every owned job when the run is
    /// complete).
    pub completed: Vec<JobRecord>,
    /// Total jobs in the whole campaign expansion.
    pub total_jobs: usize,
    /// Jobs recovered from the manifest instead of recomputed.
    pub resumed_jobs: usize,
    /// Jobs executed by this invocation.
    pub executed_jobs: usize,
    /// Path of the manifest journal.
    pub manifest_path: PathBuf,
    /// Path of the emitted `CAMPAIGN_<name>.json` (a shard's
    /// `CAMPAIGN_<name>.shard-i-of-n.json`); `None` while the run is still
    /// partial.
    pub json_path: Option<PathBuf>,
    /// Path of the emitted `CAMPAIGN_<name>.aggregate.json` (seed-axis
    /// statistics, `hotnoc-campaign-aggregate-v1`); `None` while the
    /// campaign is still partial, and always for a shard.
    pub aggregate_path: Option<PathBuf>,
    /// Seed-axis group aggregates over `completed`, in first-appearance
    /// order (computed once; the summary table and the aggregate artifact
    /// both read from here). Empty for a shard.
    pub groups: Vec<crate::stats::GroupAggregate>,
}

impl CampaignRun {
    /// Jobs this run owns: the whole expansion, or the shard's stripe.
    pub fn owned_jobs(&self) -> usize {
        self.shard
            .map_or(self.total_jobs, |s| s.stripe(self.total_jobs).len())
    }

    /// `true` once every owned job has a journaled outcome.
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.owned_jobs()
    }
}

/// Runs (or resumes) a campaign, or the stripe of it named by
/// [`RunnerOptions::shard`].
///
/// # Errors
///
/// Propagates spec validation failures, filesystem trouble and the first
/// failing job (already-journaled sibling results survive for the next
/// attempt).
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &RunnerOptions,
) -> Result<CampaignRun, ScenarioError> {
    run_campaign_on(spec, opts, &minipool::ThreadPool::new())
}

/// [`run_campaign`] on a caller-owned pool. A resident process (the serve
/// daemon) keeps one warm pool across submissions instead of spinning up
/// threads per campaign; `opts.threads` still bounds how many workers this
/// run asks the pool to provide. Artifact bytes are identical either way.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_on(
    spec: &CampaignSpec,
    opts: &RunnerOptions,
    pool: &minipool::ThreadPool,
) -> Result<CampaignRun, ScenarioError> {
    spec.validate().map_err(ScenarioError::Spec)?;
    let jobs = spec.expand();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| ScenarioError::io(&opts.out_dir, e))?;
    let stem = match opts.shard {
        Some(shard) => format!("CAMPAIGN_{}.{}", spec.name, shard.file_tag()),
        None => format!("CAMPAIGN_{}", spec.name),
    };
    let path = |suffix: &str| opts.out_dir.join(format!("{stem}{suffix}"));
    let json_path = path(".json");
    // A shard's statistics come from the merged whole, never from a stripe.
    let aggregate_path = opts.shard.is_none().then(|| path(".aggregate.json"));

    // Any pre-existing artifact is unproven from here on: the spec may have
    // changed under the same name, and this run may stop partway. Remove it
    // now and re-emit on completion, so artifact presence reliably signals
    // "this campaign, complete".
    for stale in std::iter::once(&json_path).chain(&aggregate_path) {
        remove_stale(stale)?;
    }

    let mut header = vec![
        ("schema", Json::str(MANIFEST_SCHEMA)),
        ("name", Json::Str(spec.name.clone())),
        ("fingerprint", Json::Str(spec.fingerprint())),
        ("jobs", Json::int(jobs.len() as u64)),
    ];
    header.extend(opts.shard.map(|s| ("shard", s.to_json())));
    let slice = JournalSlice {
        jobs: &jobs,
        work: owned_indices(opts.shard, jobs.len()),
        manifest_path: path(".manifest.jsonl"),
        header: Json::object(header),
    };
    let sliced = execute_journaled_on(&slice, opts, pool)?;

    let completed: Vec<JobRecord> = sliced
        .outcomes
        .into_iter()
        .map(|(index, outcome)| JobRecord {
            index,
            spec: jobs[index].clone(),
            outcome,
        })
        .collect();

    let groups = match opts.shard {
        Some(_) => Vec::new(),
        None => aggregate(&completed),
    };
    let mut run = CampaignRun {
        spec: spec.clone(),
        shard: opts.shard,
        completed,
        total_jobs: jobs.len(),
        resumed_jobs: sliced.resumed_jobs,
        executed_jobs: sliced.executed_jobs,
        manifest_path: slice.manifest_path,
        json_path: None,
        aggregate_path: None,
        groups,
    };
    if run.is_complete() {
        let text = document_json(spec, run.shard, run.total_jobs, &run.completed);
        std::fs::write(&json_path, text).map_err(|e| ScenarioError::io(&json_path, e))?;
        run.json_path = Some(json_path);
        if let Some(path) = aggregate_path {
            std::fs::write(&path, aggregate_json(spec, &run.groups))
                .map_err(|e| ScenarioError::io(&path, e))?;
            run.aggregate_path = Some(path);
        }
    }
    Ok(run)
}

/// The job indices a run owns out of a `total`-job expansion, ascending:
/// the shard's stripe, or every job.
fn owned_indices(shard: Option<Shard>, total: usize) -> Vec<usize> {
    match shard {
        Some(shard) => shard.stripe(total),
        None => (0..total).collect(),
    }
}

/// Removes a possibly-present stale artifact.
fn remove_stale(path: &Path) -> Result<(), ScenarioError> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(ScenarioError::io(path, e)),
    }
}

/// One journaled execution slice: the subset of a campaign's expanded job
/// list that an invocation owns (every job, or a shard's stripe), the
/// journal it persists to, and the exact header line binding that journal
/// to this (campaign, slice) pair.
struct JournalSlice<'a> {
    /// The campaign's full expanded job list; `work` indices refer into it.
    jobs: &'a [ScenarioSpec],
    /// The job indices this run owns ([`owned_indices`]).
    work: Vec<usize>,
    /// Path of the journal.
    manifest_path: PathBuf,
    /// The journal's header line. A resume recovers outcomes only from a
    /// journal whose first line parses back to exactly this value, so any
    /// drift — an edited spec (fingerprint), a different job count,
    /// different shard coordinates — restarts the journal instead of
    /// mixing results.
    header: Json,
}

/// What [`execute_journaled_on`] produced for its slice.
struct SliceOutcome {
    /// Completed outcomes by job index (journaled + freshly computed).
    outcomes: BTreeMap<usize, ScenarioOutcome>,
    /// Jobs recovered from the manifest instead of recomputed.
    resumed_jobs: usize,
    /// Jobs executed by this invocation.
    executed_jobs: usize,
}

/// Runs (or resumes) one journaled slice of a campaign on `pool`: recovers
/// already-journaled outcomes from a matching manifest, executes the
/// remaining work in parallel, and journals every completed job
/// immediately (kill-safe).
fn execute_journaled_on(
    slice: &JournalSlice<'_>,
    opts: &RunnerOptions,
    pool: &minipool::ThreadPool,
) -> Result<SliceOutcome, ScenarioError> {
    let jobs = slice.jobs;
    let manifest_path = &slice.manifest_path;
    let io = |e| ScenarioError::io(manifest_path, e);

    // Append to a manifest whose header matches exactly; start a fresh one
    // otherwise (edited spec or other slice, no manifest yet). A fresh run
    // treats any manifest as absent.
    let resumed = if opts.fresh {
        Err(ResumeError::Empty)
    } else {
        journal::resume(manifest_path, &slice.header)
    };
    let (manifest, mut done) = match resumed {
        Ok((manifest, records)) => (
            manifest,
            records
                .iter()
                .filter_map(|r| recovered_job(slice, r))
                .collect(),
        ),
        Err(ResumeError::Empty | ResumeError::HeaderMismatch) => (
            journal::create(manifest_path, &slice.header).map_err(io)?,
            BTreeMap::new(),
        ),
        Err(ResumeError::Io(e)) => return Err(io(e)),
    };
    let resumed_jobs = done.len();

    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| ScenarioError::io(dir, e))?;
    }

    // The work list: every owned job without a journaled outcome,
    // optionally truncated to simulate an interrupt.
    let mut pending: Vec<usize> = slice
        .work
        .iter()
        .copied()
        .filter(|i| !done.contains_key(i))
        .collect();
    if let Some(cap) = opts.max_jobs {
        pending.truncate(cap);
    }
    let executed_jobs = pending.len();
    let units = work_units(jobs, &pending);

    // Parallel execution: workers pull work units from a shared counter and
    // journal each completed job immediately (kill-safe), storing results
    // by job index for deterministic assembly.
    let results: Mutex<Vec<Option<Result<ScenarioOutcome, String>>>> =
        Mutex::new(vec![None; jobs.len()]);
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(done.len());
    let started = Instant::now();
    let last_beat = Mutex::new(started);
    let threads = opts.threads.clamp(1, minipool::MAX_WORKERS);
    pool.ensure_workers(threads.saturating_sub(1));
    pool.scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(slot) else {
                    return;
                };
                if opts.progress {
                    // Time-based check at the poll point: one long job past
                    // the cadence must not silence the heartbeat just
                    // because nothing *completed*.
                    heartbeat(
                        &started,
                        &last_beat,
                        finished.load(Ordering::Relaxed),
                        slice.work.len(),
                        resumed_jobs,
                        false,
                    );
                }
                for (&index, result) in unit.iter().zip(run_unit(unit, slice, opts)) {
                    let job = &jobs[index];
                    let outcome = match result {
                        Ok(outcome) => outcome,
                        Err(cause) => {
                            results.lock().expect("results lock")[index] = Some(Err(cause));
                            continue;
                        }
                    };
                    let line = Json::object(vec![
                        ("job", Json::int(index as u64)),
                        ("scenario", Json::Str(job.name.clone())),
                        ("outcome", outcome.to_json()),
                    ]);
                    // Journal failures are reported as job failures below
                    // rather than killing the worker.
                    if let Err(e) = manifest.append(&line) {
                        results.lock().expect("results lock")[index] =
                            Some(Err(format!("manifest write failed: {e}")));
                        continue;
                    }
                    let n = finished.fetch_add(1, Ordering::Relaxed) + 1;
                    if opts.progress {
                        eprintln!(
                            "[{n}/{}] {}: {}",
                            slice.work.len(),
                            job.name,
                            outcome.summary()
                        );
                        heartbeat(
                            &started,
                            &last_beat,
                            n,
                            slice.work.len(),
                            resumed_jobs,
                            true,
                        );
                    }
                    results.lock().expect("results lock")[index] = Some(Ok(outcome));
                }
            });
        }
    });

    // Merge journaled and freshly computed outcomes; the first failure (by
    // job index) aborts, but everything journaled stays resumable.
    let results = results.into_inner().expect("results lock");
    for (index, slot) in results.into_iter().enumerate() {
        match slot {
            None => {}
            Some(Ok(outcome)) => {
                done.insert(index, outcome);
            }
            Some(Err(cause)) => {
                return Err(ScenarioError::Job {
                    index,
                    name: jobs[index].name.clone(),
                    cause,
                });
            }
        }
    }

    Ok(SliceOutcome {
        outcomes: done,
        resumed_jobs,
        executed_jobs,
    })
}

/// Orders the pending jobs into work units. Co-simulation jobs that share
/// a [`lane_key`] (chip, fidelity, step and frame count) form groups of up
/// to [`LANES`], in index order; every other job is a unit of its own. The
/// units are dealt round-robin across keys in first-appearance order, so
/// concurrent workers start on different chips instead of waiting on one
/// calibration. A campaign without co-simulation jobs keeps index order.
fn work_units(jobs: &[ScenarioSpec], pending: &[usize]) -> Vec<Vec<usize>> {
    let mut keyed: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut slot_of: HashMap<String, usize> = HashMap::new();
    for &index in pending {
        let Some(key) = lane_key(&jobs[index]) else {
            keyed.push(vec![vec![index]]);
            continue;
        };
        let slot = *slot_of.entry(key).or_insert_with(|| {
            keyed.push(Vec::new());
            keyed.len() - 1
        });
        match keyed[slot].last_mut() {
            Some(group) if group.len() < LANES => group.push(index),
            _ => keyed[slot].push(vec![index]),
        }
    }
    let rounds = keyed.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|round| {
            keyed
                .iter()
                .filter_map(move |units| units.get(round).cloned())
        })
        .collect()
}

/// Executes one work unit ([`work_units`]) through [`run_jobs`] and returns
/// each job's result in the unit's order, writing each traced job's trace
/// ([`write_trace`]).
fn run_unit(
    unit: &[usize],
    slice: &JournalSlice<'_>,
    opts: &RunnerOptions,
) -> Vec<Result<ScenarioOutcome, String>> {
    let traced = opts.trace_dir.is_some();
    let members: Vec<_> = (unit.iter())
        .map(|&i| (&slice.jobs[i], traced.then_some(i as u64)))
        .collect();
    (run_jobs(&members).into_iter().zip(unit))
        .map(|(result, &index)| {
            let (outcome, events) = result.map_err(|e| e.to_string())?;
            write_trace(index, events, slice, opts)?;
            Ok(outcome)
        })
        .collect()
}

/// Writes job `index`'s trace to `TRACE_<campaign>.job<index>.jsonl` in
/// the trace directory. The trace lands on disk *before* the job is
/// journaled, so a journaled (resumable) job always has its trace; a kill
/// in between re-runs the job and rewrites the identical bytes.
fn write_trace(
    index: usize,
    mut events: Vec<TraceEvent>,
    slice: &JournalSlice<'_>,
    opts: &RunnerOptions,
) -> Result<(), String> {
    let Some(dir) = &opts.trace_dir else {
        return Ok(());
    };
    if let Some(shard) = opts.shard {
        // Keyed by stripe position, not completion order, so sharded
        // traces stay byte-deterministic at any thread count.
        let position = slice.work.binary_search(&index).unwrap_or(0) as u64;
        events.insert(
            1,
            TraceEvent::ShardProgress {
                cycle: 0,
                shard: shard.index as u64,
                shard_count: shard.count as u64,
                position,
                stripe_len: slice.work.len() as u64,
            },
        );
    }
    let campaign = slice
        .header
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("campaign");
    let path = dir.join(format!("TRACE_{campaign}.job{index}.jsonl"));
    std::fs::write(
        &path,
        TraceDoc::new(&slice.jobs[index].name, events).to_jsonl(),
    )
    .map_err(|e| format!("trace write failed: {e}"))
}

/// Emits the periodic progress/ETA heartbeat to stderr: due
/// [`HEARTBEAT_SECS`] of wall time after the last beat and, at a job's
/// `completion`, every [`HEARTBEAT_JOBS`] completions; never once the slice
/// is finished (the final job has its own line). Wall-clock only — artifact
/// bytes are untouched.
fn heartbeat(
    started: &Instant,
    last_beat: &Mutex<Instant>,
    done: usize,
    total: usize,
    resumed: usize,
    completion: bool,
) {
    let mut last = last_beat.lock().unwrap_or_else(|p| p.into_inner());
    let due = (completion && done.is_multiple_of(HEARTBEAT_JOBS))
        || last.elapsed() >= Duration::from_secs(HEARTBEAT_SECS);
    if !due || done >= total {
        return;
    }
    *last = Instant::now();
    drop(last);
    let fresh = done.saturating_sub(resumed);
    let elapsed = started.elapsed().as_secs_f64();
    let eta = eta_text(fresh, elapsed, total - done);
    eprintln!("progress: {done}/{total} jobs, elapsed {elapsed:.0}s, eta {eta}");
}

/// Renders the heartbeat's ETA column. Until at least one *fresh* job has
/// finished — an all-resumed run, or a poll-point beat before the first
/// completion — there is no rate to extrapolate from and the placeholder is
/// printed (never a division by zero).
fn eta_text(fresh: usize, elapsed_secs: f64, remaining: usize) -> String {
    if fresh == 0 {
        return "?".to_string();
    }
    format!("{:.0}s", elapsed_secs / fresh as f64 * remaining as f64)
}

/// Verifies one recovered manifest record: its job must be owned by the
/// slice, carry the expanded job's scenario name, and hold a canonical
/// outcome. Anything else — tampering, a stray file, a lossy record from
/// an older binary — is recomputed rather than trusted.
fn recovered_job(slice: &JournalSlice<'_>, record: &Json) -> Option<(usize, ScenarioOutcome)> {
    let index = record.get("job")?.as_u64()? as usize;
    // `work` is strictly ascending, so membership is a binary search.
    slice.work.binary_search(&index).ok()?;
    if record.get("scenario")?.as_str()? != slice.jobs[index].name {
        return None;
    }
    let outcome = ScenarioOutcome::from_journal(record.get("outcome")?).ok()?;
    Some((index, outcome))
}

/// Serializes a completed campaign to the `hotnoc-campaign-v1` document.
/// Records embed both the scenario spec and the outcome, so the artifact is
/// self-describing and reproducible.
pub fn campaign_json(spec: &CampaignSpec, records: &[JobRecord]) -> String {
    document_json(spec, None, records.len(), records)
}

/// The one artifact writer: [`campaign_json`] for a whole run, or the
/// `hotnoc-campaign-shard-v1` document of a completed stripe, which adds
/// only its `shard` coordinates and the campaign's `total_jobs`. Records
/// carry global job indices in both, so a merge is pure reassembly.
fn document_json(
    spec: &CampaignSpec,
    shard: Option<Shard>,
    total_jobs: usize,
    records: &[JobRecord],
) -> String {
    let schema = if shard.is_some() {
        SHARD_SCHEMA
    } else {
        CAMPAIGN_SCHEMA
    };
    let mut fields = vec![
        ("schema", Json::str(schema)),
        ("name", Json::Str(spec.name.clone())),
        ("seed", Json::int(spec.seed)),
        ("fingerprint", Json::Str(spec.fingerprint())),
    ];
    fields.extend(shard.map(|s| ("shard", s.to_json())));
    fields.push(("spec", spec.to_json()));
    if shard.is_some() {
        fields.push(("total_jobs", Json::int(total_jobs as u64)));
    }
    fields.push(("jobs", Json::int(records.len() as u64)));
    let results = records
        .iter()
        .map(|r| {
            Json::object(vec![
                ("job", Json::int(r.index as u64)),
                ("scenario", Json::Str(r.spec.name.clone())),
                ("spec", r.spec.to_json()),
                ("outcome", r.outcome.to_json()),
            ])
        })
        .collect();
    fields.push(("results", Json::Array(results)));
    let mut text = Json::object(fields).to_string();
    text.push('\n');
    text
}

/// A parsed-and-validated campaign artifact: a whole campaign, or one
/// shard of it.
#[derive(Debug)]
pub struct CampaignDoc {
    /// The embedded campaign spec.
    pub spec: CampaignSpec,
    /// The stripe a shard artifact covers; `None` for a whole campaign.
    pub shard: Option<Shard>,
    /// Jobs in the whole campaign expansion.
    pub total_jobs: usize,
    /// The recorded jobs in index order: all of them, or the shard's
    /// stripe.
    pub records: Vec<JobRecord>,
}

/// Strictly parses and cross-validates a campaign or shard artifact:
/// schema tag, fingerprint consistency with the embedded spec, job count
/// and order (a shard's results must cover its stripe exactly), and that
/// every record's scenario matches what the spec expands to.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn parse_campaign_document(text: &str) -> Result<CampaignDoc, String> {
    validate_campaign_json(&Json::parse(text)?)
}

/// [`parse_campaign_document`] over an already-parsed document (callers
/// that sniffed the JSON first — like the CLI's input classification —
/// avoid a second parse).
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_campaign_json(j: &Json) -> Result<CampaignDoc, String> {
    let schema = j.req_str("schema")?;
    if schema != CAMPAIGN_SCHEMA && schema != SHARD_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?} (want {CAMPAIGN_SCHEMA:?} or {SHARD_SCHEMA:?})"
        ));
    }
    let spec = CampaignSpec::from_json(j.req("spec")?)?;
    if j.req_str("name")? != spec.name {
        return Err("top-level name differs from the embedded spec".into());
    }
    if j.req_u64("seed")? != spec.seed {
        return Err("top-level seed differs from the embedded spec".into());
    }
    if j.req_str("fingerprint")? != spec.fingerprint() {
        return Err("fingerprint does not match the embedded spec".into());
    }
    let jobs = spec.expand();
    let shard = match schema {
        SHARD_SCHEMA => Some(Shard::from_json(j.req("shard")?)?),
        _ => None,
    };
    if shard.is_some() && j.req_u64("total_jobs")? as usize != jobs.len() {
        return Err(format!(
            "total_jobs field says {} but the campaign expands to {} jobs",
            j.req_u64("total_jobs")?,
            jobs.len()
        ));
    }
    let work = owned_indices(shard, jobs.len());
    let declared = j.req_u64("jobs")? as usize;
    let results = j.req_array("results")?;
    if declared != results.len() {
        return Err(format!(
            "jobs field says {declared} but results has {} entries",
            results.len()
        ));
    }
    if results.len() != work.len() {
        return Err(match shard {
            Some(shard) => format!(
                "shard {shard} of {} jobs owns {} but the document records {}",
                jobs.len(),
                work.len(),
                results.len()
            ),
            None => format!(
                "campaign expands to {} jobs but the document records {}",
                jobs.len(),
                results.len()
            ),
        });
    }
    let mut records = Vec::with_capacity(results.len());
    for (i, (rec, &expected)) in results.iter().zip(&work).enumerate() {
        let ctx = |e: String| format!("results[{i}]: {e}");
        let index = rec.req_u64("job").map_err(ctx)? as usize;
        if index != expected {
            return Err(match shard {
                Some(shard) => format!(
                    "results[{i}] is job {index} but shard {shard} expects job {expected} there"
                ),
                None => format!("results[{i}] is job {index} (order broken)"),
            });
        }
        let spec_i = ScenarioSpec::from_json(rec.req("spec").map_err(ctx)?).map_err(ctx)?;
        if spec_i != jobs[index] {
            return Err(format!(
                "results[{i}] spec does not match the campaign expansion ({})",
                jobs[index].name
            ));
        }
        if rec.req_str("scenario").map_err(ctx)? != jobs[index].name {
            return Err(format!("results[{i}] scenario name mismatch"));
        }
        let outcome = ScenarioOutcome::from_json(rec.req("outcome").map_err(ctx)?).map_err(ctx)?;
        records.push(JobRecord {
            index,
            spec: spec_i,
            outcome,
        });
    }
    Ok(CampaignDoc {
        spec,
        shard,
        total_jobs: jobs.len(),
        records,
    })
}

/// Renders the human summary table of a campaign or shard run.
pub fn summary_table(run: &CampaignRun) -> String {
    let mut s = String::new();
    let (label, total) = match run.shard {
        Some(shard) => (
            format!("{} shard {shard}", run.spec.name),
            format!("; campaign total {}", run.total_jobs),
        ),
        None => (run.spec.name.clone(), String::new()),
    };
    s.push_str(&format!(
        "campaign {label} — {}/{} jobs ({} resumed, {} executed{total})\n",
        run.completed.len(),
        run.owned_jobs(),
        run.resumed_jobs,
        run.executed_jobs,
    ));
    let name_w = run
        .completed
        .iter()
        .map(|r| r.spec.name.len())
        .max()
        .unwrap_or(8)
        .max(8);
    s.push_str(&format!("{:>5}  {:<name_w$}  outcome\n", "job", "scenario"));
    for r in &run.completed {
        s.push_str(&format!(
            "{:>5}  {:<name_w$}  {}\n",
            r.index,
            r.spec.name,
            r.outcome.summary()
        ));
    }
    if !run.is_complete() {
        s.push_str(&format!(
            "(partial: {} jobs still pending — re-run to resume from the manifest)\n",
            run.owned_jobs() - run.completed.len()
        ));
    }
    let groups = &run.groups;
    if !groups.is_empty() {
        s.push_str("\ngroups (seed-axis aggregates of the headline metric):\n");
        let key_w = groups
            .iter()
            .map(|g| g.key.as_str().len())
            .max()
            .unwrap_or(5)
            .max(5);
        s.push_str(&format!("{:<key_w$}  {:>3}  headline\n", "group", "n"));
        for g in groups {
            let metric = headline_metric(g.kind);
            let line = match g.headline() {
                None => "(no samples)".to_string(),
                Some(stat) => {
                    let mean = stat.mean().expect("non-empty group");
                    let ci = match stat.ci95_half_width() {
                        Some(hw) => format!(" ± {hw:.4}"),
                        None => String::new(),
                    };
                    format!(
                        "{metric} mean {mean:.4}{ci}  median {:.4}  [{:.4}, {:.4}]",
                        stat.median().expect("non-empty group"),
                        stat.min().expect("non-empty group"),
                        stat.max().expect("non-empty group"),
                    )
                }
            };
            s.push_str(&format!("{:<key_w$}  {:>3}  {line}\n", g.key.as_str(), g.n));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::PolicyAxis;
    use crate::spec::{ChipKind, Mode, Workload};
    use hotnoc_core::configs::{ChipConfigId, Fidelity};
    use hotnoc_noc::TrafficPattern;

    fn tiny_campaign(name: &str) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            seed: 7,
            fidelity: Fidelity::Quick,
            mode: Mode::Cosim,
            sim_time_ms: None,
            configs: vec![ChipKind::Config(ChipConfigId::A)],
            workloads: vec![
                Workload::Traffic {
                    pattern: TrafficPattern::UniformRandom,
                    rate: 0.05,
                    packet_len: 2,
                    cycles: 200,
                },
                Workload::Traffic {
                    pattern: TrafficPattern::Transpose,
                    rate: 0.05,
                    packet_len: 2,
                    cycles: 200,
                },
            ],
            policies: vec![PolicyAxis::Baseline],
            schemes: vec![],
            periods: vec![],
            offered_loads: vec![],
            failed_routers: vec![],
            failed_links: vec![],
            seeds: vec![1, 2, 3],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hotnoc-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn work_units_group_cosim_jobs_per_chip_and_interleave_chips() {
        use hotnoc_reconfig::MigrationScheme;
        let spec = CampaignSpec {
            configs: vec![
                ChipKind::Config(ChipConfigId::A),
                ChipKind::Config(ChipConfigId::E),
            ],
            workloads: vec![Workload::Ldpc],
            policies: vec![
                PolicyAxis::Baseline,
                PolicyAxis::Periodic,
                PolicyAxis::Adaptive,
            ],
            schemes: vec![MigrationScheme::XYShift, MigrationScheme::Rotation],
            periods: vec![4, 8, 16],
            seeds: vec![0],
            ..tiny_campaign("units")
        };
        let jobs = spec.expand();
        // Per chip: a baseline, six periodic and three adaptive jobs.
        assert_eq!(jobs.len(), 20);
        let all: Vec<usize> = (0..jobs.len()).collect();
        let want: Vec<Vec<usize>> = vec![
            vec![0],
            vec![1, 2, 3, 4],
            vec![10],
            vec![11, 12, 13, 14],
            vec![5, 6, 7, 8],
            vec![15, 16, 17, 18],
            vec![9],
            vec![19],
        ];
        assert_eq!(work_units(&jobs, &all), want);
        // A cut is taken by index before grouping: its remainder group is
        // as wide as it needs.
        assert_eq!(
            work_units(&jobs, &all[..7]),
            vec![vec![0], vec![1, 2, 3, 4], vec![5, 6]]
        );
        // A horizon override joins jobs only with its own frame count.
        let mut longer = jobs.clone();
        longer[2].sim_time_ms = Some(30.0);
        assert_eq!(
            work_units(&longer, &all[..6])[1..],
            [vec![1, 3, 4, 5], vec![2]]
        );
        // Jobs that never share a group keep index order.
        let traffic = tiny_campaign("traffic").expand();
        let indices: Vec<usize> = (0..traffic.len()).collect();
        let singles: Vec<Vec<usize>> = indices.iter().map(|&i| vec![i]).collect();
        assert_eq!(work_units(&traffic, &indices), singles);
    }

    #[test]
    fn complete_run_emits_validating_artifact() {
        let dir = tmp_dir("complete");
        let spec = tiny_campaign("unit-complete");
        let run = run_campaign(
            &spec,
            &RunnerOptions {
                threads: 2,
                out_dir: dir.clone(),
                ..RunnerOptions::default()
            },
        )
        .expect("runs");
        assert!(run.is_complete());
        assert_eq!(run.total_jobs, 6);
        assert_eq!(run.executed_jobs, 6);
        assert_eq!(run.resumed_jobs, 0);
        let text = std::fs::read_to_string(run.json_path.as_ref().expect("artifact")).unwrap();
        let doc = parse_campaign_document(&text).expect("validates");
        assert_eq!(doc.records.len(), 6);
        let table = summary_table(&run);
        assert!(table.contains("6/6 jobs"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_dir_traces_are_thread_and_resume_invariant() {
        let spec = tiny_campaign("unit-trace");
        let read_traces = |dir: &Path| -> Vec<(String, String)> {
            let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
                .expect("trace dir")
                .map(|e| e.unwrap())
                .filter(|e| e.file_name().to_string_lossy().starts_with("TRACE_"))
                .map(|e| {
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read_to_string(e.path()).unwrap(),
                    )
                })
                .collect();
            out.sort();
            out
        };
        let run_with = |tag: &str, threads: usize, max_jobs: Option<usize>| -> PathBuf {
            let dir = tmp_dir(tag);
            let opts = RunnerOptions {
                threads,
                out_dir: dir.clone(),
                max_jobs,
                trace_dir: Some(dir.join("traces")),
                ..RunnerOptions::default()
            };
            run_campaign(&spec, &opts).expect("runs");
            if max_jobs.is_some() {
                // Resume to completion at a different thread count.
                run_campaign(
                    &spec,
                    &RunnerOptions {
                        threads: 4,
                        max_jobs: None,
                        ..opts
                    },
                )
                .expect("resumes");
            }
            dir
        };
        let d1 = run_with("trace-t1", 1, None);
        let d4 = run_with("trace-t4", 4, None);
        let dk = run_with("trace-kill", 1, Some(2));
        let t1 = read_traces(&d1.join("traces"));
        assert_eq!(t1.len(), 6, "one trace per job");
        assert_eq!(t1, read_traces(&d4.join("traces")), "thread-count variant");
        assert_eq!(t1, read_traces(&dk.join("traces")), "kill/resume variant");
        for (name, text) in &t1 {
            let doc = TraceDoc::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(matches!(
                doc.events.first(),
                Some(TraceEvent::JobStart { .. })
            ));
            assert!(matches!(
                doc.events.last(),
                Some(TraceEvent::JobFinish { .. })
            ));
        }
        for d in [d1, d4, dk] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn partial_run_resumes_without_recomputation() {
        let dir = tmp_dir("resume");
        let spec = tiny_campaign("unit-resume");
        let opts = RunnerOptions {
            threads: 1,
            out_dir: dir.clone(),
            ..RunnerOptions::default()
        };
        // Straight-through reference run in a sibling directory.
        let ref_dir = tmp_dir("resume-ref");
        let full = run_campaign(
            &spec,
            &RunnerOptions {
                out_dir: ref_dir.clone(),
                ..opts.clone()
            },
        )
        .expect("reference run");
        let reference = std::fs::read(full.json_path.as_ref().unwrap()).unwrap();

        // Interrupted run: 2 jobs, then resume to completion.
        let partial = run_campaign(
            &spec,
            &RunnerOptions {
                max_jobs: Some(2),
                ..opts.clone()
            },
        )
        .expect("partial run");
        assert!(!partial.is_complete());
        assert_eq!(partial.completed.len(), 2);
        assert!(partial.json_path.is_none());

        let resumed = run_campaign(&spec, &opts).expect("resume");
        assert!(resumed.is_complete());
        assert_eq!(resumed.resumed_jobs, 2);
        assert_eq!(resumed.executed_jobs, 4);
        let resumed_bytes = std::fs::read(resumed.json_path.as_ref().unwrap()).unwrap();
        assert_eq!(
            resumed_bytes, reference,
            "resumed artifact differs from uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn resume_after_torn_tail_keeps_its_own_journal_readable() {
        // A kill mid-write leaves a partial final line; the next run must
        // remove that fragment before appending, or the record it journals
        // right after would fuse onto the fragment and be lost to the
        // *second* resume.
        let dir = tmp_dir("torn");
        let spec = tiny_campaign("unit-torn");
        let base = RunnerOptions {
            threads: 1,
            out_dir: dir.clone(),
            ..RunnerOptions::default()
        };
        let first = run_campaign(
            &spec,
            &RunnerOptions {
                max_jobs: Some(2),
                ..base.clone()
            },
        )
        .expect("partial run");
        // Tear the journal: append half a record with no newline.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&first.manifest_path)
            .unwrap();
        write!(f, "{{\"job\": 5, \"scenario\": \"half-writ").unwrap();
        drop(f);

        // One more job journaled on top of the torn tail...
        let second = run_campaign(
            &spec,
            &RunnerOptions {
                max_jobs: Some(1),
                ..base.clone()
            },
        )
        .expect("resume over torn tail");
        assert_eq!(second.resumed_jobs, 2);
        let manifest = std::fs::read_to_string(&second.manifest_path).unwrap();
        assert!(
            !manifest.contains("half-writ"),
            "the torn fragment was left in the manifest:\n{manifest}"
        );
        assert_eq!(manifest.lines().count(), 4, "header + 3 whole records");
        // ...must still be recoverable by the next resume.
        let third = run_campaign(&spec, &base).expect("final resume");
        assert_eq!(
            third.resumed_jobs, 3,
            "the job journaled after the torn tail was lost"
        );
        assert!(third.is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lossy_legacy_manifest_records_are_recomputed_not_resumed() {
        // A record journaled by an older binary can decode leniently (the
        // traffic quantile fields default to 0 when absent). Resuming it
        // would bake those zeros into the artifact; the runner must notice
        // the record does not re-serialize canonically and recompute it.
        let dir = tmp_dir("legacy");
        let spec = tiny_campaign("unit-legacy");
        let opts = RunnerOptions {
            threads: 1,
            out_dir: dir.clone(),
            ..RunnerOptions::default()
        };
        let reference = run_campaign(&spec, &opts).expect("reference run");
        let reference_bytes = std::fs::read(reference.json_path.as_ref().unwrap()).unwrap();

        // Strip the quantile fields from one journaled record, as a
        // pre-analytics binary would have written it.
        let manifest = std::fs::read_to_string(&reference.manifest_path).unwrap();
        let legacy: String = manifest
            .lines()
            .enumerate()
            .map(|(i, line)| {
                let line = if i == 2 {
                    let stripped = regex_free_strip(line);
                    assert_ne!(stripped, line, "fields not found to strip");
                    stripped
                } else {
                    line.to_string()
                };
                format!("{line}\n")
            })
            .collect();
        std::fs::write(&reference.manifest_path, legacy).unwrap();
        let _ = std::fs::remove_file(dir.join("CAMPAIGN_unit-legacy.json"));

        let resumed = run_campaign(&spec, &opts).expect("resume over legacy record");
        assert_eq!(resumed.resumed_jobs, 5, "the lossy record must not resume");
        assert_eq!(resumed.executed_jobs, 1);
        assert_eq!(
            std::fs::read(resumed.json_path.as_ref().unwrap()).unwrap(),
            reference_bytes,
            "legacy-manifest resume diverged from the uninterrupted artifact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Removes the traffic quantile fields from one manifest line (plain
    /// string surgery; the canonical writer's field order is stable).
    fn regex_free_strip(line: &str) -> String {
        let mut out = line.to_string();
        for key in ["p50_latency_cycles", "p95_latency_cycles"] {
            let Some(start) = out.find(&format!(", \"{key}\"")) else {
                continue;
            };
            let tail = &out[start + 2..];
            let end = tail.find(", ").map(|e| start + 2 + e).unwrap_or(out.len());
            out.replace_range(start..end, "");
        }
        out
    }

    #[test]
    fn edited_campaign_invalidates_the_manifest() {
        let dir = tmp_dir("edited");
        let mut spec = tiny_campaign("unit-edited");
        let opts = RunnerOptions {
            threads: 1,
            out_dir: dir.clone(),
            max_jobs: Some(3),
            ..RunnerOptions::default()
        };
        run_campaign(&spec, &opts).expect("partial");
        // Editing the campaign changes the fingerprint: nothing resumes.
        spec.seeds.push(4);
        let rerun = run_campaign(
            &spec,
            &RunnerOptions {
                max_jobs: None,
                ..opts
            },
        )
        .expect("fresh restart");
        assert_eq!(rerun.resumed_jobs, 0);
        assert!(rerun.is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_artifact_is_removed_when_the_campaign_changes_or_stops_partway() {
        let dir = tmp_dir("stale");
        let mut spec = tiny_campaign("unit-stale");
        let opts = RunnerOptions {
            threads: 1,
            out_dir: dir.clone(),
            ..RunnerOptions::default()
        };
        let full = run_campaign(&spec, &opts).expect("complete run");
        let artifact = full.json_path.expect("artifact written");
        assert!(artifact.exists());

        // Same name, different spec, interrupted: the old artifact must not
        // survive to masquerade as this campaign's result.
        spec.seeds.push(9);
        let partial = run_campaign(
            &spec,
            &RunnerOptions {
                max_jobs: Some(1),
                ..opts
            },
        )
        .expect("partial run of the edited campaign");
        assert!(!partial.is_complete());
        assert!(
            !artifact.exists(),
            "stale CAMPAIGN json from the old spec still present"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eta_is_a_placeholder_until_a_fresh_job_finishes() {
        // fresh == 0 (all-resumed run, or a poll-point beat before the
        // first completion): placeholder, never a division by zero.
        assert_eq!(eta_text(0, 5.0, 3), "?");
        assert_eq!(eta_text(0, 0.0, 0), "?");
        assert_eq!(eta_text(2, 10.0, 4), "20s");
    }

    #[test]
    fn poll_heartbeat_beats_on_wall_time_and_resets_the_cadence_clock() {
        let started = Instant::now();
        let backdated = Instant::now() - Duration::from_secs(HEARTBEAT_SECS + 1);
        let last = Mutex::new(backdated);
        // Due, with fresh == 0 (done == resumed): must print the "?" ETA
        // path without panicking and reset the cadence clock.
        heartbeat(&started, &last, 3, 10, 3, false);
        assert!(
            last.lock().unwrap().elapsed() < Duration::from_secs(HEARTBEAT_SECS),
            "a due beat must reset the cadence clock"
        );
        // Not due again immediately afterwards.
        let before = *last.lock().unwrap();
        heartbeat(&started, &last, 3, 10, 3, false);
        assert_eq!(*last.lock().unwrap(), before);
        // Never beats once the slice is finished (the final job has its
        // own completion line).
        *last.lock().unwrap() = backdated;
        heartbeat(&started, &last, 10, 10, 0, false);
        assert_eq!(*last.lock().unwrap(), backdated);
    }

    #[test]
    fn resident_pool_run_matches_private_pool_bytes() {
        let spec = tiny_campaign("unit-resident");
        let pool = minipool::ThreadPool::new();
        let d1 = tmp_dir("resident-a");
        let d2 = tmp_dir("resident-b");
        let on = run_campaign_on(
            &spec,
            &RunnerOptions {
                threads: 2,
                out_dir: d1.clone(),
                ..RunnerOptions::default()
            },
            &pool,
        )
        .expect("resident pool run");
        // Second run on the *same* warm pool, different directory.
        let again = run_campaign_on(
            &spec,
            &RunnerOptions {
                threads: 2,
                out_dir: d2.clone(),
                ..RunnerOptions::default()
            },
            &pool,
        )
        .expect("warm pool re-run");
        let a = std::fs::read(on.json_path.as_ref().unwrap()).unwrap();
        let b = std::fs::read(again.json_path.as_ref().unwrap()).unwrap();
        assert_eq!(a, b, "warm-pool re-run changed artifact bytes");
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    /// The top-level field `key` of a document, for tampering.
    fn field<'a>(doc: &'a mut Json, key: &str) -> Option<&'a mut Json> {
        let Json::Object(fields) = doc else {
            return None;
        };
        fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Replaces `doc[key]`; `false` when the document has no such field.
    fn set(doc: &mut Json, key: &str, value: Json) -> bool {
        field(doc, key).map(|f| *f = value).is_some()
    }

    /// Adds one to the integer `doc[key]`; `false` when absent.
    fn bump(doc: &mut Json, key: &str) -> bool {
        let Some(f) = field(doc, key) else {
            return false;
        };
        *f = Json::int(f.as_u64().expect("integer field") + 1);
        true
    }

    fn results(doc: &mut Json) -> &mut Vec<Json> {
        match field(doc, "results") {
            Some(Json::Array(records)) => records,
            _ => panic!("artifact without a results array"),
        }
    }

    #[test]
    fn validator_rejects_tampered_documents() {
        type Check = fn(&str) -> Result<(), String>;
        type Mutation = fn(&mut Json) -> bool;
        let dir = tmp_dir("tamper");
        let spec = tiny_campaign("unit-tamper");
        let opts = RunnerOptions {
            threads: 1,
            out_dir: dir.clone(),
            ..RunnerOptions::default()
        };
        let whole = run_campaign(&spec, &opts).expect("whole run");
        let shard = run_campaign(
            &spec,
            &RunnerOptions {
                shard: Some(Shard::new(1, 2).unwrap()),
                ..opts.clone()
            },
        )
        .expect("shard run");
        let whole_check: Check = |t| parse_campaign_document(t).map(drop);
        let shard_check: Check = |t| parse_campaign_document(t).map(drop);
        let artifacts = [
            ("whole", whole.json_path.expect("artifact"), whole_check),
            ("shard 1/2", shard.json_path.expect("artifact"), shard_check),
        ];
        // One mutation per row; `false` means the document lacks the field
        // (a whole artifact has no `total_jobs` or `shard`).
        let mutations: [(&str, Mutation); 9] = [
            ("seed", |d| set(d, "seed", Json::int(8))),
            ("fingerprint", |d| {
                set(d, "fingerprint", Json::str("0000000000000000"))
            }),
            ("name", |d| set(d, "name", Json::str("unit-other"))),
            ("jobs", |d| bump(d, "jobs")),
            ("total_jobs", |d| bump(d, "total_jobs")),
            ("shard.index", |d| {
                field(d, "shard").is_some_and(|s| set(s, "index", Json::int(0)))
            }),
            ("swapped results", |d| {
                results(d).swap(0, 1);
                true
            }),
            ("dropped record", |d| {
                let records = results(d);
                records.pop();
                let left = records.len() as u64;
                set(d, "jobs", Json::int(left))
            }),
            ("record scenario", |d| {
                set(&mut results(d)[0], "scenario", Json::str("A/tampered"))
            }),
        ];
        for (label, path, check) in &artifacts {
            let text = std::fs::read_to_string(path).unwrap();
            assert_eq!(check(&text), Ok(()), "{label}: pristine artifact");
            let pristine = Json::parse(&text).unwrap();
            for (mutation, mutate) in &mutations {
                let mut doc = pristine.clone();
                if !mutate(&mut doc) {
                    assert_eq!(*label, "whole", "{mutation} must apply to a shard");
                    continue;
                }
                assert!(
                    check(&doc.to_string()).is_err(),
                    "{label}: tampered {mutation} still validates"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
