//! The daemon: listener, per-connection protocol loop, the shared
//! `minipool`, the fingerprint result cache and its persistence journal.
//!
//! One thread per connection; each submission runs on the shared pool
//! ([`minipool::ThreadPool::scope`] is safe to enter concurrently from
//! many threads — each scope's tasks carry their own completion latch).
//! Computed scenario results are appended to the
//! `hotnoc-serve-journal-v1` journal (one flushed line per result) and
//! warm-loaded into the cache on the next start; campaign submissions
//! persist through their own `run_campaign_on` manifests under the spool
//! directory, so a restarted daemon resumes rather than recomputes them.

use crate::protocol::{
    decode_request, error_fields, response_line, Endpoint, Request, Stream, Submission,
    JOURNAL_SCHEMA,
};
use hotnoc_obs::TraceEvent;
use hotnoc_scenario::journal::{self, Journal, ResumeError};
use hotnoc_scenario::json::Json;
use hotnoc_scenario::run::run_scenario;
use hotnoc_scenario::runner::{run_campaign_on, CampaignRun, RunnerOptions};
use hotnoc_scenario::tracefile::TraceDoc;
use hotnoc_scenario::ScenarioOutcome;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-connection read timeout: an idle connection checks the drain flag
/// this often.
const POLL: Duration = Duration::from_millis(50);

/// Longest request line the daemon accepts, newline excluded. The largest
/// legitimate request field, a 64x64 custom die's weights, is under
/// 100 KB.
const MAX_LINE: usize = 4 << 20;

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Worker threads for the shared pool (>= 1; clamped to
    /// [`minipool::MAX_WORKERS`]).
    pub threads: usize,
    /// Path of the `hotnoc-serve-journal-v1` result journal; `None`
    /// disables persistence (the cache is memory-only).
    pub journal: Option<PathBuf>,
    /// Where to write the `hotnoc-trace-v1` serving trace (cache-hit
    /// events) on shutdown; `None` skips it.
    pub trace: Option<PathBuf>,
    /// Directory for campaign working state (one `run_campaign_on`
    /// manifest + artifact subdirectory per campaign fingerprint).
    pub spool: PathBuf,
}

/// What a drained daemon reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Submit requests received (hits + computes + failures + rejections).
    pub requests: u64,
    /// Submissions computed by running jobs.
    pub computed: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
}

/// A serving failure: listener, journal or trace-file trouble. Protocol
/// errors never land here — they become per-request status responses.
#[derive(Debug)]
pub struct ServeError {
    /// What went wrong, with its path/endpoint context.
    pub message: String,
}

impl ServeError {
    fn new(message: String) -> ServeError {
        ServeError { message }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

/// One cached response: the payload objects (id-less) rendered with each
/// requester's id, so a repeat submission under the same id reproduces
/// the original bytes exactly.
struct CacheEntry {
    /// Spec name, for the cache-hit trace event.
    name: String,
    /// Response payload field lists, one per line, in stream order.
    lines: Vec<Vec<(String, Json)>>,
}

type Cache = HashMap<(String, u64), Arc<CacheEntry>>;

struct State {
    pool: minipool::ThreadPool,
    threads: usize,
    spool: PathBuf,
    cache: Mutex<Cache>,
    journal: Option<Journal>,
    /// Cache-hit trace events, buffered only when a serving trace was
    /// asked for.
    events: Option<Mutex<Vec<TraceEvent>>>,
    hits: AtomicU64,
    computed: AtomicU64,
    requests: AtomicU64,
    draining: AtomicBool,
    /// The listener's own address: the shutdown handler connects here once
    /// to wake the blocking accept.
    wake: Endpoint,
}

/// Runs the daemon until a shutdown request drains it.
///
/// Binds the endpoint, warm-loads the journal into the result cache, then
/// accepts connections until a `{"op": "shutdown"}` arrives. Draining
/// lets in-flight jobs finish (and journal), rejects queued submissions
/// with a retryable status-1 error, writes the serving trace, and removes
/// a unix socket file on the way out.
///
/// # Errors
///
/// Returns a [`ServeError`] for listener, journal or trace-file trouble.
pub fn serve(opts: &ServeOptions) -> Result<ServeSummary, ServeError> {
    let listener = Listener::bind(&opts.endpoint)?;
    let socket_file = SocketFile(match &listener {
        Listener::Unix(_, path) => Some(path.clone()),
        Listener::Tcp(_) => None,
    });
    let wake = listener
        .local_endpoint()
        .map_err(|e| ServeError::new(format!("address of {}: {e}", opts.endpoint)))?;
    let mut cache = Cache::new();
    let journal = match &opts.journal {
        Some(path) => Some(warm_load(path, &mut cache)?),
        None => None,
    };
    let warm = cache.len();
    let pool = minipool::ThreadPool::new();
    let threads = opts.threads.clamp(1, minipool::MAX_WORKERS);
    // The connection thread entering a scope helps drain it, so n-way
    // parallelism needs n - 1 workers (same sizing as the batch runner).
    pool.ensure_workers(threads.saturating_sub(1));
    let state = Arc::new(State {
        pool,
        threads,
        spool: opts.spool.clone(),
        cache: Mutex::new(cache),
        journal,
        events: opts.trace.as_ref().map(|_| Mutex::new(Vec::new())),
        hits: AtomicU64::new(0),
        computed: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        draining: AtomicBool::new(false),
        wake,
    });
    eprintln!(
        "serve: listening on {} ({} threads, {} journaled results warm)",
        opts.endpoint, threads, warm
    );

    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !state.draining.load(Ordering::SeqCst) {
        // Blocks until a client connects; a shutdown request wakes it with
        // a connection of its own. Every accepted connection is served, so
        // a client that raced the drain still gets its retryable rejection.
        let stream = listener
            .accept()
            .map_err(|e| ServeError::new(format!("accept on {}: {e}", opts.endpoint)))?;
        let st = Arc::clone(&state);
        conns.push(std::thread::spawn(move || handle_connection(stream, &st)));
        conns.retain(|h| !h.is_finished());
    }
    // Drain: stop accepting (closing the listener refuses new connections),
    // then wait for every connection — in-flight jobs finish and journal;
    // their connections reject whatever else was queued.
    drop(listener);
    for h in conns {
        let _ = h.join();
    }
    if let (Some(path), Some(events)) = (&opts.trace, &state.events) {
        let events = std::mem::take(&mut *lock(events));
        std::fs::write(path, TraceDoc::new("serve", events).to_jsonl())
            .map_err(|e| ServeError::new(format!("trace {}: {e}", path.display())))?;
    }
    drop(socket_file);
    let summary = ServeSummary {
        requests: state.requests.load(Ordering::SeqCst),
        computed: state.computed.load(Ordering::SeqCst),
        cache_hits: state.hits.load(Ordering::SeqCst),
    };
    eprintln!(
        "serve: drained after {} submissions ({} computed, {} cache hits)",
        summary.requests, summary.computed, summary.cache_hits
    );
    Ok(summary)
}

/// A poisoned daemon lock only means some connection thread panicked
/// mid-update of a statistic or the cache; the data is still coherent
/// (every write is a single insert/push), so serving continues.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> Result<Listener, ServeError> {
        match endpoint {
            Endpoint::Unix(path) => {
                // A socket file left by a killed daemon would fail the bind
                // with AddrInUse; a stale file only ever refuses
                // connections, so removing it is safe.
                if let Err(e) = std::fs::remove_file(path) {
                    if e.kind() != ErrorKind::NotFound {
                        return Err(ServeError::new(format!(
                            "socket {}: removing stale file: {e}",
                            path.display()
                        )));
                    }
                }
                let l = UnixListener::bind(path)
                    .map_err(|e| ServeError::new(format!("bind unix:{}: {e}", path.display())))?;
                Ok(Listener::Unix(l, path.clone()))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())
                    .map_err(|e| ServeError::new(format!("bind tcp:{addr}: {e}")))?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Where a client reaches this listener: the socket path, or the bound
    /// TCP address (so a port-0 bind resolves to the real port).
    fn local_endpoint(&self) -> std::io::Result<Endpoint> {
        Ok(match self {
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
            Listener::Tcp(l) => Endpoint::Tcp(l.local_addr()?.to_string()),
        })
    }

    /// Accepts one connection: blocking reads with a [`POLL`] timeout so
    /// the handler can notice a drain while idle.
    fn accept(&self) -> std::io::Result<Box<dyn Stream>> {
        match self {
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(POLL))?;
                Ok(Box::new(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(POLL))?;
                Ok(Box::new(s))
            }
        }
    }
}

/// Removes a unix socket file when dropped. `serve` holds it past the
/// listener until the trace is written, so a vanished socket file means
/// the daemon has finished.
struct SocketFile(Option<PathBuf>);

impl Drop for SocketFile {
    fn drop(&mut self) {
        if let Some(path) = &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

enum Flow {
    Continue,
    Close,
}

fn handle_connection(mut stream: Box<dyn Stream>, state: &State) {
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` holds no newline, so each byte is scanned once.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        let mut start = 0;
        while let Some(pos) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let end = scanned + pos;
            let line = String::from_utf8_lossy(&buf[start..end]).trim().to_string();
            start = end + 1;
            scanned = start;
            if line.is_empty() {
                continue;
            }
            match handle_line(&line, stream.as_mut(), state) {
                Ok(Flow::Continue) => {}
                Ok(Flow::Close) | Err(_) => return,
            }
        }
        buf.drain(..start);
        scanned = buf.len();
        if buf.len() > MAX_LINE {
            // Refused before buffering any more of it. The framing is lost,
            // so the answer is anonymous and the connection closes.
            let error = format!("request line longer than {MAX_LINE} bytes");
            let fields = error_fields(2, &error, false);
            let _ = write_line(stream.as_mut(), None, &fields).and_then(|()| stream.flush());
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client hung up
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle poll point: a draining daemon closes quiet
                // connections instead of waiting for the client.
                if state.draining.load(Ordering::SeqCst) && buf.is_empty() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn handle_line(line: &str, out: &mut dyn Write, state: &State) -> std::io::Result<Flow> {
    let j = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            // Unparsable bytes mean the line framing itself is suspect:
            // answer (anonymously — no id can be trusted out of a broken
            // line) and drop the connection. The daemon stays up.
            let fields = error_fields(2, &format!("malformed request line: {e}"), false);
            write_line(out, None, &fields)?;
            return out.flush().map(|()| Flow::Close);
        }
    };
    // Echo the id even on shape errors, so clients can correlate them.
    let id = j.get("id").and_then(Json::as_str).map(str::to_string);
    let request = match decode_request(&j) {
        Ok(r) => r,
        Err(e) => {
            let fields = error_fields(2, &e, false);
            write_line(out, id.as_deref(), &fields)?;
            return out.flush().map(|()| Flow::Continue);
        }
    };
    match request {
        Request::Ping => {
            let fields = vec![
                ("status".to_string(), Json::int(0)),
                ("pong".to_string(), Json::Bool(true)),
            ];
            write_line(out, id.as_deref(), &fields)?;
            out.flush().map(|()| Flow::Continue)
        }
        Request::Shutdown => {
            if !state.draining.swap(true, Ordering::SeqCst) {
                eprintln!("serve: shutdown requested, draining");
                // Wake the accept loop so it sees the drain flag.
                if let Err(e) = state.wake.connect() {
                    eprintln!("serve: warning: waking the accept loop failed: {e}");
                }
            }
            let fields = vec![
                ("status".to_string(), Json::int(0)),
                ("draining".to_string(), Json::Bool(true)),
            ];
            write_line(out, id.as_deref(), &fields)?;
            out.flush().map(|()| Flow::Continue)
        }
        Request::Submit { id, submission } => {
            state.requests.fetch_add(1, Ordering::SeqCst);
            if state.draining.load(Ordering::SeqCst) {
                // Queued behind a drain: clean, retryable rejection.
                let fields = error_fields(1, "draining", true);
                write_line(out, Some(&id), &fields)?;
                return out.flush().map(|()| Flow::Continue);
            }
            handle_submit(&id, *submission, out, state).map(|()| Flow::Continue)
        }
    }
}

fn handle_submit(
    id: &str,
    submission: Submission,
    out: &mut dyn Write,
    state: &State,
) -> std::io::Result<()> {
    let key = submission.key();
    let cached = lock(&state.cache).get(&key).cloned();
    if let Some(entry) = cached {
        record_hit(state, &key.0, &entry.name);
        return write_entry(out, id, &entry);
    }
    let entry = match submission {
        Submission::Scenario(spec) => {
            let mut result = None;
            state.pool.scope(|s| {
                s.spawn(|| result = Some(run_scenario(&spec)));
            });
            match result.expect("scope completed the spawned task") {
                Ok(outcome) => {
                    let outcome = outcome.to_json();
                    journal_result(state, &key, &spec.name, &outcome);
                    scenario_entry(&spec.name, &key.0, outcome)
                }
                Err(e) => {
                    let fields = error_fields(1, &format!("scenario failed: {e}"), false);
                    write_line(out, Some(id), &fields)?;
                    return out.flush();
                }
            }
        }
        Submission::Campaign(spec) => {
            // The campaign keeps its usual manifest journal in the spool,
            // keyed by fingerprint: a daemon killed mid-campaign resumes
            // instead of recomputing, and artifact bytes are unchanged.
            let opts = RunnerOptions {
                threads: state.threads,
                out_dir: state.spool.join(&key.0),
                max_jobs: None,
                fresh: false,
                progress: false,
                trace_dir: None,
                shard: None,
            };
            match run_campaign_on(&spec, &opts, &state.pool) {
                Ok(run) => campaign_entry(&spec.name, &key.0, &run),
                Err(e) => {
                    let fields = error_fields(1, &format!("campaign failed: {e}"), false);
                    write_line(out, Some(id), &fields)?;
                    return out.flush();
                }
            }
        }
    };
    state.computed.fetch_add(1, Ordering::SeqCst);
    let entry = Arc::new(entry);
    lock(&state.cache).insert(key, Arc::clone(&entry));
    write_entry(out, id, &entry)
}

/// Records a cache hit on the observability plane: the hit counter, a
/// stderr log line and, when a serving trace was asked for, a `CacheHit`
/// trace event keyed by hit ordinal (assigned under the event lock so the
/// trace stays in non-descending order). The response bytes themselves
/// carry no marker — that is what keeps them byte-identical to the
/// computed response.
fn record_hit(state: &State, fingerprint: &str, name: &str) {
    match &state.events {
        Some(events) => {
            let mut events = lock(events);
            let ordinal = state.hits.fetch_add(1, Ordering::SeqCst) + 1;
            events.push(TraceEvent::CacheHit {
                cycle: ordinal,
                fingerprint: fingerprint.to_string(),
                name: name.to_string(),
            });
        }
        None => {
            state.hits.fetch_add(1, Ordering::SeqCst);
        }
    }
    // One write(2): `eprintln!` issues one per literal piece and argument.
    let line = format!("serve: cache hit {fingerprint} ({name})\n");
    eprint!("{line}");
}

fn scenario_entry(name: &str, fingerprint: &str, outcome: Json) -> CacheEntry {
    CacheEntry {
        name: name.to_string(),
        lines: vec![vec![
            ("status".to_string(), Json::int(0)),
            ("fingerprint".to_string(), Json::str(fingerprint)),
            ("outcome".to_string(), outcome),
        ]],
    }
}

fn campaign_entry(name: &str, fingerprint: &str, run: &CampaignRun) -> CacheEntry {
    let mut lines = Vec::with_capacity(run.completed.len() + 1);
    for r in &run.completed {
        lines.push(vec![
            ("job".to_string(), Json::int(r.index as u64)),
            ("name".to_string(), Json::str(&r.spec.name)),
            ("seed".to_string(), Json::int(r.spec.seed)),
            ("status".to_string(), Json::int(0)),
            ("outcome".to_string(), r.outcome.to_json()),
        ]);
    }
    lines.push(vec![
        ("status".to_string(), Json::int(0)),
        ("fingerprint".to_string(), Json::str(fingerprint)),
        ("jobs".to_string(), Json::int(run.total_jobs as u64)),
    ]);
    CacheEntry {
        name: name.to_string(),
        lines,
    }
}

fn write_entry(out: &mut dyn Write, id: &str, entry: &CacheEntry) -> std::io::Result<()> {
    for fields in &entry.lines {
        write_line(out, Some(id), fields)?;
    }
    out.flush()
}

/// Writes one response line, newline included, with one call: one
/// `send(2)` on the unbuffered socket, where `writeln!` would make two.
fn write_line(
    out: &mut dyn Write,
    id: Option<&str>,
    fields: &[(String, Json)],
) -> std::io::Result<()> {
    let mut line = response_line(id, fields);
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Appends one computed scenario result to the journal. A write failure
/// is logged, not fatal — the in-memory cache stays correct either way.
fn journal_result(state: &State, key: &(String, u64), name: &str, outcome: &Json) {
    let Some(journal) = &state.journal else {
        return;
    };
    let line = Json::object(vec![
        ("fingerprint", Json::str(&key.0)),
        ("seed", Json::int(key.1)),
        ("scenario", Json::str(name)),
        ("outcome", outcome.clone()),
    ]);
    if journal.append(&line).is_err() {
        eprintln!("serve: warning: journal append failed for {}", key.0);
    }
}

/// Opens the journal (starting one if the file is absent or empty) and
/// warm-loads every record that verifies into the cache. A non-empty file
/// whose first line is not this daemon's header is refused, never
/// appended to.
fn warm_load(path: &Path, cache: &mut Cache) -> Result<Journal, ServeError> {
    let header = Json::object(vec![("schema", Json::str(JOURNAL_SCHEMA))]);
    let err = |e: std::io::Error| ServeError::new(format!("journal {}: {e}", path.display()));
    match journal::resume(path, &header) {
        Ok((journal, records)) => {
            cache.extend(records.iter().filter_map(journal_entry));
            Ok(journal)
        }
        Err(ResumeError::Empty) => journal::create(path, &header).map_err(err),
        Err(ResumeError::HeaderMismatch) => Err(ServeError::new(format!(
            "journal {}: not a {JOURNAL_SCHEMA} file",
            path.display()
        ))),
        Err(ResumeError::Io(e)) => Err(err(e)),
    }
}

/// Decodes one journal record into a cache entry; `None` unless its
/// outcome is canonical, because the cached response must be
/// byte-identical to the original computation's.
fn journal_entry(j: &Json) -> Option<((String, u64), Arc<CacheEntry>)> {
    let fingerprint = j.get("fingerprint")?.as_str()?;
    let seed = j.get("seed")?.as_u64()?;
    let name = j.get("scenario")?.as_str()?;
    let outcome = j.get("outcome")?;
    ScenarioOutcome::from_journal(outcome).ok()?;
    let entry = scenario_entry(name, fingerprint, outcome.clone());
    Some(((fingerprint.to_string(), seed), Arc::new(entry)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use hotnoc_scenario::spec::ScenarioSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hotnoc-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn scenario_text(name: &str, seed: u64) -> String {
        format!(
            r#"{{
  "name": "{name}",
  "chip": {{"config": "A"}},
  "workload": {{"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 120}},
  "policy": {{"kind": "baseline"}},
  "mode": "cosim",
  "fidelity": "quick",
  "seed": {seed}
}}"#
        )
    }

    type Daemon = (
        Endpoint,
        std::thread::JoinHandle<Result<ServeSummary, ServeError>>,
    );

    /// Starts a traced daemon on a unix socket in `dir`, journaling when
    /// `journal` is set.
    fn start_daemon(dir: &Path, journal: bool) -> Daemon {
        launch(ServeOptions {
            endpoint: Endpoint::Unix(dir.join("hotnoc.sock")),
            threads: 2,
            journal: journal.then(|| dir.join("serve.journal.jsonl")),
            trace: Some(dir.join("serve.trace.jsonl")),
            spool: dir.join("spool"),
        })
    }

    /// Starts a daemon, waits until it answers pings, and returns the
    /// endpoint plus the serve() thread handle.
    fn launch(opts: ServeOptions) -> Daemon {
        let endpoint = opts.endpoint.clone();
        let handle = std::thread::spawn(move || serve(&opts));
        for _ in 0..200 {
            if client::ping(&endpoint).is_ok() {
                return (endpoint, handle);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon did not come up");
    }

    /// A `Write` that keeps every `write` call's bytes apart.
    #[derive(Default)]
    struct CallLog(Vec<Vec<u8>>);

    impl Write for CallLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_entry_makes_one_call_per_line_with_the_same_bytes() {
        let mut entry = scenario_entry("s", "fp", Json::int(7));
        let job = vec![("job".to_string(), Json::int(0))];
        entry.lines.insert(0, job);
        let mut calls = CallLog::default();
        write_entry(&mut calls, "r1", &entry).unwrap();
        let mut expected = Vec::new();
        for fields in &entry.lines {
            writeln!(expected, "{}", response_line(Some("r1"), fields)).unwrap();
        }
        assert_eq!(calls.0.len(), entry.lines.len());
        assert!(calls.0.iter().all(|call| call.ends_with(b"\n")));
        assert_eq!(calls.0.concat(), expected);
    }

    #[test]
    fn repeat_submission_is_byte_identical_and_hits_the_cache() {
        let dir = tmp_dir("roundtrip");
        let (endpoint, handle) = start_daemon(&dir, true);

        let spec = Json::parse(&scenario_text("serve-a", 11)).unwrap();
        let line = client::submit_line("req-1", &spec);
        let first = client::request(&endpoint, &line).expect("first submission");
        assert_eq!(first.len(), 1);
        assert_eq!(client::response_status(&first), 0);
        assert!(first[0].contains("\"outcome\""), "{}", first[0]);
        assert!(
            !first[0].contains("cache"),
            "responses must not mark cache state: {}",
            first[0]
        );
        let second = client::request(&endpoint, &line).expect("repeat submission");
        assert_eq!(first, second, "cached response must be byte-identical");

        // A different seed is a different key, not a hit.
        let other = Json::parse(&scenario_text("serve-a", 12)).unwrap();
        let third = client::request(&endpoint, &client::submit_line("req-1", &other)).unwrap();
        assert_ne!(first, third);

        client::shutdown(&endpoint).expect("shutdown");
        let summary = handle.join().unwrap().expect("serve exits cleanly");
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.computed, 2);
        assert_eq!(summary.cache_hits, 1);

        // The hit is evidenced on the trace plane.
        let trace = std::fs::read_to_string(dir.join("serve.trace.jsonl")).unwrap();
        let doc = TraceDoc::parse(&trace).expect("valid hotnoc-trace-v1");
        assert_eq!(doc.events.len(), 1);
        assert!(trace.contains("\"kind\": \"cache_hit\""), "{trace}");
        assert!(trace.contains("serve-a"), "{trace}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_are_counted_without_a_trace() {
        let dir = tmp_dir("untraced");
        let (endpoint, handle) = launch(ServeOptions {
            endpoint: Endpoint::Unix(dir.join("hotnoc.sock")),
            threads: 2,
            journal: None,
            trace: None,
            spool: dir.join("spool"),
        });
        let spec = Json::parse(&scenario_text("serve-u", 5)).unwrap();
        let line = client::submit_line("u", &spec);
        let first = client::request(&endpoint, &line).unwrap();
        assert_eq!(first, client::request(&endpoint, &line).unwrap());
        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!((summary.computed, summary.cache_hits), (1, 1));
        assert!(!dir.join("serve.trace.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_warm_load_survives_restart_and_drops_torn_tail() {
        let dir = tmp_dir("journal");
        let journal = dir.join("serve.journal.jsonl");
        let spec = Json::parse(&scenario_text("serve-j", 3)).unwrap();
        let line = client::submit_line("rq", &spec);

        let (endpoint, handle) = start_daemon(&dir, true);
        let first = client::request(&endpoint, &line).unwrap();
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();

        // Simulate a kill mid-append: a torn half-line at the tail.
        let mut text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.starts_with(&format!("{{\"schema\": \"{JOURNAL_SCHEMA}\"}}")));
        text.push_str("{\"fingerprint\": \"dead");
        std::fs::write(&journal, &text).unwrap();

        let (endpoint, handle) = start_daemon(&dir, true);
        let warm = client::request(&endpoint, &line).unwrap();
        assert_eq!(first, warm, "warm-loaded response must reproduce bytes");
        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.computed, 0, "journal must prevent recompute");
        assert_eq!(summary.cache_hits, 1);
        let clean = std::fs::read_to_string(&journal).unwrap();
        assert!(!clean.contains("dead"), "torn tail must be truncated");
        assert!(clean.ends_with('\n'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_and_invalid_submissions_fail_clean_without_killing_the_daemon() {
        let dir = tmp_dir("badinput");
        let (endpoint, handle) = start_daemon(&dir, false);

        // Unparsable line: status 2, connection dropped, daemon alive.
        let bad = client::request(&endpoint, "this is not json").unwrap();
        assert_eq!(client::response_status(&bad), 2);
        client::ping(&endpoint).expect("daemon survives malformed input");

        // Parsable but invalid spec: status 2 with the validator's message.
        let invalid = r#"{"id": "v1", "submit": {"name": "x"}}"#;
        let resp = client::request(&endpoint, invalid).unwrap();
        assert_eq!(client::response_status(&resp), 2);
        assert!(resp[0].contains("\"id\": \"v1\""), "{}", resp[0]);

        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.computed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_submissions_stream_jobs_and_cache_whole_responses() {
        let dir = tmp_dir("campaign");
        let (endpoint, handle) = start_daemon(&dir, false);
        let campaign = r#"{
  "schema": "hotnoc-campaign-spec-v1",
  "name": "serve-camp",
  "configs": [{"config": "A"}],
  "workloads": [{"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 100}],
  "policies": ["baseline"],
  "fidelity": "quick",
  "seeds": [1, 2],
  "seed": 9
}"#;
        let spec = Json::parse(campaign).unwrap();
        let line = client::submit_line("camp-1", &spec);
        let first = client::request(&endpoint, &line).expect("campaign submission");
        assert_eq!(first.len(), 3, "2 job lines + summary: {first:?}");
        assert!(first[0].contains("\"job\": 0"), "{}", first[0]);
        assert!(first[1].contains("\"job\": 1"), "{}", first[1]);
        assert!(first[2].contains("\"jobs\": 2"), "{}", first[2]);
        assert_eq!(client::response_status(&first), 0);
        let second = client::request(&endpoint, &line).unwrap();
        assert_eq!(first, second, "campaign responses must be byte-identical");

        client::shutdown(&endpoint).unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.computed, 1);
        assert_eq!(summary.cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submissions_during_drain_are_rejected_retryable() {
        let dir = tmp_dir("drain");
        let (endpoint, handle) = start_daemon(&dir, false);
        client::shutdown(&endpoint).unwrap();
        // The daemon may finish draining at any moment; until the socket
        // disappears, queued submissions must be rejected retryable.
        let spec = Json::parse(&scenario_text("late", 1)).unwrap();
        // A connection error means the daemon already fully drained —
        // equally clean; only an accepted request must be rejected right.
        if let Ok(lines) = client::request(&endpoint, &client::submit_line("late-1", &spec)) {
            assert_eq!(client::response_status(&lines), 1);
            assert!(lines[0].contains("\"retryable\": true"), "{}", lines[0]);
            assert!(lines[0].contains("draining"), "{}", lines[0]);
        }
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.computed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_connections_are_served_without_an_accept_poll_delay() {
        let dir = tmp_dir("accept");
        let (endpoint, handle) = start_daemon(&dir, false);
        // The total is bounded, not each ping, so one late scheduling slice
        // cannot fail the test; a 50 ms accept poll would cost about 1 s.
        let started = std::time::Instant::now();
        for _ in 0..20 {
            client::ping(&endpoint).expect("ping");
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(200),
            "20 pings on new connections took {took:?}"
        );
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_past_the_cap_is_refused_and_the_connection_closed() {
        let dir = tmp_dir("linecap");
        let (endpoint, handle) = start_daemon(&dir, false);
        let mut stream = std::os::unix::net::UnixStream::connect(dir.join("hotnoc.sock")).unwrap();
        // A daemon that never answers fails the read instead of hanging.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
        let mut reply = String::new();
        stream
            .read_to_string(&mut reply)
            .expect("one response, then EOF");
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines.len(), 1, "{reply}");
        assert!(lines[0].contains("\"status\": 2"), "{reply}");
        client::ping(&endpoint).expect("daemon survives an oversized line");
        client::shutdown(&endpoint).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_with_foreign_schema_is_refused() {
        let dir = tmp_dir("foreign");
        let journal = dir.join("serve.journal.jsonl");
        let foreign = "{\"schema\": \"hotnoc-campaign-v1\"}\n";
        std::fs::write(&journal, foreign).unwrap();
        let mut cache = Cache::new();
        let err = warm_load(&journal, &mut cache).unwrap_err();
        assert!(err.message.contains(JOURNAL_SCHEMA), "{}", err.message);
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), foreign);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_loader_verifies_canonical_outcomes() {
        let dir = tmp_dir("canon");
        let journal = dir.join("serve.journal.jsonl");
        // A decodable record whose outcome is *not* canonical (fields out
        // of canonical order — "stall_us" before "phases") must not be
        // cached, because its cached bytes could not match what the
        // computation originally streamed. The valid record after it
        // still warm-loads.
        let spec = ScenarioSpec::parse(&scenario_text("c", 1)).unwrap();
        let fp = spec.fingerprint();
        std::fs::write(
            &journal,
            format!(
                "{{\"schema\": \"{JOURNAL_SCHEMA}\"}}\n{{\"fingerprint\": \"{fp}\", \"seed\": 1, \
                 \"scenario\": \"c\", \"outcome\": {{\"kind\": \"plan-cost\", \"stall_us\": 1.5, \
                 \"phases\": 1, \"flit_hops\": 2, \"energy_uj\": 1.0, \"moves\": 3}}}}\n\
                 {{\"fingerprint\": \"{fp}\", \"seed\": 2, \"scenario\": \"c\", \"outcome\": \
                 {{\"kind\": \"plan-cost\", \"phases\": 1, \"stall_us\": 1.5, \"flit_hops\": 2, \
                 \"energy_uj\": 1, \"moves\": 3}}}}\n"
            ),
        )
        .unwrap();
        let mut cache = Cache::new();
        let _journal = warm_load(&journal, &mut cache).unwrap();
        assert!(
            !cache.contains_key(&(fp.clone(), 1)),
            "non-canonical record must not be cached"
        );
        assert!(
            cache.contains_key(&(fp, 2)),
            "the valid record after it must warm-load"
        );
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
