//! Parsers never panic, whatever bytes they get, and canonical documents
//! round-trip exactly. A seeded battery feeds random bytes and byte and
//! number mutations of canonical documents — every builtin campaign and its
//! expanded jobs, traces, a campaign artifact, its manifest, shard
//! coordinates and serve request lines — to every parser that reads them
//! from outside: `Json::parse`, `ScenarioSpec::parse` + `validate`,
//! `CampaignSpec::parse` + `validate`, `TraceDoc::parse`,
//! `parse_campaign_document`, `Shard::parse`, the serve `decode_request`
//! and `journal::resume` over a file holding the bytes.

use hotnoc_core::configs::Fidelity;
use hotnoc_scenario::builtin::{builtin, BUILTINS};
use hotnoc_scenario::journal;
use hotnoc_scenario::json::Json;
use hotnoc_scenario::runner::{campaign_json, parse_campaign_document, run_campaign};
use hotnoc_scenario::{
    run_scenario_traced, CampaignSpec, RunnerOptions, ScenarioSpec, Shard, TraceDoc,
};
use hotnoc_serve::protocol::decode_request;
use hotnoc_serve::{Request, Submission};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Mutants drawn per canonical document.
const MUTANTS_PER_DOC: usize = 48;

/// Random byte strings fed on their own.
const RANDOM_INPUTS: usize = 2000;

/// SplitMix64, the battery's only source of randomness.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A byte, biased toward JSON's structural characters.
    fn byte(&mut self) -> u8 {
        const JSONISH: &[u8] = b"{}[]\":,\\-+.0123456789eEtrufalsn \n";
        match self.below(3) {
            0 => self.next() as u8,
            _ => JSONISH[self.below(JSONISH.len())],
        }
    }
}

/// Numbers that probe range, precision and syntax edges.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-1",
    "0.5",
    "1e999",
    "-1e999",
    "1e-999",
    "255",
    "256",
    "65",
    "4294967296",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1.7976931348623157e308",
    "00",
    "1.",
    ".5",
    "1e",
    "NaN",
    "",
];

/// One to three byte-level or number mutations of `doc`.
fn mutate(doc: &[u8], d: &mut Draw) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..=d.below(3) {
        let at = d.below(out.len() + 1);
        match d.below(6) {
            0 if at < out.len() => out[at] = d.byte(),
            1 => {
                let end = (at + 1 + d.below(8)).min(out.len());
                out.drain(at..end);
            }
            2 => {
                let bytes: Vec<u8> = (0..=d.below(4)).map(|_| d.byte()).collect();
                out.splice(at..at, bytes);
            }
            3 => out.truncate(at),
            4 if at < out.len() => {
                let end = (at + 1 + d.below(32)).min(out.len());
                let copy = out[at..end].to_vec();
                out.splice(at..at, copy);
            }
            _ => replace_number(&mut out, d),
        }
    }
    out
}

/// Replaces one numeric token of `doc` with an entry of [`NUMBERS`].
fn replace_number(doc: &mut Vec<u8>, d: &mut Draw) {
    let numeric = |b: u8| b.is_ascii_digit() || b"-+.eE".contains(&b);
    let starts: Vec<usize> = (0..doc.len())
        .filter(|&i| doc[i].is_ascii_digit() && (i == 0 || !numeric(doc[i - 1])))
        .collect();
    if starts.is_empty() {
        return;
    }
    let start = starts[d.below(starts.len())];
    let end = (start..doc.len())
        .find(|&i| !numeric(doc[i]))
        .unwrap_or(doc.len());
    let number = NUMBERS[d.below(NUMBERS.len())].bytes();
    doc.splice(start..end, number);
}

/// Feeds `bytes` to every parser; each may reject them, none may panic.
fn feed(bytes: &[u8], journal_path: &Path, header: &Json) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(j) = Json::parse(&text) {
        let _ = j.to_string();
        let _ = decode_request(&j);
    }
    if let Ok(spec) = ScenarioSpec::parse(&text) {
        let _ = spec.validate();
    }
    if let Ok(spec) = CampaignSpec::parse(&text) {
        let _ = spec.validate();
    }
    let _ = TraceDoc::parse(&text);
    let _ = parse_campaign_document(&text);
    let _ = Shard::parse(&text);
    std::fs::write(journal_path, bytes).expect("write journal bytes");
    let _ = journal::resume(journal_path, header);
}

/// [`feed`], reporting the input that panicked.
fn feed_or_report(label: &str, bytes: &[u8], journal_path: &Path, header: &Json) {
    let fed = catch_unwind(AssertUnwindSafe(|| feed(bytes, journal_path, header)));
    assert!(
        fed.is_ok(),
        "{label}: a parser panicked on {:?}",
        String::from_utf8_lossy(bytes)
    );
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotnoc-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// A serve request line re-encoded from its decoded form.
fn request_line(request: &Request) -> String {
    let fields = match request {
        Request::Ping => vec![("op", Json::str("ping"))],
        Request::Shutdown => vec![("op", Json::str("shutdown"))],
        Request::Submit { id, submission } => {
            let spec = match submission.as_ref() {
                Submission::Scenario(s) => s.to_json(),
                Submission::Campaign(c) => c.to_json(),
            };
            vec![("id", Json::str(id)), ("submit", spec)]
        }
    };
    Json::object(fields).to_string()
}

/// Every canonical document, each checked to re-serialize to exactly its
/// own bytes, labelled. Also returns the manifest's header line.
fn canonical_documents(dir: &Path) -> (Vec<(String, String)>, Json) {
    let mut docs = Vec::new();
    for (name, _) in BUILTINS {
        let spec = builtin(name, Fidelity::Quick).expect("builtin resolves");
        let text = spec.to_json().to_string();
        let back = CampaignSpec::parse(&text).expect("builtin parses");
        assert_eq!(back.to_json().to_string(), text, "builtin {name}");
        for job in spec.expand() {
            let text = job.to_json().to_string();
            let back = ScenarioSpec::parse(&text).expect("job parses");
            assert_eq!(back.to_json().to_string(), text, "job {}", job.name);
            docs.push((format!("job {}", job.name), text));
        }
        docs.push((
            format!("request {name}"),
            format!(r#"{{"id": "{name}", "submit": {text}}}"#),
        ));
        docs.push((format!("builtin {name}"), text));
    }
    let scenario = r#"{"id": "one", "submit": {"name": "one", "chip": {"config": "A"},
        "workload": {"kind": "ldpc"}, "policy": {"kind": "adaptive", "period_blocks": 4},
        "mode": "cosim", "fidelity": "quick", "sim_time_ms": 0.3, "seed": 3}}"#;
    for line in [r#"{"op": "ping"}"#, r#"{"op": "shutdown"}"#, scenario] {
        let line = Json::parse(line).expect("request parses").to_string();
        docs.push(("request".to_string(), line));
    }
    for (label, line) in docs
        .iter()
        .filter(|(label, _)| label.starts_with("request"))
    {
        let request = decode_request(&Json::parse(line).unwrap()).expect("request decodes");
        assert_eq!(&request_line(&request), line, "{label}");
    }
    for shard in ["0/1", "1/2", "7/8"] {
        let parsed = Shard::parse(shard).expect("shard parses");
        assert_eq!(parsed.to_string(), shard);
        docs.push(("shard".to_string(), shard.to_string()));
    }
    let traffic = ScenarioSpec::parse(
        r#"{"name": "faulty", "chip": {"config": "A"}, "workload": {"kind": "traffic",
        "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 200},
        "policy": {"kind": "baseline"}, "mode": "cosim", "fidelity": "quick", "seed": 5,
        "faults": [{"at": 50, "fail_router": [1, 1]}, {"at": 120, "repair_router": [1, 1]}]}"#,
    )
    .expect("traffic spec parses");
    let ldpc = ScenarioSpec::parse(
        &Json::parse(scenario)
            .unwrap()
            .req("submit")
            .unwrap()
            .to_string(),
    )
    .expect("ldpc spec parses");
    for spec in [traffic, ldpc] {
        let (_, events) = run_scenario_traced(&spec).expect("traced run");
        // A whole trace, and its first events: in a short document a
        // mutation lands on the header as often as on an event.
        for events in [events[..3].to_vec(), events] {
            let text = TraceDoc::new(&spec.name, events).to_jsonl();
            let back = TraceDoc::parse(&text).expect("trace parses");
            assert_eq!(back.to_jsonl(), text, "trace {}", spec.name);
            docs.push((format!("trace {}", spec.name), text));
        }
    }
    let campaign = CampaignSpec::parse(
        r#"{"schema": "hotnoc-campaign-spec-v1", "name": "fuzz", "seed": 9,
        "fidelity": "quick", "configs": [{"config": "A"}],
        "workloads": [{"kind": "traffic", "pattern": "transpose", "rate": 0.05,
        "packet_len": 2, "cycles": 120}], "policies": ["baseline"], "seeds": [1, 2]}"#,
    )
    .expect("campaign parses");
    let opts = RunnerOptions {
        threads: 1,
        out_dir: dir.join("campaign"),
        ..RunnerOptions::default()
    };
    let run = run_campaign(&campaign, &opts).expect("campaign runs");
    let artifact = std::fs::read_to_string(run.json_path.expect("artifact")).unwrap();
    let doc = parse_campaign_document(&artifact).expect("artifact parses");
    assert_eq!(campaign_json(&doc.spec, &doc.records), artifact, "artifact");
    let manifest = std::fs::read_to_string(&run.manifest_path).unwrap();
    for line in manifest.lines() {
        assert_eq!(Json::parse(line).expect("line parses").to_string(), line);
    }
    let header = Json::parse(manifest.lines().next().expect("header")).unwrap();
    std::fs::write(dir.join("copy.jsonl"), &manifest).unwrap();
    let (_, records) = journal::resume(&dir.join("copy.jsonl"), &header).expect("resumes");
    assert_eq!(records.len(), 2, "one record per job");
    docs.push(("artifact".to_string(), artifact));
    docs.push(("manifest".to_string(), manifest));
    (docs, header)
}

#[test]
fn parsers_never_panic_and_canonical_documents_round_trip() {
    let dir = tmp_dir("parsers");
    let (docs, header) = canonical_documents(&dir);
    let journal_path = dir.join("journal.jsonl");
    let mut d = Draw(0x0f0a_2024);
    for (label, doc) in &docs {
        feed_or_report(label, doc.as_bytes(), &journal_path, &header);
        for _ in 0..MUTANTS_PER_DOC {
            let mutant = mutate(doc.as_bytes(), &mut d);
            feed_or_report(label, &mutant, &journal_path, &header);
        }
    }
    for _ in 0..RANDOM_INPUTS {
        let bytes: Vec<u8> = (0..d.below(200)).map(|_| d.byte()).collect();
        feed_or_report("random bytes", &bytes, &journal_path, &header);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
