//! Closed-loop client for a running `hotnoc serve` daemon over at most two
//! connections.
//!
//! One thread sends cache hits over a new connection each, the way
//! `hotnoc submit` does (`client::request`). The other keeps one connection
//! open and sends its list in order: a spec the client has no response for
//! yet is a miss (the daemon computes it), every later request for it is a
//! hit. Every hit's bytes must equal the response computed for the same
//! spec; every response must have status 0.

use crate::spans::Spans;
use hotnoc_scenario::json::Json;
use hotnoc_serve::protocol::{is_terminal, Stream};
use hotnoc_serve::{request, response_status, submit_line, Endpoint};
use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

/// The request script, as `perfbench/run.py` writes it.
pub struct Script {
    /// Submission lines, one per spec (request id `r<index>`).
    lines: Vec<String>,
    /// Known responses per spec (`None` until computed).
    reference: Vec<Option<Vec<String>>>,
    /// Spec indices sent over a new connection each; all must be known.
    conn_hits: Vec<usize>,
    /// Spec indices sent in order over one kept-alive connection.
    keepalive: Vec<usize>,
}

impl Script {
    pub fn from_json(j: &Json) -> Result<Script, String> {
        let specs = j.req_array("specs")?;
        let lines: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| submit_line(&format!("r{i}"), s))
            .collect();
        let reference: Vec<Option<Vec<String>>> = match j.get("reference") {
            None => vec![None; lines.len()],
            Some(r) => r
                .as_array()
                .ok_or("reference is not an array")?
                .iter()
                .map(|e| match e {
                    Json::Null => Ok(None),
                    Json::Array(ls) => ls
                        .iter()
                        .map(|l| l.as_str().map(str::to_string).ok_or("reference line"))
                        .collect::<Result<Vec<_>, _>>()
                        .map(Some),
                    _ => Err("reference entry"),
                })
                .collect::<Result<_, _>>()?,
        };
        if reference.len() != lines.len() {
            return Err("reference and specs differ in length".to_string());
        }
        let indices = |key: &str| -> Result<Vec<usize>, String> {
            j.req_array(key)?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|i| i as usize)
                        .filter(|&i| i < lines.len())
                        .ok_or_else(|| format!("{key}: bad spec index"))
                })
                .collect()
        };
        let conn_hits = indices("conn_hits")?;
        if conn_hits.iter().any(|&i| reference[i].is_none()) {
            return Err("conn_hits may only name specs with a known response".to_string());
        }
        Ok(Script {
            keepalive: indices("keepalive")?,
            conn_hits,
            lines,
            reference,
        })
    }
}

/// What one thread of the pass observed.
#[derive(Default)]
struct Tally {
    hit_ns: Vec<u64>,
    miss_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    hit_sent: u64,
    retryable: u64,
    response_bytes: u64,
    responses: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Books one answered request; returns whether it passed its checks.
    fn answer(&mut self, index: usize, lines: &[String], expect: Option<&[String]>) -> bool {
        self.responses += lines.len() as u64;
        self.response_bytes += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        let terminal = lines.last().and_then(|l| Json::parse(l).ok());
        if terminal
            .as_ref()
            .and_then(|t| t.get("retryable"))
            .and_then(Json::as_bool)
            == Some(true)
        {
            self.retryable += 1;
        }
        if response_status(lines) != 0 {
            self.fail(format!("spec {index}: status {}", response_status(lines)));
            return false;
        }
        if let Some(expect) = expect {
            if expect != lines {
                self.fail(format!(
                    "spec {index}: hit bytes differ from the computed response"
                ));
                return false;
            }
        }
        true
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn read_response(reader: &mut impl BufRead) -> std::io::Result<Vec<String>> {
    let mut lines = Vec::new();
    loop {
        let mut l = String::new();
        if reader.read_line(&mut l)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-response",
            ));
        }
        let l = l.trim_end_matches(['\r', '\n']).to_string();
        if l.is_empty() {
            continue;
        }
        let done = is_terminal(&l);
        lines.push(l);
        if done {
            return Ok(lines);
        }
    }
}

/// Hits over a new connection each. Traced, the request is split into
/// `Endpoint::connect`, the wait for the first response byte, and the rest.
fn conn_hits(endpoint: &Endpoint, script: &Script, mut spans: Option<&mut Spans>) -> Tally {
    let mut tally = Tally::default();
    for (op, &i) in script.conn_hits.iter().enumerate() {
        tally.attempted += 1;
        tally.hit_sent += 1;
        let expect = script.reference[i].as_deref();
        let t0 = Instant::now();
        let result = match spans.as_deref_mut() {
            None => request(endpoint, &script.lines[i]),
            Some(sp) => traced_request(endpoint, &script.lines[i], sp, op as u64),
        };
        let ns = ns_since(t0);
        match result {
            Ok(lines) => {
                if tally.answer(i, &lines, expect) {
                    tally.hit_ns.push(ns);
                }
            }
            Err(e) => tally.fail(format!("spec {i}: {e}")),
        }
    }
    tally
}

fn traced_request(
    endpoint: &Endpoint,
    line: &str,
    spans: &mut Spans,
    op: u64,
) -> std::io::Result<Vec<String>> {
    let req = spans.open("serve.request", None, op);
    let stream = spans.time("serve.connect", Some(req), op, || endpoint.connect());
    let mut reader = BufReader::new(stream?);
    let first = spans.open("serve.first_byte", Some(req), op);
    let sent = send(reader.get_mut(), line).and_then(|()| reader.fill_buf().map(|_| ()));
    spans.close(first);
    let lines = sent.and_then(|()| read_response(&mut reader));
    spans.close(req);
    lines
}

fn send(stream: &mut Box<dyn Stream>, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// The kept-alive connection: misses and hits in script order.
fn keepalive(
    endpoint: &Endpoint,
    script: &Script,
    known: &mut [Option<Vec<String>>],
    mut spans: Option<&mut Spans>,
) -> Tally {
    let mut tally = Tally::default();
    let mut reader = match endpoint.connect() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            tally.attempted = script.keepalive.len() as u64;
            tally.failed = tally.attempted;
            tally.errors.push(format!("connect: {e}"));
            return tally;
        }
    };
    for (op, &i) in script.keepalive.iter().enumerate() {
        tally.attempted += 1;
        let hit = known[i].is_some();
        tally.hit_sent += u64::from(hit);
        let t0 = Instant::now();
        let span = spans.as_deref_mut().map(|sp| {
            let name = if hit {
                "serve.keepalive_hit"
            } else {
                "serve.miss"
            };
            let id = sp.open(name, None, op as u64);
            (id, sp.open("serve.first_byte", Some(id), op as u64))
        });
        let sent = send(reader.get_mut(), &script.lines[i]);
        let first = sent.and_then(|()| reader.fill_buf().map(|_| ()));
        if let (Some(sp), Some((_, fb))) = (spans.as_deref_mut(), span) {
            sp.close(fb);
        }
        let result = first.and_then(|()| read_response(&mut reader));
        let ns = ns_since(t0);
        if let (Some(sp), Some((id, _))) = (spans.as_deref_mut(), span) {
            sp.close(id);
        }
        match result {
            Ok(lines) => {
                if tally.answer(i, &lines, known[i].as_deref()) {
                    if hit {
                        tally.hit_ns.push(ns);
                    } else {
                        tally.miss_ns.push(ns);
                        known[i] = Some(lines);
                    }
                }
            }
            Err(e) => {
                // The stream is unusable; the rest of the list fails.
                let left = (script.keepalive.len() - op) as u64;
                tally.attempted += left - 1;
                tally.failed += left - 1;
                tally.fail(format!("spec {i}: {e}"));
                break;
            }
        }
    }
    tally
}

fn ns_list(v: &[u64]) -> Json {
    Json::Array(v.iter().map(|&n| Json::int(n)).collect())
}

/// Runs one pass of `script` against the daemon at `endpoint`.
pub fn run_pass(endpoint: &Endpoint, script: &Script, traced: bool) -> Json {
    let origin = Instant::now();
    let mut known = script.reference.clone();
    let (mut conn_spans, mut ka_spans) = (Spans::with_origin(origin), Spans::with_origin(origin));
    let (conn, ka, keepalive_ns) = std::thread::scope(|s| {
        let conn = s.spawn(|| conn_hits(endpoint, script, traced.then_some(&mut conn_spans)));
        let t0 = Instant::now();
        let ka = keepalive(
            endpoint,
            script,
            &mut known,
            traced.then_some(&mut ka_spans),
        );
        let keepalive_ns = ns_since(t0);
        (
            conn.join().expect("new-connection client thread panicked"),
            ka,
            keepalive_ns,
        )
    });
    let pass_ns = ns_since(origin);

    let mut spans = Spans::with_origin(origin);
    spans.append(conn_spans);
    spans.append(ka_spans);
    let mut json_bytes = 0u64;
    if traced {
        // The daemon's JSON work, replayed on identical inputs: it parses
        // every request line and renders every response line.
        let sent: Vec<usize> = script
            .conn_hits
            .iter()
            .chain(&script.keepalive)
            .copied()
            .collect();
        spans.time("scenario.json_parse", None, 0, || {
            for &i in &sent {
                std::hint::black_box(Json::parse(&script.lines[i]).ok());
            }
        });
        let rendered: Vec<Json> = sent
            .iter()
            .filter_map(|&i| known[i].as_ref())
            .flatten()
            .filter_map(|l| Json::parse(l).ok())
            .collect();
        json_bytes = spans.time("scenario.json_encode", None, 0, || {
            rendered.iter().map(|j| j.to_string().len() as u64).sum()
        });
    }

    let total = |f: fn(&Tally) -> u64| f(&conn) + f(&ka);
    let errors: Vec<Json> = conn
        .errors
        .iter()
        .chain(&ka.errors)
        .map(|e| Json::str(e))
        .collect();
    Json::object(vec![
        ("pass_ns", Json::int(pass_ns)),
        ("keepalive_ns", Json::int(keepalive_ns)),
        ("conn_hit_ns", ns_list(&conn.hit_ns)),
        ("keepalive_hit_ns", ns_list(&ka.hit_ns)),
        ("miss_ns", ns_list(&ka.miss_ns)),
        ("attempted", Json::int(total(|t| t.attempted))),
        ("failed", Json::int(total(|t| t.failed))),
        ("hit_requests", Json::int(total(|t| t.hit_sent))),
        ("retryable", Json::int(total(|t| t.retryable))),
        ("responses", Json::int(total(|t| t.responses))),
        ("response_bytes", Json::int(total(|t| t.response_bytes))),
        ("json_bytes", Json::int(json_bytes)),
        ("errors", Json::Array(errors)),
        (
            "reference",
            Json::Array(
                known
                    .iter()
                    .map(|r| match r {
                        None => Json::Null,
                        Some(ls) => Json::Array(ls.iter().map(|l| Json::str(l)).collect()),
                    })
                    .collect(),
            ),
        ),
        ("spans", spans.to_json()),
    ])
}
