//! `hotnoc-trace-v1` serialization, validation, summarisation and Chrome
//! trace-event export, plus the `hotnoc-profile-v1` sidecar writer.
//!
//! A trace file is JSONL: a header line
//! `{"schema": "hotnoc-trace-v1", "name": ..., "events": N}` followed by
//! one canonical-JSON object per event, ordered by non-descending sim
//! cycle. Traces are part of the byte-determinism guarantee — the same
//! scenario produces identical trace bytes at any `HOTNOC_THREADS` and
//! across kill/resume. Profiles are the opposite: wall-clock timing
//! snapshots, explicitly non-deterministic, and kept in a separate file so
//! the two planes can never be confused. See `docs/OBSERVABILITY.md`.

use crate::json::Json;
use hotnoc_obs::prof::ProfileReport;
use hotnoc_obs::TraceEvent;

/// Schema tag of the deterministic event-trace JSONL artifact.
pub const TRACE_SCHEMA: &str = "hotnoc-trace-v1";

/// Schema tag of the non-deterministic timing sidecar.
pub const PROFILE_SCHEMA: &str = "hotnoc-profile-v1";

/// A parsed (or about-to-be-written) trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDoc {
    /// Scenario / job name from the header line.
    pub name: String,
    /// The events, in file order (non-descending cycle).
    pub events: Vec<TraceEvent>,
}

impl TraceDoc {
    /// Wraps a finished event list under `name`.
    pub fn new(name: &str, events: Vec<TraceEvent>) -> TraceDoc {
        TraceDoc {
            name: name.to_string(),
            events,
        }
    }

    /// Serializes to `hotnoc-trace-v1` JSONL (trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = Json::object(vec![
            ("schema", Json::str(TRACE_SCHEMA)),
            ("name", Json::str(&self.name)),
            ("events", Json::int(self.events.len() as u64)),
        ])
        .to_string();
        out.push('\n');
        for ev in &self.events {
            out.push_str(&event_to_json(ev).to_string());
            out.push('\n');
        }
        out
    }

    /// Parses and validates a `hotnoc-trace-v1` document: header schema and
    /// name, per-line event decode, event-count match, and non-descending
    /// cycle order.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn parse(text: &str) -> Result<TraceDoc, String> {
        let mut lines = text.lines();
        let header_line = lines.next().ok_or("empty trace file")?;
        let header = Json::parse(header_line).map_err(|e| format!("header: {e}"))?;
        let schema = header.req_str("schema")?;
        if schema != TRACE_SCHEMA {
            return Err(format!("schema {schema:?} is not {TRACE_SCHEMA:?}"));
        }
        let name = header.req_str("name")?.to_string();
        let declared = header.req_u64("events")?;
        let mut events = Vec::new();
        let mut last_cycle = 0u64;
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
            let ev = event_from_json(&v).map_err(|e| format!("line {}: {e}", i + 2))?;
            if ev.cycle() < last_cycle {
                return Err(format!(
                    "line {}: cycle {} after cycle {} — trace not in sim-time order",
                    i + 2,
                    ev.cycle(),
                    last_cycle
                ));
            }
            last_cycle = ev.cycle();
            events.push(ev);
        }
        if events.len() as u64 != declared {
            return Err(format!(
                "header declares {declared} events but file holds {}",
                events.len()
            ));
        }
        Ok(TraceDoc { name, events })
    }

    /// Final sim cycle covered by the trace (0 when empty).
    pub fn last_cycle(&self) -> u64 {
        self.events.iter().map(TraceEvent::cycle).max().unwrap_or(0)
    }

    /// Human summary: totals, cycle span, per-kind counts and the top-N
    /// congestion windows by peak occupancy.
    pub fn summary(&self, top_n: usize) -> String {
        let first = self.events.first().map_or(0, TraceEvent::cycle);
        let mut out = format!(
            "trace {}: {} events, cycles {}..{}\n",
            self.name,
            self.events.len(),
            first,
            self.last_cycle()
        );
        for kind in TraceEvent::KINDS {
            let n = self.events.iter().filter(|e| e.kind() == kind).count();
            if n > 0 {
                out.push_str(&format!("  {kind:<16} {n}\n"));
            }
        }
        let mut windows: Vec<(u64, u64, u64, u64, u8, u8)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Congestion {
                    cycle,
                    window_start,
                    peak,
                    peak_cycle,
                    x,
                    y,
                } => Some((peak, window_start, cycle, peak_cycle, x, y)),
                _ => None,
            })
            .collect();
        windows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        if !windows.is_empty() {
            out.push_str("top congestion windows:\n");
            for (peak, start, end, peak_cycle, x, y) in windows.into_iter().take(top_n) {
                out.push_str(&format!(
                    "  peak {peak} flits at router ({x},{y}), window {start}..{end} (peak at cycle {peak_cycle})\n"
                ));
            }
        }
        out
    }

    /// Renders the trace as Chrome trace-event JSON (the Perfetto / legacy
    /// `chrome://tracing` format): one process, one named track per
    /// subsystem, 1 sim cycle = 1 µs. Fault fail/repair pairs fold into
    /// duration events; unrepaired faults extend to the end of the trace.
    pub fn chrome_trace_json(&self) -> String {
        const RUNNER: u64 = 1;
        const NOC: u64 = 2;
        const THERMAL: u64 = 3;
        const RECONFIG: u64 = 4;
        let mut events: Vec<Json> = [
            (RUNNER, "runner"),
            (NOC, "noc"),
            (THERMAL, "thermal"),
            (RECONFIG, "reconfig"),
        ]
        .into_iter()
        .map(|(tid, label)| {
            Json::object(vec![
                ("ph", Json::str("M")),
                ("pid", Json::int(0)),
                ("tid", Json::int(tid)),
                ("name", Json::str("thread_name")),
                ("args", Json::object(vec![("name", Json::str(label))])),
            ])
        })
        .collect();
        let end = self.last_cycle();
        let instant = |tid: u64, ts: u64, name: String, args: Vec<(&str, Json)>| {
            Json::object(vec![
                ("ph", Json::str("i")),
                ("pid", Json::int(0)),
                ("tid", Json::int(tid)),
                ("ts", Json::int(ts)),
                ("s", Json::str("t")),
                ("name", Json::Str(name)),
                ("args", Json::object(args)),
            ])
        };
        let span = |tid: u64, ts: u64, dur: u64, name: String, args: Vec<(&str, Json)>| {
            Json::object(vec![
                ("ph", Json::str("X")),
                ("pid", Json::int(0)),
                ("tid", Json::int(tid)),
                ("ts", Json::int(ts)),
                ("dur", Json::int(dur)),
                ("name", Json::Str(name)),
                ("args", Json::object(args)),
            ])
        };
        let counter = |ts: u64, name: &str, key: &str, value: u64| {
            Json::object(vec![
                ("ph", Json::str("C")),
                ("pid", Json::int(0)),
                ("ts", Json::int(ts)),
                ("name", Json::str(name)),
                ("args", Json::object(vec![(key, Json::int(value))])),
            ])
        };
        // Open fail spans awaiting their repair: (key, start cycle, label).
        let mut open: Vec<(String, u64, String)> = Vec::new();
        let close =
            |open: &mut Vec<(String, u64, String)>, events: &mut Vec<Json>, key: &str, now: u64| {
                if let Some(i) = open.iter().position(|(k, _, _)| k == key) {
                    let (_, start, label) = open.remove(i);
                    events.push(span(NOC, start, now - start, label, vec![]));
                }
            };
        let mut job_starts: Vec<(u64, u64)> = Vec::new();
        for ev in &self.events {
            match ev {
                TraceEvent::JobStart { cycle, job, .. } => job_starts.push((*job, *cycle)),
                TraceEvent::JobFinish { cycle, job, name } => {
                    let start = job_starts
                        .iter()
                        .find(|(j, _)| j == job)
                        .map_or(0, |(_, c)| *c);
                    events.push(span(
                        RUNNER,
                        start,
                        cycle - start,
                        format!("job {job}: {name}"),
                        vec![("job", Json::int(*job))],
                    ));
                }
                TraceEvent::ShardProgress {
                    cycle,
                    shard,
                    shard_count,
                    position,
                    stripe_len,
                } => events.push(instant(
                    RUNNER,
                    *cycle,
                    format!("shard {shard}/{shard_count} job {position}/{stripe_len}"),
                    vec![
                        ("shard", Json::int(*shard)),
                        ("position", Json::int(*position)),
                    ],
                )),
                TraceEvent::RouterFailed { cycle, x, y } => open.push((
                    format!("r{x},{y}"),
                    *cycle,
                    format!("router ({x},{y}) down"),
                )),
                TraceEvent::RouterRepaired { cycle, x, y } => {
                    close(&mut open, &mut events, &format!("r{x},{y}"), *cycle);
                }
                TraceEvent::LinkFailed {
                    cycle,
                    ax,
                    ay,
                    bx,
                    by,
                } => open.push((
                    format!("l{ax},{ay},{bx},{by}"),
                    *cycle,
                    format!("link ({ax},{ay})-({bx},{by}) down"),
                )),
                TraceEvent::LinkRepaired {
                    cycle,
                    ax,
                    ay,
                    bx,
                    by,
                } => {
                    close(
                        &mut open,
                        &mut events,
                        &format!("l{ax},{ay},{bx},{by}"),
                        *cycle,
                    );
                }
                TraceEvent::FaultEpoch {
                    cycle,
                    epoch,
                    routers_down,
                    links_down,
                    packets_dropped,
                    flits_dropped,
                } => events.push(instant(
                    NOC,
                    *cycle,
                    format!("fault epoch {epoch}"),
                    vec![
                        ("routers_down", Json::int(*routers_down)),
                        ("links_down", Json::int(*links_down)),
                        ("packets_dropped", Json::int(*packets_dropped)),
                        ("flits_dropped", Json::int(*flits_dropped)),
                    ],
                )),
                TraceEvent::PacketDrop { cycle, x, y, flits } => events.push(instant(
                    NOC,
                    *cycle,
                    format!("packet drop at ({x},{y})"),
                    vec![("flits", Json::int(*flits))],
                )),
                TraceEvent::DetourBurst { cycle, hops } => {
                    events.push(counter(*cycle, "detour_hops", "hops", *hops));
                }
                TraceEvent::Congestion { cycle, peak, .. } => {
                    events.push(counter(*cycle, "congestion_peak", "flits", *peak));
                }
                TraceEvent::TempCrossing {
                    cycle,
                    node,
                    temp_c,
                    rising,
                    ..
                } => events.push(instant(
                    THERMAL,
                    *cycle,
                    format!(
                        "node {node} {} threshold",
                        if *rising { "above" } else { "below" }
                    ),
                    vec![("temp_c", Json::Num(*temp_c))],
                )),
                TraceEvent::PolicyDecision {
                    cycle,
                    decision,
                    scheme,
                } => events.push(instant(
                    RECONFIG,
                    *cycle,
                    format!("decision {decision}: {scheme}"),
                    vec![],
                )),
                TraceEvent::CacheHit {
                    cycle,
                    fingerprint,
                    name,
                } => events.push(instant(
                    RUNNER,
                    *cycle,
                    format!("cache hit: {name}"),
                    vec![("fingerprint", Json::str(fingerprint))],
                )),
                TraceEvent::Migration {
                    cycle,
                    scheme,
                    phases,
                    flit_hops,
                    stall_cycles,
                    energy_j,
                } => events.push(span(
                    RECONFIG,
                    *cycle,
                    *stall_cycles,
                    format!("migration: {scheme}"),
                    vec![
                        ("phases", Json::int(*phases)),
                        ("flit_hops", Json::int(*flit_hops)),
                        ("energy_j", Json::Num(*energy_j)),
                    ],
                )),
            }
        }
        for (_, start, label) in open {
            events.push(span(NOC, start, end.saturating_sub(start), label, vec![]));
        }
        Json::object(vec![
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .to_string()
    }
}

/// Serializes one event as a canonical JSON object (`kind` first, then
/// `cycle`, then the payload fields in declaration order).
pub fn event_to_json(ev: &TraceEvent) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("kind", Json::str(ev.kind())),
        ("cycle", Json::int(ev.cycle())),
    ];
    match ev {
        TraceEvent::JobStart { job, name, .. } | TraceEvent::JobFinish { job, name, .. } => {
            fields.push(("job", Json::int(*job)));
            fields.push(("name", Json::str(name)));
        }
        TraceEvent::ShardProgress {
            shard,
            shard_count,
            position,
            stripe_len,
            ..
        } => {
            fields.push(("shard", Json::int(*shard)));
            fields.push(("shard_count", Json::int(*shard_count)));
            fields.push(("position", Json::int(*position)));
            fields.push(("stripe_len", Json::int(*stripe_len)));
        }
        TraceEvent::RouterFailed { x, y, .. } | TraceEvent::RouterRepaired { x, y, .. } => {
            fields.push(("x", Json::int(u64::from(*x))));
            fields.push(("y", Json::int(u64::from(*y))));
        }
        TraceEvent::LinkFailed { ax, ay, bx, by, .. }
        | TraceEvent::LinkRepaired { ax, ay, bx, by, .. } => {
            fields.push(("ax", Json::int(u64::from(*ax))));
            fields.push(("ay", Json::int(u64::from(*ay))));
            fields.push(("bx", Json::int(u64::from(*bx))));
            fields.push(("by", Json::int(u64::from(*by))));
        }
        TraceEvent::FaultEpoch {
            epoch,
            routers_down,
            links_down,
            packets_dropped,
            flits_dropped,
            ..
        } => {
            fields.push(("epoch", Json::int(*epoch)));
            fields.push(("routers_down", Json::int(*routers_down)));
            fields.push(("links_down", Json::int(*links_down)));
            fields.push(("packets_dropped", Json::int(*packets_dropped)));
            fields.push(("flits_dropped", Json::int(*flits_dropped)));
        }
        TraceEvent::PacketDrop { x, y, flits, .. } => {
            fields.push(("x", Json::int(u64::from(*x))));
            fields.push(("y", Json::int(u64::from(*y))));
            fields.push(("flits", Json::int(*flits)));
        }
        TraceEvent::DetourBurst { hops, .. } => fields.push(("hops", Json::int(*hops))),
        TraceEvent::Congestion {
            window_start,
            peak,
            peak_cycle,
            x,
            y,
            ..
        } => {
            fields.push(("window_start", Json::int(*window_start)));
            fields.push(("peak", Json::int(*peak)));
            fields.push(("peak_cycle", Json::int(*peak_cycle)));
            fields.push(("x", Json::int(u64::from(*x))));
            fields.push(("y", Json::int(u64::from(*y))));
        }
        TraceEvent::TempCrossing {
            node,
            temp_c,
            threshold_c,
            rising,
            ..
        } => {
            fields.push(("node", Json::int(*node)));
            fields.push(("temp_c", Json::Num(*temp_c)));
            fields.push(("threshold_c", Json::Num(*threshold_c)));
            fields.push(("rising", Json::Bool(*rising)));
        }
        TraceEvent::PolicyDecision {
            decision, scheme, ..
        } => {
            fields.push(("decision", Json::int(*decision)));
            fields.push(("scheme", Json::str(scheme)));
        }
        TraceEvent::CacheHit {
            fingerprint, name, ..
        } => {
            fields.push(("fingerprint", Json::str(fingerprint)));
            fields.push(("name", Json::str(name)));
        }
        TraceEvent::Migration {
            scheme,
            phases,
            flit_hops,
            stall_cycles,
            energy_j,
            ..
        } => {
            fields.push(("scheme", Json::str(scheme)));
            fields.push(("phases", Json::int(*phases)));
            fields.push(("flit_hops", Json::int(*flit_hops)));
            fields.push(("stall_cycles", Json::int(*stall_cycles)));
            fields.push(("energy_j", Json::Num(*energy_j)));
        }
    }
    Json::object(fields)
}

fn req_u8(v: &Json, key: &str) -> Result<u8, String> {
    u8::try_from(v.req_u64(key)?).map_err(|_| format!("field {key:?} exceeds u8"))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.req(key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a bool"))
}

/// Decodes one serialized event object back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a description of the first missing or ill-typed field.
pub fn event_from_json(v: &Json) -> Result<TraceEvent, String> {
    let kind = v.req_str("kind")?;
    let cycle = v.req_u64("cycle")?;
    Ok(match kind {
        "job_start" => TraceEvent::JobStart {
            cycle,
            job: v.req_u64("job")?,
            name: v.req_str("name")?.to_string(),
        },
        "job_finish" => TraceEvent::JobFinish {
            cycle,
            job: v.req_u64("job")?,
            name: v.req_str("name")?.to_string(),
        },
        "shard_progress" => TraceEvent::ShardProgress {
            cycle,
            shard: v.req_u64("shard")?,
            shard_count: v.req_u64("shard_count")?,
            position: v.req_u64("position")?,
            stripe_len: v.req_u64("stripe_len")?,
        },
        "router_failed" => TraceEvent::RouterFailed {
            cycle,
            x: req_u8(v, "x")?,
            y: req_u8(v, "y")?,
        },
        "router_repaired" => TraceEvent::RouterRepaired {
            cycle,
            x: req_u8(v, "x")?,
            y: req_u8(v, "y")?,
        },
        "link_failed" => TraceEvent::LinkFailed {
            cycle,
            ax: req_u8(v, "ax")?,
            ay: req_u8(v, "ay")?,
            bx: req_u8(v, "bx")?,
            by: req_u8(v, "by")?,
        },
        "link_repaired" => TraceEvent::LinkRepaired {
            cycle,
            ax: req_u8(v, "ax")?,
            ay: req_u8(v, "ay")?,
            bx: req_u8(v, "bx")?,
            by: req_u8(v, "by")?,
        },
        "fault_epoch" => TraceEvent::FaultEpoch {
            cycle,
            epoch: v.req_u64("epoch")?,
            routers_down: v.req_u64("routers_down")?,
            links_down: v.req_u64("links_down")?,
            packets_dropped: v.req_u64("packets_dropped")?,
            flits_dropped: v.req_u64("flits_dropped")?,
        },
        "packet_drop" => TraceEvent::PacketDrop {
            cycle,
            x: req_u8(v, "x")?,
            y: req_u8(v, "y")?,
            flits: v.req_u64("flits")?,
        },
        "detour_burst" => TraceEvent::DetourBurst {
            cycle,
            hops: v.req_u64("hops")?,
        },
        "congestion" => TraceEvent::Congestion {
            cycle,
            window_start: v.req_u64("window_start")?,
            peak: v.req_u64("peak")?,
            peak_cycle: v.req_u64("peak_cycle")?,
            x: req_u8(v, "x")?,
            y: req_u8(v, "y")?,
        },
        "temp_crossing" => TraceEvent::TempCrossing {
            cycle,
            node: v.req_u64("node")?,
            temp_c: v.req_f64("temp_c")?,
            threshold_c: v.req_f64("threshold_c")?,
            rising: req_bool(v, "rising")?,
        },
        "policy_decision" => TraceEvent::PolicyDecision {
            cycle,
            decision: v.req_u64("decision")?,
            scheme: v.req_str("scheme")?.to_string(),
        },
        "cache_hit" => TraceEvent::CacheHit {
            cycle,
            fingerprint: v.req_str("fingerprint")?.to_string(),
            name: v.req_str("name")?.to_string(),
        },
        "migration" => TraceEvent::Migration {
            cycle,
            scheme: v.req_str("scheme")?.to_string(),
            phases: v.req_u64("phases")?,
            flit_hops: v.req_u64("flit_hops")?,
            stall_cycles: v.req_u64("stall_cycles")?,
            energy_j: v.req_f64("energy_j")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    })
}

/// Serializes a profiler snapshot as the `hotnoc-profile-v1` sidecar.
/// Wall-clock numbers: the document is explicitly **not** deterministic
/// and must never be compared byte-for-byte or folded into campaign
/// artifacts.
pub fn profile_json(report: &ProfileReport) -> String {
    let clamp = |n: u64| Json::int(n.min(1 << 53));
    let phases: Vec<Json> = report
        .phases
        .iter()
        .map(|p| {
            Json::object(vec![
                ("name", Json::str(&p.name)),
                ("calls", clamp(p.calls)),
                ("total_ns", clamp(p.total_ns)),
                ("mean_ns", Json::Num(p.mean_ns)),
                ("p50_ns", clamp(p.p50_ns)),
                ("p95_ns", clamp(p.p95_ns)),
            ])
        })
        .collect();
    let mut out = Json::object(vec![
        ("schema", Json::str(PROFILE_SCHEMA)),
        ("deterministic", Json::Bool(false)),
        (
            "note",
            Json::str("wall-clock timings; outside the byte-determinism guarantee"),
        ),
        ("phases", Json::Array(phases)),
    ])
    .to_string();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::JobStart {
                cycle: 0,
                job: 3,
                name: "smoke".into(),
            },
            TraceEvent::RouterFailed {
                cycle: 10,
                x: 1,
                y: 2,
            },
            TraceEvent::FaultEpoch {
                cycle: 10,
                epoch: 1,
                routers_down: 1,
                links_down: 0,
                packets_dropped: 2,
                flits_dropped: 8,
            },
            TraceEvent::PacketDrop {
                cycle: 12,
                x: 1,
                y: 2,
                flits: 4,
            },
            TraceEvent::DetourBurst { cycle: 20, hops: 6 },
            TraceEvent::Congestion {
                cycle: 63,
                window_start: 0,
                peak: 9,
                peak_cycle: 41,
                x: 2,
                y: 2,
            },
            TraceEvent::TempCrossing {
                cycle: 80,
                node: 5,
                temp_c: 70.25,
                threshold_c: 70.0,
                rising: true,
            },
            TraceEvent::PolicyDecision {
                cycle: 90,
                decision: 1,
                scheme: "rotation".into(),
            },
            TraceEvent::Migration {
                cycle: 90,
                scheme: "rotation".into(),
                phases: 4,
                flit_hops: 128,
                stall_cycles: 210,
                energy_j: 1.5e-7,
            },
            TraceEvent::RouterRepaired {
                cycle: 95,
                x: 1,
                y: 2,
            },
            TraceEvent::JobFinish {
                cycle: 95,
                job: 3,
                name: "smoke".into(),
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_is_byte_stable() {
        let doc = TraceDoc::new("smoke", sample_events());
        let text = doc.to_jsonl();
        let back = TraceDoc::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.to_jsonl(), text, "canonical round-trip");
    }

    /// `event_to_json` binds each variant's fields with `..`, so a field
    /// it forgets to write shows only as a failed round-trip of its kind.
    #[test]
    fn every_event_kind_roundtrips() {
        let mut events = sample_events();
        events.extend([
            TraceEvent::ShardProgress {
                cycle: 96,
                shard: 1,
                shard_count: 3,
                position: 4,
                stripe_len: 7,
            },
            TraceEvent::LinkFailed {
                cycle: 97,
                ax: 1,
                ay: 2,
                bx: 3,
                by: 4,
            },
            TraceEvent::LinkRepaired {
                cycle: 98,
                ax: 5,
                ay: 6,
                bx: 7,
                by: 8,
            },
            TraceEvent::CacheHit {
                cycle: 99,
                fingerprint: "00ff00ff00ff00ff".into(),
                name: "one-traffic".into(),
            },
        ]);
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let mut every = TraceEvent::KINDS.to_vec();
        every.sort_unstable();
        assert_eq!(kinds, every, "the sample writes one event of each kind");
        let doc = TraceDoc::new("every-kind", events);
        let text = doc.to_jsonl();
        let back = TraceDoc::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.to_jsonl(), text, "canonical round-trip");
    }

    #[test]
    fn cache_hit_event_roundtrips_and_exports() {
        let doc = TraceDoc::new(
            "serve",
            vec![
                TraceEvent::CacheHit {
                    cycle: 1,
                    fingerprint: "00ff00ff00ff00ff".into(),
                    name: "one-traffic".into(),
                },
                TraceEvent::CacheHit {
                    cycle: 2,
                    fingerprint: "1234123412341234".into(),
                    name: "two-traffic".into(),
                },
            ],
        );
        let text = doc.to_jsonl();
        assert!(text.contains("\"kind\": \"cache_hit\""), "{text}");
        let back = TraceDoc::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.to_jsonl(), text, "canonical round-trip");
        let chrome = doc.chrome_trace_json();
        assert!(chrome.contains("cache hit: one-traffic"), "{chrome}");
    }

    #[test]
    fn parse_rejects_bad_documents() {
        let doc = TraceDoc::new("smoke", sample_events());
        let good = doc.to_jsonl();
        // Wrong schema tag.
        assert!(TraceDoc::parse(&good.replace("trace-v1", "trace-v9")).is_err());
        // Count mismatch: drop the last event line.
        let truncated: String =
            good.lines()
                .take(good.lines().count() - 1)
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        assert!(TraceDoc::parse(&truncated).is_err());
        // Out-of-order cycles.
        let mut events = sample_events();
        events.swap(1, 9);
        let text = TraceDoc::new("x", events).to_jsonl();
        let err = TraceDoc::parse(&text).unwrap_err();
        assert!(err.contains("sim-time order"), "got: {err}");
        assert!(TraceDoc::parse("").is_err());
    }

    #[test]
    fn summary_counts_and_ranks_windows() {
        let doc = TraceDoc::new("smoke", sample_events());
        let s = doc.summary(3);
        assert!(s.contains("11 events"), "got: {s}");
        assert!(s.contains("cycles 0..95"));
        assert!(s.contains("fault_epoch"));
        assert!(s.contains("peak 9 flits at router (2,2), window 0..63"));
    }

    #[test]
    fn chrome_export_is_valid_json_with_folded_faults() {
        let doc = TraceDoc::new("smoke", sample_events());
        let chrome = doc.chrome_trace_json();
        let v = Json::parse(&chrome).expect("valid JSON");
        let events = v.req_array("traceEvents").unwrap();
        // 4 thread-name metadata records plus payload events.
        assert!(events.len() > 4);
        // The fail/repair pair folded into one duration event.
        let down: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("router (1,2) down"))
            .collect();
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].req_u64("ts").unwrap(), 10);
        assert_eq!(down[0].req_u64("dur").unwrap(), 85);
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
    }

    #[test]
    fn profile_sidecar_shape() {
        use hotnoc_obs::prof::{PhaseReport, ProfileReport};
        let rep = ProfileReport {
            phases: vec![PhaseReport {
                name: "noc/step/alloc_sweep".into(),
                calls: 100,
                total_ns: 5_000,
                mean_ns: 50.0,
                p50_ns: 63,
                p95_ns: 127,
            }],
        };
        let text = profile_json(&rep);
        let v = Json::parse(text.trim_end()).expect("valid JSON");
        assert_eq!(v.req_str("schema").unwrap(), PROFILE_SCHEMA);
        assert_eq!(v.get("deterministic").and_then(Json::as_bool), Some(false));
        let phases = v.req_array("phases").unwrap();
        assert_eq!(phases[0].req_str("name").unwrap(), "noc/step/alloc_sweep");
        assert_eq!(phases[0].req_u64("p95_ns").unwrap(), 127);
    }
}
