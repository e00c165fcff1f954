//! `ScenarioSpec` — the declarative description of **one** run.
//!
//! A scenario names a chip (one of the paper's configurations A–E or a
//! custom mesh/floorplan), a workload (the LDPC decoder or a synthetic
//! [`TrafficPattern`]), a migration policy (static baseline, periodic under
//! a fixed scheme, or runtime-adaptive), an analysis mode, a fidelity level
//! and a seed. Specs are pure data: they serialize to and from canonical
//! JSON (see [`crate::json`]) so experiments can be expressed, diffed and
//! archived without writing Rust.

use crate::json::Json;
use hotnoc_core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc_noc::{Coord, FaultEvent, FaultKind, FaultPlan, Mesh, TrafficPattern};
use hotnoc_reconfig::MigrationScheme;

/// Which chip a scenario runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum ChipKind {
    /// One of the paper's five configurations.
    Config(ChipConfigId),
    /// A custom square die.
    Custom {
        /// Mesh side length (the die is `mesh_side` x `mesh_side`).
        mesh_side: usize,
        /// Per-tile workload weights, row-major, length `mesh_side^2`.
        tile_weights: Vec<f64>,
        /// Calibration target: the static peak temperature, °C.
        base_peak_celsius: f64,
    },
}

impl ChipKind {
    /// A short display label (`"A"`, `"custom6x6"`).
    pub fn label(&self) -> String {
        match self {
            ChipKind::Config(id) => id.to_string(),
            ChipKind::Custom { mesh_side, .. } => format!("custom{mesh_side}x{mesh_side}"),
        }
    }

    /// Mesh side length of the chip.
    pub fn mesh_side(&self) -> usize {
        match self {
            ChipKind::Config(id) => ChipSpec::of(*id, Fidelity::Quick).mesh_side,
            ChipKind::Custom { mesh_side, .. } => *mesh_side,
        }
    }

    /// The buildable [`ChipSpec`] at `fidelity`.
    pub fn to_chip_spec(&self, fidelity: Fidelity) -> ChipSpec {
        match self {
            ChipKind::Config(id) => ChipSpec::of(*id, fidelity),
            ChipKind::Custom {
                mesh_side,
                tile_weights,
                base_peak_celsius,
            } => ChipSpec::custom(
                *mesh_side,
                tile_weights.clone(),
                *base_peak_celsius,
                fidelity,
            ),
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        match self {
            ChipKind::Config(id) => Json::object(vec![("config", Json::Str(id.to_string()))]),
            ChipKind::Custom {
                mesh_side,
                tile_weights,
                base_peak_celsius,
            } => Json::object(vec![(
                "custom",
                Json::object(vec![
                    ("mesh_side", Json::int(*mesh_side as u64)),
                    (
                        "tile_weights",
                        Json::Array(tile_weights.iter().map(|&w| Json::Num(w)).collect()),
                    ),
                    ("base_peak_celsius", Json::Num(*base_peak_celsius)),
                ]),
            )]),
        }
    }

    pub(crate) fn from_json(j: &Json) -> Result<ChipKind, String> {
        if let Some(id) = j.get("config") {
            let s = id.as_str().ok_or("chip config is not a string")?;
            return Ok(ChipKind::Config(s.parse()?));
        }
        if let Some(c) = j.get("custom") {
            let mesh_side = c.req_u64("mesh_side")? as usize;
            let tile_weights = c
                .req_array("tile_weights")?
                .iter()
                .map(|v| v.as_f64().ok_or("tile weight is not a finite number"))
                .collect::<Result<Vec<f64>, _>>()?;
            return Ok(ChipKind::Custom {
                mesh_side,
                tile_weights,
                base_peak_celsius: c.req_f64("base_peak_celsius")?,
            });
        }
        Err("chip must be {\"config\": \"A\"} or {\"custom\": {...}}".into())
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if let ChipKind::Custom {
            mesh_side,
            tile_weights,
            base_peak_celsius,
        } = self
        {
            if !(2..=64).contains(mesh_side) {
                return Err(format!("custom mesh_side {mesh_side} outside 2..=64"));
            }
            if tile_weights.len() != mesh_side * mesh_side {
                return Err(format!(
                    "custom chip needs {} tile weights, got {}",
                    mesh_side * mesh_side,
                    tile_weights.len()
                ));
            }
            if tile_weights.iter().any(|&w| !w.is_finite() || w <= 0.0) {
                return Err("custom tile weights must be positive and finite".into());
            }
            if !(*base_peak_celsius > 45.0 && *base_peak_celsius < 200.0) {
                return Err(format!(
                    "custom base peak {base_peak_celsius} °C outside the calibratable range"
                ));
            }
        }
        Ok(())
    }
}

/// What the chip executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The paper's LDPC-decoder workload (drives the thermal co-simulation).
    Ldpc,
    /// A synthetic open-loop traffic pattern on the bare NoC (no thermal
    /// model; measures delivery and latency).
    Traffic {
        /// Destination pattern.
        pattern: TrafficPattern,
        /// Injection rate, packets per node per cycle (0..=1).
        rate: f64,
        /// Packet length in flits.
        packet_len: u32,
        /// Injection cycles to simulate.
        cycles: u64,
    },
}

impl Workload {
    /// Short display label (`"ldpc"`, `"traffic:uniform"`).
    pub fn label(&self) -> String {
        match self {
            Workload::Ldpc => "ldpc".to_string(),
            Workload::Traffic { pattern, .. } => format!("traffic:{}", pattern_name(pattern)),
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        match self {
            Workload::Ldpc => Json::object(vec![("kind", Json::str("ldpc"))]),
            Workload::Traffic {
                pattern,
                rate,
                packet_len,
                cycles,
            } => Json::object(vec![
                ("kind", Json::str("traffic")),
                ("pattern", pattern_to_json(pattern)),
                ("rate", Json::Num(*rate)),
                ("packet_len", Json::int(u64::from(*packet_len))),
                ("cycles", Json::int(*cycles)),
            ]),
        }
    }

    pub(crate) fn from_json(j: &Json) -> Result<Workload, String> {
        match j.req_str("kind")? {
            "ldpc" => Ok(Workload::Ldpc),
            "traffic" => Ok(Workload::Traffic {
                pattern: pattern_from_json(j.req("pattern")?)?,
                rate: j.req_f64("rate")?,
                packet_len: {
                    let n = j.req_u64("packet_len")?;
                    u32::try_from(n).map_err(|_| format!("packet_len {n} exceeds {}", u32::MAX))?
                },
                cycles: j.req_u64("cycles")?,
            }),
            other => Err(format!("unknown workload kind {other:?}")),
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if let Workload::Traffic {
            pattern,
            rate,
            packet_len,
            cycles,
        } = self
        {
            if !(*rate > 0.0 && *rate <= 1.0) {
                return Err(format!("traffic rate {rate} outside (0, 1]"));
            }
            if *packet_len == 0 {
                return Err("packet_len must be >= 1".into());
            }
            if *cycles == 0 {
                return Err("traffic cycles must be >= 1".into());
            }
            if let TrafficPattern::Hotspot { nodes, fraction } = pattern {
                if nodes.is_empty() {
                    return Err("hotspot pattern needs at least one node".into());
                }
                if !(0.0..=1.0).contains(fraction) {
                    return Err(format!("hotspot fraction {fraction} outside [0, 1]"));
                }
            }
        }
        Ok(())
    }
}

/// Encodes a mesh coordinate as `[x, y]`.
fn coord_to_json(c: Coord) -> Json {
    Json::Array(vec![Json::int(u64::from(c.x)), Json::int(u64::from(c.y))])
}

/// Decodes an `[x, y]` mesh coordinate; `what` names it in errors.
fn coord_from_json(j: &Json, what: &str) -> Result<Coord, String> {
    let Some([x, y]) = j.as_array() else {
        return Err(format!("{what} is not an [x, y] pair"));
    };
    let axis = |v: &Json| {
        v.as_u64()
            .filter(|&c| c < 256)
            .ok_or_else(|| format!("{what} component is not an integer in 0..256"))
    };
    Ok(Coord::new(axis(x)? as u8, axis(y)? as u8))
}

/// Encodes one fault event as `{"at": cycle, "<kind>": coordinate(s)}`.
fn fault_to_json(e: &FaultEvent) -> Json {
    let link = |a, b| Json::Array(vec![coord_to_json(a), coord_to_json(b)]);
    let (key, value) = match e.kind {
        FaultKind::FailRouter(c) => ("fail_router", coord_to_json(c)),
        FaultKind::RepairRouter(c) => ("repair_router", coord_to_json(c)),
        FaultKind::FailLink(a, b) => ("fail_link", link(a, b)),
        FaultKind::RepairLink(a, b) => ("repair_link", link(a, b)),
    };
    Json::object(vec![("at", Json::int(e.at)), (key, value)])
}

/// Decodes one fault event written by [`fault_to_json`].
fn fault_from_json(j: &Json) -> Result<FaultEvent, String> {
    let at = j.req_u64("at")?;
    let coord = |c: &Json| coord_from_json(c, "fault coordinate");
    let link = |l: &Json| match l.as_array() {
        Some([a, b]) => Ok((coord(a)?, coord(b)?)),
        _ => Err("fault link is not an [a, b] pair".to_string()),
    };
    let kind = if let Some(c) = j.get("fail_router") {
        FaultKind::FailRouter(coord(c)?)
    } else if let Some(c) = j.get("repair_router") {
        FaultKind::RepairRouter(coord(c)?)
    } else if let Some(l) = j.get("fail_link") {
        let (a, b) = link(l)?;
        FaultKind::FailLink(a, b)
    } else if let Some(l) = j.get("repair_link") {
        let (a, b) = link(l)?;
        FaultKind::RepairLink(a, b)
    } else {
        return Err(
            "fault event needs one of fail_router / repair_router / fail_link / repair_link".into(),
        );
    };
    Ok(FaultEvent { at, kind })
}

/// The migration policy applied while the workload runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// Static placement, no migration (the Figure 1 base).
    Baseline,
    /// Migrate every `period_blocks` decoded blocks under a fixed scheme.
    Periodic {
        /// The migration function.
        scheme: MigrationScheme,
        /// Period in decoded blocks.
        period_blocks: u64,
    },
    /// Re-select the best scheme at every migration point (§2.3's runtime
    /// re-programmable migration unit).
    Adaptive {
        /// Period in decoded blocks.
        period_blocks: u64,
    },
}

impl Policy {
    /// Short display label (`"baseline"`, `"xy-shift/p1"`, `"adaptive/p4"`).
    pub fn label(&self) -> String {
        match self {
            Policy::Baseline => "baseline".to_string(),
            Policy::Periodic {
                scheme,
                period_blocks,
            } => format!("{}/p{period_blocks}", scheme_name(*scheme)),
            Policy::Adaptive { period_blocks } => format!("adaptive/p{period_blocks}"),
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        match self {
            Policy::Baseline => Json::object(vec![("kind", Json::str("baseline"))]),
            Policy::Periodic {
                scheme,
                period_blocks,
            } => Json::object(vec![
                ("kind", Json::str("periodic")),
                ("scheme", Json::Str(scheme_name(*scheme))),
                ("period_blocks", Json::int(*period_blocks)),
            ]),
            Policy::Adaptive { period_blocks } => Json::object(vec![
                ("kind", Json::str("adaptive")),
                ("period_blocks", Json::int(*period_blocks)),
            ]),
        }
    }

    pub(crate) fn from_json(j: &Json) -> Result<Policy, String> {
        match j.req_str("kind")? {
            "baseline" => Ok(Policy::Baseline),
            "periodic" => Ok(Policy::Periodic {
                scheme: scheme_from_name(j.req_str("scheme")?)?,
                period_blocks: j.req_u64("period_blocks")?,
            }),
            "adaptive" => Ok(Policy::Adaptive {
                period_blocks: j.req_u64("period_blocks")?,
            }),
            other => Err(format!("unknown policy kind {other:?}")),
        }
    }
}

/// What the run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full transient thermal co-simulation (default).
    Cosim,
    /// Migration-plan cost analysis only (§2.1–2.2): phases, stall time,
    /// flit-hops, energy. Requires a periodic policy; skips the transient
    /// solve.
    PlanCost,
}

impl Mode {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Mode::Cosim => "cosim",
            Mode::PlanCost => "plan-cost",
        }
    }

    pub(crate) fn from_name(s: &str) -> Result<Mode, String> {
        match s {
            "cosim" => Ok(Mode::Cosim),
            "plan-cost" => Ok(Mode::PlanCost),
            other => Err(format!("unknown mode {other:?}")),
        }
    }
}

/// A declarative description of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (unique within a campaign).
    pub name: String,
    /// The chip.
    pub chip: ChipKind,
    /// The workload.
    pub workload: Workload,
    /// The migration policy.
    pub policy: Policy,
    /// What to measure.
    pub mode: Mode,
    /// Fidelity level (paper-scale or seconds-fast).
    pub fidelity: Fidelity,
    /// Optional horizon override: total simulated time in milliseconds
    /// (warm-up is half). `None` uses the fidelity default.
    pub sim_time_ms: Option<f64>,
    /// Scheduled router/link failures and repairs applied while the
    /// workload runs (traffic workloads only; empty = healthy fabric).
    pub faults: FaultPlan,
    /// RNG seed (drives traffic generation; campaign expansion derives it
    /// from the campaign seed and job index).
    pub seed: u64,
}

impl ScenarioSpec {
    /// Serializes to canonical JSON.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("chip", self.chip.to_json()),
            ("workload", self.workload.to_json()),
            ("policy", self.policy.to_json()),
            ("mode", Json::str(self.mode.name())),
            ("fidelity", Json::str(fidelity_name(self.fidelity))),
        ];
        if let Some(ms) = self.sim_time_ms {
            fields.push(("sim_time_ms", Json::Num(ms)));
        }
        if !self.faults.is_empty() {
            // Emitted only when present, so healthy specs (and their
            // campaign fingerprints) keep their exact pre-fault JSON.
            fields.push((
                "faults",
                Json::Array(self.faults.events().iter().map(fault_to_json).collect()),
            ));
        }
        fields.push(("seed", Json::int(self.seed)));
        Json::object(fields)
    }

    /// Deserializes from the JSON produced by [`ScenarioSpec::to_json`]
    /// (or hand-written to the same shape) and validates.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema or semantic violation.
    pub fn from_json(j: &Json) -> Result<ScenarioSpec, String> {
        let spec = ScenarioSpec {
            name: j.req_str("name")?.to_string(),
            chip: ChipKind::from_json(j.req("chip")?)?,
            workload: Workload::from_json(j.req("workload")?)?,
            policy: Policy::from_json(j.req("policy")?)?,
            mode: Mode::from_name(j.req_str("mode")?)?,
            fidelity: fidelity_from_name(j.req_str("fidelity")?)?,
            sim_time_ms: match j.get("sim_time_ms") {
                None => None,
                Some(v) => Some(v.as_f64().ok_or("sim_time_ms is not a finite number")?),
            },
            faults: match j.get("faults") {
                None => FaultPlan::new(),
                Some(v) => {
                    let mut plan = FaultPlan::new();
                    for e in v.as_array().ok_or("faults is not an array")? {
                        plan.push(fault_from_json(e)?);
                    }
                    plan
                }
            },
            seed: j.req_u64("seed")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Propagates JSON syntax and schema violations.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::from_json(&Json::parse(text)?)
    }

    /// Semantic validation beyond mere JSON shape.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name is empty".into());
        }
        self.chip.validate()?;
        self.workload.validate()?;
        if matches!(self.workload, Workload::Ldpc) {
            // The weighted cluster mapping gives every tile at least one
            // check node of the fidelity's code.
            let chip = self.chip.to_chip_spec(self.fidelity);
            let checks = chip.code_n / chip.wr * chip.wc;
            if chip.n_tiles() > checks {
                return Err(format!(
                    "{}x{} ldpc chip has {} tiles but the {} code has only {checks} check nodes \
                     (at most one tile per check node)",
                    chip.mesh_side,
                    chip.mesh_side,
                    chip.n_tiles(),
                    fidelity_name(self.fidelity)
                ));
            }
        }
        match &self.policy {
            Policy::Periodic { period_blocks, .. } | Policy::Adaptive { period_blocks } => {
                if *period_blocks == 0 {
                    return Err("period_blocks must be >= 1".into());
                }
            }
            Policy::Baseline => {}
        }
        if let Workload::Traffic { pattern, .. } = &self.workload {
            if self.policy != Policy::Baseline {
                return Err("traffic workloads only support the baseline policy".into());
            }
            if self.mode != Mode::Cosim {
                return Err("traffic workloads only support cosim mode".into());
            }
            if let TrafficPattern::Hotspot { nodes, .. } = pattern {
                let side = self.chip.mesh_side();
                for c in nodes {
                    if usize::from(c.x) >= side || usize::from(c.y) >= side {
                        return Err(format!("hotspot node {c} outside the {side}x{side} mesh"));
                    }
                }
            }
        }
        if self.mode == Mode::PlanCost && !matches!(self.policy, Policy::Periodic { .. }) {
            return Err("plan-cost mode requires a periodic policy".into());
        }
        if !self.faults.is_empty() {
            if !matches!(self.workload, Workload::Traffic { .. }) {
                return Err(
                    "fault plans only apply to traffic workloads (the ldpc co-simulation \
                     models a healthy fabric)"
                        .into(),
                );
            }
            let mesh = Mesh::square(self.chip.mesh_side()).map_err(|e| e.to_string())?;
            self.faults.validate(mesh).map_err(|e| e.to_string())?;
        }
        if let Some(ms) = self.sim_time_ms {
            if !(ms > 0.0 && ms <= 10_000.0) {
                return Err(format!("sim_time_ms {ms} outside (0, 10000]"));
            }
            let params = crate::run::params_of(self);
            if params.frames() == 0 {
                return Err(format!(
                    "sim_time_ms {ms} is under half of one {} ms thermal frame",
                    params.dt * 1e3
                ));
            }
        }
        if self.seed > (1 << 53) {
            return Err("seed exceeds 2^53 (not exactly representable in JSON)".into());
        }
        Ok(())
    }

    /// FNV-1a hash of the canonical spec JSON, as 16 lowercase hex digits —
    /// the same construction as [`crate::campaign::CampaignSpec::fingerprint`],
    /// so two hosts agree on a scenario's identity iff they agree on its
    /// canonical bytes. The serving layer keys its result cache on
    /// `(fingerprint, seed)`.
    pub fn fingerprint(&self) -> String {
        self.to_json().fingerprint()
    }
}

/// Canonical name of a fidelity level.
pub fn fidelity_name(f: Fidelity) -> &'static str {
    match f {
        Fidelity::Full => "full",
        Fidelity::Quick => "quick",
    }
}

/// Parses a fidelity name.
///
/// # Errors
///
/// Rejects anything but `"full"` / `"quick"`.
pub fn fidelity_from_name(s: &str) -> Result<Fidelity, String> {
    match s {
        "full" => Ok(Fidelity::Full),
        "quick" => Ok(Fidelity::Quick),
        other => Err(format!("unknown fidelity {other:?}")),
    }
}

/// Canonical (spec-file) name of a migration scheme.
pub fn scheme_name(s: MigrationScheme) -> String {
    match s {
        MigrationScheme::Rotation => "rotation".to_string(),
        MigrationScheme::XMirror => "x-mirror".to_string(),
        MigrationScheme::XYMirror => "xy-mirror".to_string(),
        MigrationScheme::XTranslation { offset: 1 } => "right-shift".to_string(),
        MigrationScheme::XTranslation { offset } => format!("x-shift-{offset}"),
        MigrationScheme::YTranslation { offset } => format!("y-shift-{offset}"),
        MigrationScheme::XYShift => "xy-shift".to_string(),
    }
}

/// Parses a canonical scheme name ([`scheme_name`]'s inverse).
///
/// # Errors
///
/// Returns a description of the unknown name.
pub fn scheme_from_name(s: &str) -> Result<MigrationScheme, String> {
    match s {
        "rotation" => Ok(MigrationScheme::Rotation),
        "x-mirror" => Ok(MigrationScheme::XMirror),
        "xy-mirror" => Ok(MigrationScheme::XYMirror),
        "right-shift" => Ok(MigrationScheme::XTranslation { offset: 1 }),
        "xy-shift" => Ok(MigrationScheme::XYShift),
        other => {
            let parse_offset =
                |prefix: &str| -> Option<u8> { other.strip_prefix(prefix)?.parse::<u8>().ok() };
            if let Some(k) = parse_offset("x-shift-") {
                return Ok(MigrationScheme::XTranslation { offset: k });
            }
            if let Some(k) = parse_offset("y-shift-") {
                return Ok(MigrationScheme::YTranslation { offset: k });
            }
            Err(format!("unknown migration scheme {other:?}"))
        }
    }
}

/// Canonical name of a traffic pattern.
pub fn pattern_name(p: &TrafficPattern) -> &'static str {
    match p {
        TrafficPattern::UniformRandom => "uniform",
        TrafficPattern::Transpose => "transpose",
        TrafficPattern::BitComplement => "bit-complement",
        TrafficPattern::Tornado => "tornado",
        TrafficPattern::Neighbor => "neighbor",
        TrafficPattern::Hotspot { .. } => "hotspot",
    }
}

fn pattern_to_json(p: &TrafficPattern) -> Json {
    match p {
        TrafficPattern::Hotspot { nodes, fraction } => Json::object(vec![
            ("kind", Json::str("hotspot")),
            (
                "nodes",
                Json::Array(nodes.iter().map(|&c| coord_to_json(c)).collect()),
            ),
            ("fraction", Json::Num(*fraction)),
        ]),
        simple => Json::str(pattern_name(simple)),
    }
}

fn pattern_from_json(j: &Json) -> Result<TrafficPattern, String> {
    if let Some(name) = j.as_str() {
        return match name {
            "uniform" => Ok(TrafficPattern::UniformRandom),
            "transpose" => Ok(TrafficPattern::Transpose),
            "bit-complement" => Ok(TrafficPattern::BitComplement),
            "tornado" => Ok(TrafficPattern::Tornado),
            "neighbor" => Ok(TrafficPattern::Neighbor),
            other => Err(format!("unknown traffic pattern {other:?}")),
        };
    }
    if j.get("kind").and_then(Json::as_str) == Some("hotspot") {
        let nodes = j
            .req_array("nodes")?
            .iter()
            .map(|n| coord_from_json(n, "hotspot node"))
            .collect::<Result<Vec<Coord>, String>>()?;
        return Ok(TrafficPattern::Hotspot {
            nodes,
            fraction: j.req_f64("fraction")?,
        });
    }
    Err("pattern must be a name string or a hotspot object".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "t0".to_string(),
            chip: ChipKind::Config(ChipConfigId::A),
            workload: Workload::Traffic {
                pattern: TrafficPattern::Hotspot {
                    nodes: vec![Coord::new(1, 2)],
                    fraction: 0.4,
                },
                rate: 0.1,
                packet_len: 4,
                cycles: 500,
            },
            policy: Policy::Baseline,
            mode: Mode::Cosim,
            fidelity: Fidelity::Quick,
            sim_time_ms: None,
            faults: FaultPlan::new(),
            seed: 7,
        }
    }

    fn cosim_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "c0".to_string(),
            chip: ChipKind::Config(ChipConfigId::E),
            workload: Workload::Ldpc,
            policy: Policy::Periodic {
                scheme: MigrationScheme::XYShift,
                period_blocks: 24,
            },
            mode: Mode::Cosim,
            fidelity: Fidelity::Quick,
            sim_time_ms: Some(6.0),
            faults: FaultPlan::new(),
            seed: 1,
        }
    }

    #[test]
    fn spec_json_roundtrip_is_byte_stable() {
        let (hub, east) = (Coord::new(1, 1), Coord::new(2, 1));
        let faulted = ScenarioSpec {
            faults: FaultPlan::new()
                .fail_router(10, hub)
                .fail_link(20, hub, east)
                .repair_router(30, hub)
                .repair_link(40, hub, east),
            ..traffic_spec()
        };
        for spec in [traffic_spec(), cosim_spec(), faulted] {
            let text = spec.to_json().to_string();
            let back = ScenarioSpec::parse(&text).expect("parses");
            assert_eq!(back, spec);
            assert_eq!(back.to_json().to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_a_packet_len_beyond_u32() {
        let text = traffic_spec().to_json().to_string();
        let with_len = |n: u64| text.replace("\"packet_len\": 4", &format!("\"packet_len\": {n}"));
        let max = ScenarioSpec::parse(&with_len(u64::from(u32::MAX))).expect("u32::MAX parses");
        assert!(
            matches!(max.workload, Workload::Traffic { packet_len, .. } if packet_len == u32::MAX)
        );
        let err = ScenarioSpec::parse(&with_len(1 << 32 | 1)).unwrap_err();
        assert_eq!(err, "packet_len 4294967297 exceeds 4294967295");
    }

    #[test]
    fn custom_chip_roundtrip() {
        let spec = ScenarioSpec {
            name: "custom".to_string(),
            chip: ChipKind::Custom {
                mesh_side: 3,
                tile_weights: vec![1.0, 1.0, 1.0, 1.0, 2.5, 1.0, 1.0, 1.0, 1.0],
                base_peak_celsius: 80.0,
            },
            workload: Workload::Ldpc,
            policy: Policy::Baseline,
            mode: Mode::Cosim,
            fidelity: Fidelity::Quick,
            sim_time_ms: None,
            faults: FaultPlan::new(),
            seed: 0,
        };
        let text = spec.to_json().to_string();
        assert_eq!(ScenarioSpec::parse(&text).expect("parses"), spec);
    }

    #[test]
    fn scheme_names_roundtrip() {
        let schemes = [
            MigrationScheme::Rotation,
            MigrationScheme::XMirror,
            MigrationScheme::XYMirror,
            MigrationScheme::XTranslation { offset: 1 },
            MigrationScheme::XTranslation { offset: 3 },
            MigrationScheme::YTranslation { offset: 2 },
            MigrationScheme::XYShift,
        ];
        for s in schemes {
            assert_eq!(scheme_from_name(&scheme_name(s)).expect("roundtrip"), s);
        }
        assert!(scheme_from_name("spin").is_err());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut bad = traffic_spec();
        bad.policy = Policy::Periodic {
            scheme: MigrationScheme::Rotation,
            period_blocks: 1,
        };
        assert!(bad.validate().is_err(), "traffic + migration");

        let mut bad = cosim_spec();
        bad.mode = Mode::PlanCost;
        bad.policy = Policy::Baseline;
        assert!(bad.validate().is_err(), "plan-cost without scheme");

        let mut bad = cosim_spec();
        bad.policy = Policy::Periodic {
            scheme: MigrationScheme::XYShift,
            period_blocks: 0,
        };
        assert!(bad.validate().is_err(), "zero period");

        let mut bad = cosim_spec();
        bad.sim_time_ms = Some(0.001);
        assert!(bad.validate().is_err(), "no thermal frame");
        bad.sim_time_ms = Some(0.005);
        assert_eq!(bad.validate(), Ok(()), "one thermal frame");

        let mut bad = traffic_spec();
        bad.workload = Workload::Traffic {
            pattern: TrafficPattern::UniformRandom,
            rate: 1.5,
            packet_len: 4,
            cycles: 100,
        };
        assert!(bad.validate().is_err(), "rate > 1");

        let mut bad = traffic_spec();
        bad.workload = Workload::Traffic {
            pattern: TrafficPattern::Hotspot {
                nodes: vec![Coord::new(9, 9)],
                fraction: 0.5,
            },
            rate: 0.1,
            packet_len: 4,
            cycles: 100,
        };
        assert!(bad.validate().is_err(), "hotspot off-mesh");
    }

    #[test]
    fn custom_ldpc_chips_need_a_check_node_per_tile() {
        // Quick codes have 240 check nodes (15x15 fits, 16x16 does not);
        // full codes have 2160 (46x46 fits, 47x47 does not).
        let custom = |side: usize, fidelity, workload| ScenarioSpec {
            chip: ChipKind::Custom {
                mesh_side: side,
                tile_weights: vec![1.0; side * side],
                base_peak_celsius: 80.0,
            },
            workload,
            policy: Policy::Baseline,
            fidelity,
            ..cosim_spec()
        };
        for (fits, too_big, fidelity) in [(15, 16, Fidelity::Quick), (46, 47, Fidelity::Full)] {
            assert_eq!(custom(fits, fidelity, Workload::Ldpc).validate(), Ok(()));
            let err = custom(too_big, fidelity, Workload::Ldpc)
                .validate()
                .unwrap_err();
            assert!(err.contains("check nodes"), "{err}");
        }
        // Traffic workloads keep the plain mesh-side limit.
        let uniform = Workload::Traffic {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            packet_len: 4,
            cycles: 100,
        };
        assert_eq!(custom(64, Fidelity::Quick, uniform).validate(), Ok(()));
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(traffic_spec().chip.label(), "A");
        assert_eq!(traffic_spec().workload.label(), "traffic:hotspot");
        assert_eq!(cosim_spec().policy.label(), "xy-shift/p24");
        assert_eq!(Policy::Baseline.label(), "baseline");
    }
}
