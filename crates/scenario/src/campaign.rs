//! `CampaignSpec` — a declarative sweep over scenario axes.
//!
//! A campaign is a cartesian product of axes — chips x workloads x
//! policies (x schemes x periods) x seeds — expanded into a deterministic,
//! stably-ordered job list of [`ScenarioSpec`]s. Expansion is a pure
//! function of the spec: the same campaign expands to the same jobs with
//! the same derived per-job seeds on every machine, which is what lets the
//! runner journal jobs by index and resume a killed campaign without
//! recomputation.
//!
//! Expansion rules (they keep the product free of redundant jobs):
//!
//! * Traffic workloads pair only with the baseline policy — the policy axis
//!   does not apply to bare-NoC runs.
//! * `baseline` ignores the scheme and period axes (one job per chip x
//!   workload x seed).
//! * `periodic` expands schemes x periods (just schemes in plan-cost mode,
//!   where the period does not influence the cost).
//! * `adaptive` expands periods.
//! * In plan-cost mode only `periodic` entries produce jobs.
//! * The seed axis applies only to workloads that consume randomness:
//!   traffic jobs run once per listed seed, while LDPC co-simulations are
//!   fully determined by the spec (the scenario seed is never read), so
//!   they collapse to a single job seeded from the first axis entry.

use crate::json::Json;
use crate::spec::{
    fidelity_from_name, fidelity_name, scheme_from_name, scheme_name, ChipKind, Mode, Policy,
    ScenarioSpec, Workload,
};
use hotnoc_core::configs::Fidelity;
use hotnoc_noc::{Coord, FaultPlan};
use hotnoc_reconfig::MigrationScheme;

/// Schema tag of campaign spec documents.
pub const SPEC_SCHEMA: &str = "hotnoc-campaign-spec-v1";

/// One entry of the policy axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAxis {
    /// Static placement (no migration).
    Baseline,
    /// Periodic migration; expands the scheme and period axes.
    Periodic,
    /// Runtime-adaptive migration; expands the period axis.
    Adaptive,
}

impl PolicyAxis {
    fn name(self) -> &'static str {
        match self {
            PolicyAxis::Baseline => "baseline",
            PolicyAxis::Periodic => "periodic",
            PolicyAxis::Adaptive => "adaptive",
        }
    }

    fn from_name(s: &str) -> Result<PolicyAxis, String> {
        match s {
            "baseline" => Ok(PolicyAxis::Baseline),
            "periodic" => Ok(PolicyAxis::Periodic),
            "adaptive" => Ok(PolicyAxis::Adaptive),
            other => Err(format!("unknown policy {other:?}")),
        }
    }
}

/// A declarative sweep over scenario axes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name; names the artifacts (`CAMPAIGN_<name>.json`), so it
    /// is restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    /// Campaign seed: per-job seeds derive from it and the job index.
    pub seed: u64,
    /// Fidelity of every job.
    pub fidelity: Fidelity,
    /// Measurement mode of every job.
    pub mode: Mode,
    /// Optional horizon override forwarded to every job (milliseconds).
    pub sim_time_ms: Option<f64>,
    /// Chip axis.
    pub configs: Vec<ChipKind>,
    /// Workload axis.
    pub workloads: Vec<Workload>,
    /// Policy axis.
    pub policies: Vec<PolicyAxis>,
    /// Scheme axis (expanded by `periodic` policies).
    pub schemes: Vec<MigrationScheme>,
    /// Migration-period axis, in decoded blocks.
    pub periods: Vec<u64>,
    /// Offered-load axis: every traffic workload re-runs once per listed
    /// injection rate (packets per node per cycle), replacing the
    /// workload's own `rate`. Empty = each traffic workload runs at its
    /// own rate; LDPC workloads ignore the axis. This is what drives
    /// latency-vs-load saturation curves through the campaign path.
    pub offered_loads: Vec<f64>,
    /// Router-failure axis: every traffic workload re-runs once per listed
    /// failure count, with that many routers disabled from cycle 0 at
    /// deterministic, evenly-spread positions (0 = a healthy point). Empty
    /// = healthy fabric only; LDPC workloads ignore the axis.
    pub failed_routers: Vec<u64>,
    /// Link-failure axis: like `failed_routers`, but disabling that many
    /// links (spread to avoid the failed routers). Crossed with
    /// `failed_routers` when both are non-empty.
    pub failed_links: Vec<u64>,
    /// Seed axis: every combination runs once per listed seed.
    pub seeds: Vec<u64>,
}

impl CampaignSpec {
    /// Validates the axes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
        {
            return Err(format!(
                "campaign name {:?} must be non-empty [A-Za-z0-9._-]",
                self.name
            ));
        }
        if self.seed > (1 << 53) {
            return Err("campaign seed exceeds 2^53".into());
        }
        if self.configs.is_empty() {
            return Err("configs axis is empty".into());
        }
        if self.workloads.is_empty() {
            return Err("workloads axis is empty".into());
        }
        if self.policies.is_empty() {
            return Err("policies axis is empty".into());
        }
        if self.seeds.is_empty() {
            return Err("seeds axis is empty".into());
        }
        for c in &self.configs {
            c.validate()?;
        }
        for w in &self.workloads {
            w.validate()?;
        }
        let needs_schemes = self.policies.contains(&PolicyAxis::Periodic)
            && self.workloads.iter().any(|w| matches!(w, Workload::Ldpc));
        if needs_schemes && self.schemes.is_empty() {
            return Err("periodic policy needs a non-empty schemes axis".into());
        }
        let needs_periods = self.mode == Mode::Cosim
            && self
                .policies
                .iter()
                .any(|p| matches!(p, PolicyAxis::Periodic | PolicyAxis::Adaptive))
            && self.workloads.iter().any(|w| matches!(w, Workload::Ldpc));
        if needs_periods && self.periods.is_empty() {
            return Err("periodic/adaptive policies need a non-empty periods axis".into());
        }
        if self.periods.contains(&0) {
            return Err("periods must be >= 1 block".into());
        }
        for pair in self.offered_loads.windows(2) {
            if pair[0] >= pair[1] {
                return Err("offered_loads must be strictly increasing".into());
            }
        }
        for &load in &self.offered_loads {
            if !(load > 0.0 && load <= 1.0 && load.is_finite()) {
                return Err(format!("offered load {load} outside (0, 1]"));
            }
        }
        for (axis, name) in [
            (&self.failed_routers, "failed_routers"),
            (&self.failed_links, "failed_links"),
        ] {
            for pair in axis.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("{name} must be strictly increasing"));
                }
            }
        }
        if !(self.failed_routers.is_empty() && self.failed_links.is_empty()) {
            if !self
                .workloads
                .iter()
                .any(|w| matches!(w, Workload::Traffic { .. }))
            {
                return Err(
                    "failed_routers / failed_links axes need a traffic workload (faults do \
                     not apply to the ldpc co-simulation)"
                        .into(),
                );
            }
            for c in &self.configs {
                let side = c.mesh_side();
                let nodes = (side * side) as u64;
                for &count in self.failed_routers.iter().chain(&self.failed_links) {
                    if count >= nodes {
                        return Err(format!(
                            "failure count {count} leaves nothing of the {side}x{side} mesh"
                        ));
                    }
                }
            }
        }
        if self.mode == Mode::PlanCost && !self.policies.contains(&PolicyAxis::Periodic) {
            return Err("plan-cost mode needs a periodic policy entry".into());
        }
        // Expansion also validates every produced scenario; run it once so a
        // bad combination is caught before the runner starts.
        for job in self.expand() {
            job.validate()
                .map_err(|e| format!("job {:?}: {e}", job.name))?;
        }
        Ok(())
    }

    /// Expands the axes into the deterministic, stably-ordered job list.
    /// Job index order is the nesting order chips → workloads (→ offered
    /// loads) → policies (schemes → periods) → fault variants → seeds.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let mut jobs = Vec::new();
        for chip in &self.configs {
            for (wi, axis_workload) in self.workloads.iter().enumerate() {
                for (workload, load) in self.workload_variants(axis_workload) {
                    let policies = self.policies_for(&workload);
                    // LDPC runs are deterministic given the spec;
                    // re-running them per seed would duplicate identical
                    // jobs.
                    let seeds = if matches!(workload, Workload::Traffic { .. }) {
                        &self.seeds[..]
                    } else {
                        &self.seeds[..1]
                    };
                    // The load tag keeps job names unique across the
                    // offered-load axis (canonical shortest-roundtrip
                    // float formatting, like the spec JSON).
                    let load_tag = load.map(|l| format!("@l{l}")).unwrap_or_default();
                    let fault_variants = self.fault_variants(&workload, chip);
                    for policy in policies {
                        for (faults, fault_tag) in &fault_variants {
                            for &axis_seed in seeds {
                                let index = jobs.len() as u64;
                                jobs.push(ScenarioSpec {
                                    name: format!(
                                        "{}/w{wi}:{}{load_tag}/{}{fault_tag}/s{axis_seed}",
                                        chip.label(),
                                        workload.label(),
                                        policy.label()
                                    ),
                                    chip: chip.clone(),
                                    workload: workload.clone(),
                                    policy: policy.clone(),
                                    mode: if matches!(workload, Workload::Traffic { .. }) {
                                        Mode::Cosim
                                    } else {
                                        self.mode
                                    },
                                    fidelity: self.fidelity,
                                    sim_time_ms: self.sim_time_ms,
                                    faults: faults.clone(),
                                    seed: derive_job_seed(self.seed, axis_seed, index),
                                });
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The fault plans one workload expands to: traffic workloads fan out
    /// across the cross product of the router- and link-failure axes (each
    /// count realized as a deterministic [`degraded_fabric`] plan), tagged
    /// `/frN` / `/flM` in the job name. Healthy expansion — both axes empty
    /// or a non-traffic workload — is a single untagged empty plan.
    fn fault_variants(&self, workload: &Workload, chip: &ChipKind) -> Vec<(FaultPlan, String)> {
        if !matches!(workload, Workload::Traffic { .. })
            || (self.failed_routers.is_empty() && self.failed_links.is_empty())
        {
            return vec![(FaultPlan::new(), String::new())];
        }
        let side = chip.mesh_side();
        let router_counts: &[u64] = if self.failed_routers.is_empty() {
            &[0]
        } else {
            &self.failed_routers
        };
        let link_counts: &[u64] = if self.failed_links.is_empty() {
            &[0]
        } else {
            &self.failed_links
        };
        let mut out = Vec::new();
        for &fr in router_counts {
            for &fl in link_counts {
                let mut tag = String::new();
                if !self.failed_routers.is_empty() {
                    tag.push_str(&format!("/fr{fr}"));
                }
                if !self.failed_links.is_empty() {
                    tag.push_str(&format!("/fl{fl}"));
                }
                out.push((degraded_fabric(side, fr, fl), tag));
            }
        }
        out
    }

    /// The concrete workloads one axis entry expands to: traffic workloads
    /// fan out across the offered-load axis (their own rate replaced by
    /// each listed load), everything else passes through unchanged.
    fn workload_variants(&self, workload: &Workload) -> Vec<(Workload, Option<f64>)> {
        match workload {
            Workload::Traffic {
                pattern,
                packet_len,
                cycles,
                ..
            } if !self.offered_loads.is_empty() => self
                .offered_loads
                .iter()
                .map(|&load| {
                    (
                        Workload::Traffic {
                            pattern: pattern.clone(),
                            rate: load,
                            packet_len: *packet_len,
                            cycles: *cycles,
                        },
                        Some(load),
                    )
                })
                .collect(),
            w => vec![(w.clone(), None)],
        }
    }

    /// The concrete policies one workload expands to (see the module docs
    /// for the collapse rules).
    fn policies_for(&self, workload: &Workload) -> Vec<Policy> {
        if matches!(workload, Workload::Traffic { .. }) {
            return vec![Policy::Baseline];
        }
        let mut out = Vec::new();
        for axis in &self.policies {
            match axis {
                PolicyAxis::Baseline => {
                    if self.mode == Mode::Cosim {
                        out.push(Policy::Baseline);
                    }
                }
                PolicyAxis::Periodic => {
                    if self.mode == Mode::PlanCost {
                        let period = self.periods.first().copied().unwrap_or(1);
                        for &scheme in &self.schemes {
                            out.push(Policy::Periodic {
                                scheme,
                                period_blocks: period,
                            });
                        }
                    } else {
                        for &scheme in &self.schemes {
                            for &period in &self.periods {
                                out.push(Policy::Periodic {
                                    scheme,
                                    period_blocks: period,
                                });
                            }
                        }
                    }
                }
                PolicyAxis::Adaptive => {
                    if self.mode == Mode::Cosim {
                        for &period in &self.periods {
                            out.push(Policy::Adaptive {
                                period_blocks: period,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Serializes to canonical JSON (the fingerprint input).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::str(SPEC_SCHEMA)),
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::int(self.seed)),
            ("fidelity", Json::str(fidelity_name(self.fidelity))),
            ("mode", Json::str(self.mode.name())),
        ];
        if let Some(ms) = self.sim_time_ms {
            fields.push(("sim_time_ms", Json::Num(ms)));
        }
        fields.push((
            "configs",
            Json::Array(self.configs.iter().map(ChipKind::to_json).collect()),
        ));
        fields.push((
            "workloads",
            Json::Array(self.workloads.iter().map(Workload::to_json).collect()),
        ));
        fields.push((
            "policies",
            Json::Array(self.policies.iter().map(|p| Json::str(p.name())).collect()),
        ));
        fields.push((
            "schemes",
            Json::Array(
                self.schemes
                    .iter()
                    .map(|&s| Json::Str(scheme_name(s)))
                    .collect(),
            ),
        ));
        fields.push((
            "periods",
            Json::Array(self.periods.iter().map(|&p| Json::int(p)).collect()),
        ));
        if !self.offered_loads.is_empty() {
            // Emitted only when used, so campaigns that predate the axis
            // keep their canonical JSON (and fingerprint) unchanged.
            fields.push((
                "offered_loads",
                Json::Array(self.offered_loads.iter().map(|&l| Json::Num(l)).collect()),
            ));
        }
        // The fault axes follow the same emit-only-when-used rule.
        if !self.failed_routers.is_empty() {
            fields.push((
                "failed_routers",
                Json::Array(self.failed_routers.iter().map(|&n| Json::int(n)).collect()),
            ));
        }
        if !self.failed_links.is_empty() {
            fields.push((
                "failed_links",
                Json::Array(self.failed_links.iter().map(|&n| Json::int(n)).collect()),
            ));
        }
        fields.push((
            "seeds",
            Json::Array(self.seeds.iter().map(|&s| Json::int(s)).collect()),
        ));
        Json::object(fields)
    }

    /// Deserializes and validates a campaign spec document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema or semantic violation.
    pub fn from_json(j: &Json) -> Result<CampaignSpec, String> {
        let schema = j.req_str("schema")?;
        if schema != SPEC_SCHEMA {
            return Err(format!("unknown schema {schema:?} (want {SPEC_SCHEMA:?})"));
        }
        let list = |key: &str| -> Result<&[Json], String> {
            match j.get(key) {
                None => Ok(&[]),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| format!("field {key:?} is not an array")),
            }
        };
        let spec = CampaignSpec {
            name: j.req_str("name")?.to_string(),
            seed: j.req_u64("seed")?,
            fidelity: fidelity_from_name(j.req_str("fidelity")?)?,
            mode: match j.get("mode") {
                None => Mode::Cosim,
                Some(m) => Mode::from_name(m.as_str().ok_or("field \"mode\" is not a string")?)?,
            },
            sim_time_ms: match j.get("sim_time_ms") {
                None => None,
                Some(v) => Some(v.as_f64().ok_or("sim_time_ms is not a finite number")?),
            },
            configs: j
                .req_array("configs")?
                .iter()
                .map(ChipKind::from_json)
                .collect::<Result<_, _>>()?,
            workloads: j
                .req_array("workloads")?
                .iter()
                .map(Workload::from_json)
                .collect::<Result<_, _>>()?,
            policies: j
                .req_array("policies")?
                .iter()
                .map(|p| PolicyAxis::from_name(p.as_str().ok_or("policy is not a string")?))
                .collect::<Result<_, _>>()?,
            schemes: list("schemes")?
                .iter()
                .map(|s| scheme_from_name(s.as_str().ok_or("scheme is not a string")?))
                .collect::<Result<_, _>>()?,
            periods: list("periods")?
                .iter()
                .map(|p| p.as_u64().ok_or("period is not a non-negative integer"))
                .collect::<Result<_, _>>()?,
            offered_loads: list("offered_loads")?
                .iter()
                .map(|l| l.as_f64().ok_or("offered load is not a finite number"))
                .collect::<Result<_, _>>()?,
            failed_routers: list("failed_routers")?
                .iter()
                .map(|n| n.as_u64().ok_or("failed_routers entry is not a count"))
                .collect::<Result<_, _>>()?,
            failed_links: list("failed_links")?
                .iter()
                .map(|n| n.as_u64().ok_or("failed_links entry is not a count"))
                .collect::<Result<_, _>>()?,
            seeds: j
                .req_array("seeds")?
                .iter()
                .map(|s| s.as_u64().ok_or("seed is not a non-negative integer"))
                .collect::<Result<_, _>>()?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a campaign spec from JSON text.
    ///
    /// # Errors
    ///
    /// Propagates JSON syntax and schema violations.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        CampaignSpec::from_json(&Json::parse(text)?)
    }

    /// A 64-bit FNV-1a fingerprint of the canonical spec JSON, hex-encoded.
    /// The runner journals it in the manifest header so a resume against an
    /// edited campaign is detected and restarted instead of mixing results.
    pub fn fingerprint(&self) -> String {
        self.to_json().fingerprint()
    }
}

/// The canonical degraded fabric for a failure-count pair: `routers`
/// routers and `links` links taken out at cycle 0, spread deterministically
/// over a `side`×`side` mesh so every expansion of the same campaign spec
/// produces byte-identical fault plans.
///
/// Router `i` of `routers` fails node `i * n / routers` (row-major id over
/// `n = side²` nodes). Link failures start half a side away from node 0 and
/// walk the id space, skipping endpoints already dead (a link into a failed
/// router would be redundant) and preferring the east edge, then north.
pub fn degraded_fabric(side: usize, routers: u64, links: u64) -> FaultPlan {
    let n = (side * side) as u64;
    let mut plan = FaultPlan::new();
    let coord = |id: u64| Coord {
        x: (id % side as u64) as u8,
        y: (id / side as u64) as u8,
    };
    let mut dead = vec![false; n as usize];
    for i in 0..routers.min(n) {
        let id = i * n / routers;
        dead[id as usize] = true;
        plan = plan.fail_router(0, coord(id));
    }
    let mut placed = 0;
    let mut cursor = (side as u64 / 2) % n;
    let mut scanned = 0;
    while placed < links && scanned < n {
        let id = cursor;
        cursor = (cursor + 1) % n;
        scanned += 1;
        if dead[id as usize] {
            continue;
        }
        let c = coord(id);
        // East edge first, then north: both stay in-mesh for interior
        // nodes, and the pair is adjacent by construction.
        let peer = if usize::from(c.x) + 1 < side {
            Coord { x: c.x + 1, y: c.y }
        } else if usize::from(c.y) + 1 < side {
            Coord { x: c.x, y: c.y + 1 }
        } else {
            continue;
        };
        if dead[usize::from(peer.y) * side + usize::from(peer.x)] {
            continue;
        }
        plan = plan.fail_link(0, c, peer);
        placed += 1;
    }
    plan
}

/// SplitMix64, the workspace's standard seed scrambler.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of one job from the campaign seed, the job's
/// seed-axis value and its index in the expanded job list. Masked to 53
/// bits so the value survives a JSON number roundtrip exactly.
pub fn derive_job_seed(campaign_seed: u64, axis_seed: u64, job_index: u64) -> u64 {
    let mixed = splitmix64(campaign_seed ^ splitmix64(axis_seed)) ^ job_index;
    splitmix64(mixed) & ((1 << 53) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotnoc_core::configs::ChipConfigId;
    use hotnoc_noc::{FaultKind, TrafficPattern};

    fn sweep() -> CampaignSpec {
        CampaignSpec {
            name: "sweep".to_string(),
            seed: 42,
            fidelity: Fidelity::Quick,
            mode: Mode::Cosim,
            sim_time_ms: None,
            configs: ChipConfigId::ALL
                .iter()
                .map(|&c| ChipKind::Config(c))
                .collect(),
            workloads: vec![Workload::Ldpc],
            policies: vec![PolicyAxis::Periodic],
            schemes: MigrationScheme::FIGURE1.to_vec(),
            periods: vec![8, 32],
            offered_loads: vec![],
            failed_routers: vec![],
            failed_links: vec![],
            seeds: vec![0],
        }
    }

    #[test]
    fn sweep_expands_to_fifty_jobs_in_stable_order() {
        let jobs = sweep().expand();
        assert_eq!(jobs.len(), 5 * 5 * 2);
        // Stable order: first config's first scheme's two periods lead.
        assert_eq!(jobs[0].name, "A/w0:ldpc/rotation/p8/s0");
        assert_eq!(jobs[1].name, "A/w0:ldpc/rotation/p32/s0");
        assert_eq!(jobs[10].name, "B/w0:ldpc/rotation/p8/s0");
        // Names are unique.
        let mut names: Vec<&str> = jobs.iter().map(|jb| jb.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), jobs.len());
        // Expansion is a pure function.
        assert_eq!(sweep().expand(), jobs);
    }

    #[test]
    fn traffic_workloads_collapse_the_policy_axis() {
        let mut spec = sweep();
        spec.workloads.push(Workload::Traffic {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            packet_len: 4,
            cycles: 100,
        });
        spec.seeds = vec![1, 2];
        let jobs = spec.expand();
        // ldpc: 5 schemes x 2 periods, seed axis collapsed (deterministic);
        // traffic: baseline x 2 seeds.
        assert_eq!(jobs.len(), 5 * (5 * 2 + 2));
        let traffic: Vec<_> = jobs
            .iter()
            .filter(|jb| matches!(jb.workload, Workload::Traffic { .. }))
            .collect();
        assert_eq!(traffic.len(), 10);
        assert!(traffic.iter().all(|jb| jb.policy == Policy::Baseline));
        // Every ldpc job carries the first axis seed.
        assert!(jobs
            .iter()
            .filter(|jb| matches!(jb.workload, Workload::Ldpc))
            .all(|jb| jb.name.ends_with("/s1")));
    }

    #[test]
    fn offered_loads_fan_out_traffic_workloads_only() {
        let mut spec = sweep();
        spec.workloads.push(Workload::Traffic {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            packet_len: 4,
            cycles: 100,
        });
        spec.seeds = vec![1, 2];
        spec.offered_loads = vec![0.02, 0.1];
        let jobs = spec.expand();
        // ldpc: 5 schemes x 2 periods (seed axis collapsed, load axis
        // ignored); traffic: 2 loads x 2 seeds.
        assert_eq!(jobs.len(), 5 * (5 * 2 + 2 * 2));
        let traffic: Vec<_> = jobs
            .iter()
            .filter(|jb| matches!(jb.workload, Workload::Traffic { .. }))
            .collect();
        assert_eq!(traffic.len(), 5 * 4);
        // Each traffic job runs at its axis load, tagged in the name.
        assert!(traffic
            .iter()
            .all(|jb| matches!(jb.workload, Workload::Traffic { rate, .. }
                if rate == 0.02 || rate == 0.1)));
        assert_eq!(traffic[0].name, "A/w1:traffic:uniform@l0.02/baseline/s1");
        assert_eq!(traffic[2].name, "A/w1:traffic:uniform@l0.1/baseline/s1");
        // Expansion stays a pure function and the spec round-trips.
        assert_eq!(spec.expand(), jobs);
        let back = CampaignSpec::parse(&spec.to_json().to_string()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn offered_loads_field_is_absent_when_unused() {
        // Campaigns that predate the axis must keep their canonical JSON
        // (and fingerprint) byte-for-byte.
        let text = sweep().to_json().to_string();
        assert!(!text.contains("offered_loads"), "{text}");
    }

    #[test]
    fn offered_loads_validation() {
        let mut bad = sweep();
        bad.offered_loads = vec![0.1, 0.1];
        assert!(bad.validate().is_err(), "duplicate loads");

        let mut bad = sweep();
        bad.offered_loads = vec![0.2, 0.1];
        assert!(bad.validate().is_err(), "decreasing loads");

        let mut bad = sweep();
        bad.offered_loads = vec![0.0];
        assert!(bad.validate().is_err(), "zero load");

        let mut bad = sweep();
        bad.offered_loads = vec![1.5];
        assert!(bad.validate().is_err(), "load above 1");

        let mut ok = sweep();
        ok.offered_loads = vec![0.05, 0.1, 0.2];
        ok.validate().expect("sorted unique loads in (0, 1]");
    }

    #[test]
    fn fault_axes_fan_out_traffic_workloads_only() {
        let mut spec = sweep();
        spec.workloads.push(Workload::Traffic {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            packet_len: 4,
            cycles: 100,
        });
        spec.seeds = vec![1, 2];
        spec.failed_routers = vec![0, 2];
        spec.failed_links = vec![1];
        let jobs = spec.expand();
        // ldpc: 5 schemes x 2 periods (seed axis collapsed, fault axes
        // ignored); traffic: 2 router counts x 1 link count x 2 seeds.
        assert_eq!(jobs.len(), 5 * (5 * 2 + 2 * 2));
        let traffic: Vec<_> = jobs
            .iter()
            .filter(|jb| matches!(jb.workload, Workload::Traffic { .. }))
            .collect();
        assert_eq!(traffic.len(), 5 * 4);
        assert!(jobs
            .iter()
            .filter(|jb| matches!(jb.workload, Workload::Ldpc))
            .all(|jb| jb.faults.is_empty()));
        // Both axes tag the name; the plan size matches the counts.
        assert_eq!(traffic[0].name, "A/w1:traffic:uniform/baseline/fr0/fl1/s1");
        assert_eq!(traffic[0].faults.events().len(), 1);
        assert_eq!(traffic[2].name, "A/w1:traffic:uniform/baseline/fr2/fl1/s1");
        assert_eq!(traffic[2].faults.events().len(), 3);
        // Every produced job passes scenario validation (plans in-bounds).
        for jb in &jobs {
            jb.validate().unwrap_or_else(|e| panic!("{}: {e}", jb.name));
        }
        // Expansion stays a pure function and the spec round-trips.
        assert_eq!(spec.expand(), jobs);
        let back = CampaignSpec::parse(&spec.to_json().to_string()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fault_axes_are_absent_when_unused() {
        // Campaigns that predate the axes must keep their canonical JSON
        // (and fingerprint) byte-for-byte.
        let text = sweep().to_json().to_string();
        assert!(!text.contains("failed_routers"), "{text}");
        assert!(!text.contains("failed_links"), "{text}");
    }

    #[test]
    fn fault_axis_validation() {
        let traffic = Workload::Traffic {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            packet_len: 4,
            cycles: 100,
        };

        let mut bad = sweep();
        bad.failed_routers = vec![1];
        assert!(bad.validate().is_err(), "fault axis without traffic");

        let mut bad = sweep();
        bad.workloads = vec![traffic.clone()];
        bad.policies = vec![PolicyAxis::Baseline];
        bad.schemes = vec![];
        bad.periods = vec![];
        bad.failed_routers = vec![2, 1];
        assert!(bad.validate().is_err(), "decreasing counts");

        let mut bad = sweep();
        bad.workloads = vec![traffic.clone()];
        bad.policies = vec![PolicyAxis::Baseline];
        bad.schemes = vec![];
        bad.periods = vec![];
        // Config A is a small mesh; demanding this many dead routers
        // leaves nothing to route through.
        bad.failed_routers = vec![10_000];
        assert!(bad.validate().is_err(), "count >= nodes");

        let mut ok = sweep();
        ok.workloads = vec![traffic];
        ok.policies = vec![PolicyAxis::Baseline];
        ok.schemes = vec![];
        ok.periods = vec![];
        ok.failed_routers = vec![0, 1, 2];
        ok.failed_links = vec![0, 2];
        ok.validate().expect("increasing counts on traffic");
    }

    #[test]
    fn degraded_fabric_is_deterministic_and_in_bounds() {
        let plan = degraded_fabric(4, 3, 2);
        assert_eq!(plan, degraded_fabric(4, 3, 2), "pure function");
        assert_eq!(plan.events().len(), 5);
        assert!(plan.events().iter().all(|e| e.at == 0));
        let failed: Vec<_> = plan
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::FailRouter(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), 3);
        // Link failures never touch a failed router's ports.
        for e in plan.events() {
            if let FaultKind::FailLink(a, b) = e.kind {
                assert!(!failed.contains(&a) && !failed.contains(&b), "{a:?}-{b:?}");
            }
        }
    }

    #[test]
    fn plan_cost_collapses_periods_and_skips_baseline() {
        let mut spec = sweep();
        spec.mode = Mode::PlanCost;
        spec.policies = vec![
            PolicyAxis::Baseline,
            PolicyAxis::Periodic,
            PolicyAxis::Adaptive,
        ];
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 5 * 5, "one job per chip x scheme");
        assert!(jobs.iter().all(|jb| jb.mode == Mode::PlanCost));
    }

    #[test]
    fn derived_seeds_differ_by_index_and_fit_json() {
        let a = derive_job_seed(42, 0, 0);
        let b = derive_job_seed(42, 0, 1);
        let c = derive_job_seed(43, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a <= (1 << 53));
        // Pure function.
        assert_eq!(a, derive_job_seed(42, 0, 0));
    }

    #[test]
    fn spec_json_roundtrip_and_fingerprint_stability() {
        let spec = sweep();
        let text = spec.to_json().to_string();
        let back = CampaignSpec::parse(&text).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());

        let mut edited = spec.clone();
        edited.periods = vec![8, 64];
        assert_ne!(edited.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn bad_modes_are_named_and_an_absent_mode_is_cosim() {
        let text = sweep().to_json().to_string();
        let with_mode = |m: &str| text.replace("\"mode\": \"cosim\"", &format!("\"mode\": {m}"));
        let err = |m: &str| CampaignSpec::parse(&with_mode(m)).unwrap_err();
        assert_eq!(err("\"plan_cost\""), "unknown mode \"plan_cost\"");
        assert_eq!(err("3"), "field \"mode\" is not a string");
        let absent = text.replace("\"mode\": \"cosim\", ", "");
        assert_eq!(CampaignSpec::parse(&absent).expect("parses"), sweep());
    }

    #[test]
    fn validation_catches_empty_axes() {
        let mut bad = sweep();
        bad.schemes.clear();
        assert!(bad.validate().is_err());

        let mut bad = sweep();
        bad.seeds.clear();
        assert!(bad.validate().is_err());

        let mut bad = sweep();
        bad.name = "has space".to_string();
        assert!(bad.validate().is_err());
    }
}
