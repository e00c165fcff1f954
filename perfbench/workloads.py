"""The four workloads: inputs generated from the seed, the untraced
measurement through the `hotnoc` binary, the traced replay through
`perfbench-probe`, and the output checks."""

import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import time

import stats

# Worker threads for every hotnoc process: the default on the 2-CPU machine
# the benchmark was tuned on, pinned so other machines run the same work.
THREADS = 2
SETUPS_PER_REP = 4
MIN_REPS = 3
DAEMON_TIMEOUT_S = 30.0

FIGURE1_SCHEMES = ["rotation", "x-mirror", "xy-mirror", "right-shift", "xy-shift"]
# Figure 1 of the paper, read off its period-1 bars: average peak reduction
# (deg C) of X-Y shift and rotation over configurations A-E, and the X-Y
# shift throughput penalty.
PAPER_FIG1 = {"xy-shift": 4.62, "rotation": 4.15, "xy_penalty": 0.016}


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message)
        return ok


class Ctx:
    """Paths and options of one benchmark run."""

    def __init__(self, root, target, workload, seed, seconds, trace):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.hotnoc = os.path.join(target, "release", "hotnoc")
        self.probe = os.path.join(target, "release", "perfbench-probe")
        self.work = os.path.join(target, "perfbench-work", f"{workload}-s{seed}-t{int(trace)}")
        self.env = dict(os.environ, HOTNOC_THREADS=str(THREADS))
        self.tally = Tally()
        self.lines = []  # human-readable report lines

    def path(self, name):
        return os.path.join(self.work, name)

    def rel(self, name):
        """A path relative to the checkout root (unix socket paths are short)."""
        return os.path.relpath(self.path(name), self.root)


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_timed(ctx, args):
    """Runs a process to completion. Returns (wall s, peak RSS MB, exit code,
    stderr text); the RSS is the child's own, from wait4."""
    err_path = ctx.path("stderr.log")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ctx.root, env=ctx.env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr


# ---------------------------------------------------------------- batch ---


def campaign_spec(name, seed, fidelity, configs, workloads, policies, schemes=(), periods=(),
                  seeds=(0,), sim_time_ms=None):
    spec = {
        "schema": "hotnoc-campaign-spec-v1",
        "name": name,
        "seed": seed % (1 << 53),  # the spec validator's limit
        "fidelity": fidelity,
        "mode": "cosim",
    }
    if sim_time_ms is not None:
        spec["sim_time_ms"] = sim_time_ms
    spec.update(
        configs=configs,
        workloads=workloads,
        policies=policies,
        schemes=list(schemes),
        periods=list(periods),
        seeds=list(seeds),
    )
    return spec


def cosim_sweep_spec(seed):
    # LDPC co-simulations read no randomness; the seed reaches the campaign
    # and per-job seeds only.
    return campaign_spec(
        "cosim-sweep", seed, "full",
        configs=[{"config": c} for c in "ABCDE"],
        workloads=[{"kind": "ldpc"}],
        policies=["periodic"],
        schemes=FIGURE1_SCHEMES,
        periods=[1, 4],
        sim_time_ms=200,
    )


def ldpc_14x14_spec(seed):
    rng = random.Random(seed)
    # Mildly uneven tile weights and calibration target, so every seed is a
    # different die of about the same size of work.
    weights = [round(rng.uniform(0.8, 1.2), 3) for _ in range(14 * 14)]
    chip = {"custom": {"mesh_side": 14, "tile_weights": weights,
                       "base_peak_celsius": round(rng.uniform(80.0, 90.0), 2)}}
    return campaign_spec(
        "ldpc-14x14", seed, "full",
        configs=[chip],
        workloads=[{"kind": "ldpc"}],
        policies=["periodic"],
        schemes=["xy-shift"],
        periods=[1],
    )


def traffic_32x32_spec(seed):
    chip = {"custom": {"mesh_side": 32, "tile_weights": [1.0] * (32 * 32),
                       "base_peak_celsius": 85.0}}
    return campaign_spec(
        "traffic-32x32", seed, "full",
        configs=[chip],
        workloads=[{"kind": "traffic", "pattern": "uniform", "rate": 0.05,
                    "packet_len": 4, "cycles": 2000}],
        policies=["baseline"],
        seeds=[seed % 1_000_000],
    )


def check_campaign(ctx, doc):
    """Workload-independent sanity of an artifact: every job has a result."""
    results = doc.get("results", [])
    return ctx.tally.check(len(results) == doc.get("jobs"),
                           f"artifact lists {len(results)} of {doc.get('jobs')} jobs")


def check_traffic(ctx, doc):
    ok = check_campaign(ctx, doc)
    for r in doc.get("results", []):
        o = r["outcome"]
        ok &= ctx.tally.check(o["delivered"] == o["offered"] and o["drained"] is True,
                              f"{r['scenario']}: delivered {o['delivered']} of "
                              f"{o['offered']}, drained {o['drained']}")
    return ok


def accuracy_lines(doc):
    """The model's error against the paper's Figure 1, from the period-1
    groups. Informational: nothing gates on it."""
    by_scheme = {}
    for r in doc["results"]:
        policy = r["spec"]["policy"]
        if policy.get("period_blocks") == 1:
            by_scheme.setdefault(policy["scheme"], []).append(r["outcome"])
    xy, rot = by_scheme.get("xy-shift", []), by_scheme.get("rotation", [])
    if not xy or not rot:
        return []
    xy_red = sum(o["reduction"] for o in xy) / len(xy)
    rot_red = sum(o["reduction"] for o in rot) / len(rot)
    xy_pen = sum(o["throughput_penalty"] for o in xy) / len(xy)
    return [
        "accuracy vs paper Figure 1 (informational, never gated; period 1, mean of configs A-E):",
        f"  X-Y shift reduction {xy_red:.2f} C vs 4.62 C (error {xy_red - PAPER_FIG1['xy-shift']:+.2f} C)",
        f"  rotation reduction  {rot_red:.2f} C vs 4.15 C (error {rot_red - PAPER_FIG1['rotation']:+.2f} C)",
        f"  X-Y shift penalty   {100 * xy_pen:.2f} % vs 1.6 % (error {100 * (xy_pen - PAPER_FIG1['xy_penalty']):+.2f} pp)",
        "  apart from these three figures the model is unvalidated.",
    ]


BATCH = {
    "cosim-sweep": (cosim_sweep_spec, check_campaign),
    "ldpc-14x14": (ldpc_14x14_spec, check_campaign),
    "traffic-32x32": (traffic_32x32_spec, check_traffic),
}


def run_batch(ctx, name):
    make_spec, semantic_check = BATCH[name]
    spec = make_spec(ctx.seed)
    spec_path = ctx.path("spec.json")
    write_json(spec_path, spec)
    campaign = [ctx.hotnoc, "campaign", "run", "--spec", spec_path, "--threads", str(THREADS),
                "--quiet", "--fresh"]

    # Repetitions, each in a fresh process, until the next would overrun.
    # Before each, a few set-ups: process start, spec parse, validate, expand
    # and pool spawn, stopping before the first job. Spreading them over the
    # run samples the same host phases as the repetitions.
    artifact = ctx.path(os.path.join("rep", f"CAMPAIGN_{name}.json"))
    setups, walls, rss, digests = [], [], [], set()
    data = b""
    reps = 0
    start = time.perf_counter()
    while reps < MIN_REPS or (
            walls and time.perf_counter() - start + statistics.median(walls) <= ctx.seconds):
        reps += 1
        for _ in range(SETUPS_PER_REP):
            wall, _, code, err = run_timed(ctx, campaign + ["--out-dir", ctx.path("setup"),
                                                            "--max-jobs", "0"])
            if ctx.tally.check(code == 0, f"set-up exited {code}: {err[-300:]}"):
                setups.append(wall)
        wall, peak, code, err = run_timed(ctx, campaign + ["--out-dir", ctx.path("rep")])
        if not ctx.tally.check(code == 0 and os.path.exists(artifact),
                               f"repetition exited {code}: {err[-300:]}"):
            continue
        with open(artifact, "rb") as f:
            data = f.read()
        if not digests:
            # The CLI's own validator (validate_campaign_json), then the
            # workload's semantic check.
            _, _, code, err = run_timed(ctx, [ctx.hotnoc, "campaign", "check", artifact])
            ctx.tally.check(code == 0, f"campaign check exited {code}: {err[-300:]}")
            semantic_check(ctx, json.loads(data))
        digests.add(sha256(data))
        walls.append(wall)
        rss.append(peak)
    ctx.tally.check(len(digests) == 1, f"repetitions produced {len(digests)} distinct artifacts")
    if not walls or not setups:
        return None

    result = {
        "metrics": {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "wall_s": (statistics.median(walls), "s", len(walls)),
            "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
        },
        "samples": {"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss},
        "digest": sha256(data),
    }
    if name == "cosim-sweep":
        ctx.lines += accuracy_lines(json.loads(data))
    if ctx.trace:
        result["layers"] = traced_batch(ctx, spec_path, data, statistics.median(walls))
    return result


def traced_batch(ctx, spec_path, cli_artifact, untraced_wall):
    """Replays the campaign through the probe and checks that the replay
    encodes the very artifact the CLI wrote."""
    report_path, artifact_path = ctx.path("replay.json"), ctx.path("replay_artifact.json")
    wall, _, code, err = run_timed(ctx, [ctx.probe, "replay", spec_path, report_path,
                                         artifact_path])
    if not ctx.tally.check(code == 0, f"replay exited {code}: {err[-300:]}"):
        return None
    with open(artifact_path, "rb") as f:
        ctx.tally.check(f.read() == cli_artifact,
                        "the traced replay's artifact differs from the untraced run's")
    with open(report_path) as f:
        report = json.load(f)
    return layer_metrics(report["spans"], report["counts"], report["wall_ns"], wall / untraced_wall)


# ---------------------------------------------------------------- serve ---

WARM_SPECS = 16
MISS_SPECS = 100
CONN_HITS = 200
KEEPALIVE_HITS = 1000


def serve_campaign(name, seeds):
    """Quick config-A traffic scenarios, one per seed."""
    return campaign_spec(
        name, 0, "quick",
        configs=[{"config": "A"}],
        workloads=[{"kind": "traffic", "pattern": "uniform", "rate": 0.05,
                    "packet_len": 4, "cycles": 300}],
        policies=["baseline"],
        seeds=seeds,
    )


def expand(ctx, spec, name):
    path = ctx.path(name)
    write_json(path, spec)
    out = subprocess.run([ctx.probe, "expand", path], cwd=ctx.root, env=ctx.env,
                         capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def serve_script(rng):
    """Spec indices 0..WARM_SPECS are journaled before the daemon starts; the
    next MISS_SPECS are new. The kept-alive list sends every miss once, at
    seeded positions, among KEEPALIVE_HITS hits on warm entries or on misses
    already computed."""
    misses = list(range(WARM_SPECS, WARM_SPECS + MISS_SPECS))
    slots = ["miss"] * MISS_SPECS + ["hit"] * KEEPALIVE_HITS
    rng.shuffle(slots)
    keepalive, computed = [], []
    for slot in slots:
        if slot == "miss":
            keepalive.append(misses[len(computed)])
            computed.append(keepalive[-1])
        elif computed and rng.random() < 0.5:
            keepalive.append(rng.choice(computed))
        else:
            keepalive.append(rng.randrange(WARM_SPECS))
    conn_hits = [rng.randrange(WARM_SPECS) for _ in range(CONN_HITS)]
    return conn_hits, keepalive


class Daemon:
    """One `hotnoc serve` process on a unix socket under the work dir."""

    def __init__(self, ctx, journal):
        self.ctx = ctx
        self.socket = ctx.rel("d.sock")
        self.err = open(ctx.path("daemon.log"), "wb")
        self.proc = None
        self.journal = journal
        self.usage = None

    def start(self):
        """Spawns the daemon and returns seconds until its first pong."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [self.ctx.hotnoc, "serve", "--socket", self.socket, "--journal", self.journal,
             "--threads", str(THREADS), "--spool", self.ctx.rel("spool")],
            cwd=self.ctx.root, env=self.ctx.env, stdout=subprocess.DEVNULL, stderr=self.err)
        while time.perf_counter() - t0 < DAEMON_TIMEOUT_S:
            try:
                reply = self.line('{"op": "ping"}')
                if json.loads(reply).get("pong") is True:
                    return time.perf_counter() - t0
            except (FileNotFoundError, ConnectionRefusedError):
                # Poll without sleeping: connecting before the accept loop's
                # first idle sleep times the daemon's own start-up, not
                # where the poll happened to land in its 50 ms sleep.
                if self.proc.poll() is not None:
                    break
        raise RuntimeError("daemon did not answer a ping")

    def line(self, request):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(DAEMON_TIMEOUT_S)
            s.connect(self.socket)
            s.sendall(request.encode() + b"\n")
            return s.makefile("rb").readline().decode()

    def stop(self):
        """Drains the daemon (killing it if it will not go) and returns its
        stderr log."""
        if self.proc is not None and self.usage is None:
            try:
                self.line('{"op": "shutdown"}')
            except OSError:
                pass
            deadline = time.perf_counter() + DAEMON_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.usage = usage
                    break
                if time.perf_counter() > deadline:
                    self.proc.kill()
                time.sleep(0.002)
        self.err.close()
        with open(self.ctx.path("daemon.log"), errors="replace") as f:
            return f.read()

    def peak_rss_mb(self):
        return self.usage.ru_maxrss / 1024.0


def serve_pass(ctx, script, trace=False):
    script_path, out_path = ctx.path("script.json"), ctx.path("pass.json")
    write_json(script_path, script)
    args = [ctx.probe, "serve-pass", "--socket", ctx.rel("d.sock"), "--script", script_path,
            "--out", out_path] + (["--trace"] if trace else [])
    _, _, code, err = run_timed(ctx, args)
    if not ctx.tally.check(code == 0, f"serve client exited {code}: {err[-300:]}"):
        return None
    with open(out_path) as f:
        res = json.load(f)
    ctx.tally.attempted += res["attempted"]
    ctx.tally.failed += res["failed"]
    ctx.tally.errors += res["errors"][:5]
    return res


def fresh_journal(ctx):
    path = ctx.path("journal.jsonl")
    shutil.copyfile(ctx.path("warm.jsonl"), path)
    return path


def drained_counts(log):
    """(computed, cache hits) from the daemon's drain line."""
    for line in log.splitlines():
        if line.startswith("serve: drained after"):
            words = line.replace("(", " ").replace(",", " ").split()
            return int(words[words.index("computed") - 1]), int(words[words.index("cache") - 1])
    return None, None


def one_pass(ctx, script, trace=False):
    """A fresh daemon on the warm journal, one script pass, a drain.
    Returns (set-up s, pass result, daemon RSS MB, daemon hits, journal lines)."""
    daemon = Daemon(ctx, fresh_journal(ctx))
    try:
        setup = daemon.start()
        res = serve_pass(ctx, script, trace)
    finally:
        log = daemon.stop()
    computed, hits = drained_counts(log)
    with open(daemon.journal) as f:
        journal_lines = sum(1 for _ in f)
    if res is not None:
        ctx.tally.check(computed == MISS_SPECS,
                        f"daemon computed {computed} submissions, expected {MISS_SPECS}")
        ctx.tally.check(hits == res["hit_requests"],
                        f"daemon logged {hits} hits for {res['hit_requests']} hit requests")
        ctx.tally.check(journal_lines == 1 + WARM_SPECS + MISS_SPECS,
                        f"journal holds {journal_lines} lines")
    return setup, res, daemon.peak_rss_mb(), hits, journal_lines


def run_serve(ctx):
    rng = random.Random(ctx.seed)
    seeds = rng.sample(range(1, 1_000_000), WARM_SPECS + MISS_SPECS)
    warm = expand(ctx, serve_campaign("serve-warm", seeds[:WARM_SPECS]), "warm.json")
    misses = expand(ctx, serve_campaign("serve-miss", seeds[WARM_SPECS:]), "misses.json")
    conn_hits, keepalive = serve_script(rng)

    # Untimed set-up: a first daemon computes the warm results into the
    # journal; its responses are the reference bytes for every later hit.
    daemon = Daemon(ctx, ctx.path("warm.jsonl"))
    try:
        daemon.start()
        warm_pass = serve_pass(ctx, {"specs": warm, "conn_hits": [],
                                     "keepalive": list(range(WARM_SPECS))})
    finally:
        daemon.stop()
    if warm_pass is None or None in warm_pass["reference"]:
        return None
    script = {"specs": warm + misses, "reference": warm_pass["reference"] + [None] * MISS_SPECS,
              "conn_hits": conn_hits, "keepalive": keepalive}

    # The first pass sends the new-connection hits beside the kept-alive
    # stream; they wait on the daemon's accept poll, so they feed only
    # hit_conn_ms. Later passes send the kept-alive stream alone, each on a
    # fresh daemon so its misses are computed again. wall_s is the kept-alive
    # connection's elapsed time: compute, cache, journal and JSON.
    setups, walls, rss, digests = [], [], [], set()
    samples = {"conn_hit_ns": [], "keepalive_hit_ns": [], "miss_ns": []}
    start = time.perf_counter()
    last = 0.0
    while len(walls) < MIN_REPS or time.perf_counter() - start + last <= ctx.seconds:
        t0 = time.perf_counter()
        setup, res, peak, _, _ = one_pass(ctx, script if not walls else dict(script, conn_hits=[]))
        last = time.perf_counter() - t0
        setups.append(setup)
        if res is None:
            break
        walls.append(res["keepalive_ns"] / 1e9)
        rss.append(peak)
        for k in samples:
            samples[k] += res[k]
        digests.add(sha256(json.dumps(res["reference"]).encode()))
    ctx.tally.check(len(digests) == 1, f"passes produced {len(digests)} distinct response sets")
    if not walls:
        return None

    for key, label, scale, unit in (("conn_hit_ns", "hit_conn_ms", 1e6, "ms"),
                                    ("keepalive_hit_ns", "hit_keepalive_us", 1e3, "us"),
                                    ("miss_ns", "miss_ms", 1e6, "ms")):
        vals = [v / scale for v in samples[key]]
        try:
            p, tail_value, n = stats.tail(vals)
        except ValueError as e:
            ctx.tally.check(False, f"{label}: {e}")
            continue
        ctx.lines.append(f"{label}.p50 = {stats.percentile(vals, 50):.6g} {unit}   "
                         f"{label}.p{p:g} = {tail_value:.6g} {unit}   (n = {n})")
    result = {
        "metrics": {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "wall_s": (statistics.median(walls), "s", len(walls)),
            "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
        },
        "samples": {"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss},
        "digest": digests.pop() if len(digests) == 1 else "mixed",
    }
    if ctx.trace:
        result["layers"] = traced_serve(ctx, script, statistics.median(walls))
    return result


def traced_serve(ctx, script, untraced_wall):
    """A traced pass on a fresh daemon, then the misses replayed in-process
    for the NoC layer the daemon ran them on."""
    _, res, _, hits, journal_lines = one_pass(ctx, script, trace=True)
    if res is None:
        return None
    spec_path, report_path, artifact_path = (ctx.path("misses.json"), ctx.path("replay.json"),
                                             ctx.path("replay_artifact.json"))
    _, _, code, err = run_timed(ctx, [ctx.probe, "replay", spec_path, report_path, artifact_path])
    if not ctx.tally.check(code == 0, f"replay exited {code}: {err[-300:]}"):
        return None
    with open(report_path) as f:
        report = json.load(f)
    with open(artifact_path) as f:
        replayed = [r["outcome"] for r in json.load(f)["results"]]
    served = [json.loads(script_ref[-1])["outcome"]
              for script_ref in res["reference"][WARM_SPECS:]]
    ctx.tally.check(replayed == served,
                    "replayed miss outcomes differ from the daemon's responses")
    # The replay's own campaign encode is not daemon work: keep its NoC
    # spans and the serve pass's JSON spans.
    spans = [s for s in report["spans"] if not s["name"].startswith("scenario.json")]
    offset = len(spans)
    for s in res["spans"]:
        s = dict(s, id=s["id"] + offset)
        if s["parent"] is not None:
            s["parent"] += offset
        spans.append(s)
    counts = dict(report["counts"])
    counts["scenario.artifact_bytes"] = res["json_bytes"]
    serve = {
        "response_bytes": res["response_bytes"] / max(1, res["responses"]),
        "hit_ratio": (hits or 0) / max(1, res["hit_requests"]),
        "journal_lines": journal_lines,
        "retryable_rejects": res["retryable"],
    }
    # Coverage and overhead are over the traced pass, the user-facing part
    # (the JSON replays run after it).
    pass_spans = [s for s in spans[offset:] if s["name"].startswith("serve.")]
    layers = layer_metrics(spans, counts, res["pass_ns"],
                           res["keepalive_ns"] / 1e9 / untraced_wall, serve)
    layers["trace.span_coverage"] = (stats.coverage(pass_spans, res["pass_ns"]), "ratio")
    return layers


# --------------------------------------------------------------- layers ---

def layer_metrics(spans, counts, wall_ns, overhead, serve=None):
    """Per-layer metrics from spans and exact counters. A layer that is not
    on the workload's path reports 0."""
    kids = stats.children_of(spans)
    by_id = {s["id"]: s for s in spans}

    def total(*names):
        return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] in names) / 1e9

    def self_s(name):
        return sum(stats.self_time(s, kids[s["id"]]) for s in spans if s["name"] == name) / 1e9

    def per(numer, denom, scale=1.0):
        return numer * scale / denom if denom else 0.0

    c = counts
    busy = total("noc.traffic_run", "ldpc.block_run")
    pre, alloc = c["noc.pre_sweep_ns"] / 1e9, c["noc.alloc_sweep_ns"] / 1e9
    step_s = total("thermal.step")
    connect = [(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans if s["name"] == "serve.connect"]
    first_byte = [(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans
                  if s["name"] == "serve.first_byte" and s["parent"] is not None
                  and by_id[s["parent"]]["name"] == "serve.request"]
    serve = serve or {}
    m = {
        "noc.cycles": (c["noc.cycles"], "count"),
        "noc.flit_hops": (c["noc.flit_hops"], "count"),
        "noc.busy_s": (busy, "s"),
        "noc.ns_per_cycle": (per(busy, c["noc.cycles"], 1e9), "ns"),
        "noc.ns_per_flit_hop": (per(busy, c["noc.flit_hops"], 1e9), "ns"),
        "noc.pre_sweep_s": (pre, "s"),
        "noc.alloc_sweep_s": (alloc, "s"),
        "noc.unscoped_s": (max(0.0, busy - pre - alloc), "s"),
        "noc.delivered_ratio": (per(c["noc.delivered"], c["noc.offered"]), "ratio"),
        "noc.drain_cycles": (c["noc.drain_cycles"], "count"),
        "ldpc.code_build_s": (total("ldpc.code_build"), "s"),
        "ldpc.block_run_s": (total("ldpc.block_run"), "s"),
        "ldpc.block_cycles": (c["ldpc.block_cycles"], "count"),
        "thermal.rc_build_s": (total("thermal.rc_build"), "s"),
        "thermal.steady_us": (per(total("thermal.steady"), c["thermal.steady_calls"], 1e6), "us"),
        "thermal.steps": (c["thermal.steps"], "count"),
        "thermal.step_s": (step_s, "s"),
        "thermal.ns_per_step": (per(step_s, c["thermal.steps"], 1e9), "ns"),
        "power.leakage_us": (per(total("power.leakage"), c["power.leakage_calls"], 1e6), "us"),
        "reconfig.plan_us": (per(total("reconfig.plan"), c["reconfig.plans"], 1e6), "us"),
        "reconfig.phases": (c["reconfig.phases"], "count"),
        "reconfig.migrations": (c["reconfig.migrations"], "count"),
        "core.chip_build_s": (total("core.chip_build"), "s"),
        "core.calibrate_s": (total("core.calibrate"), "s"),
        "core.calibrate_self_s": (self_s("core.calibrate"), "s"),
        "core.cosim_s": (total("core.cosim"), "s"),
        "core.cosim_self_s": (self_s("core.cosim"), "s"),
        "scenario.json_encode_s": (total("scenario.json_encode"), "s"),
        "scenario.json_parse_s": (total("scenario.json_parse"), "s"),
        "scenario.artifact_bytes": (c["scenario.artifact_bytes"], "bytes"),
        "serve.connect_us": (statistics.median(connect) if connect else 0.0, "us"),
        "serve.first_byte_us": (statistics.median(first_byte) if first_byte else 0.0, "us"),
        "serve.response_bytes": (serve.get("response_bytes", 0.0), "bytes"),
        "serve.hit_ratio": (serve.get("hit_ratio", 0.0), "ratio"),
        "serve.journal_lines": (serve.get("journal_lines", 0), "count"),
        "serve.retryable_rejects": (serve.get("retryable_rejects", 0), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.span_coverage": (stats.coverage(spans, wall_ns), "ratio"),
    }
    return m
