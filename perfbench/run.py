#!/usr/bin/env python3
"""End-to-end benchmark of hotnoc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hotnoc checkout. Builds the `hotnoc` binary and the
`perfbench-probe` timing probe (release, into $CARGO_TARGET_DIR, default
`.bench_build`), generates the workload's inputs from the seed, measures for
about S seconds and checks every output. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
replay through the crates' public functions. Exits 1 when a check fails,
2 on bad usage or when the checkout cannot be built.

Workloads: cosim-sweep, ldpc-14x14, traffic-32x32, serve-mixed, or `all` to
run the four in turn (see perfbench/README.md for what each stresses and
which metric moves where).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
WORKLOADS = ["cosim-sweep", "ldpc-14x14", "traffic-32x32", "serve-mixed"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, target):
    """Builds the CLI from the repository's workspace and the probe from its
    own; both land in `target`."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (["-p", "hotnoc-cli", "--bin", "hotnoc"],
                 ["--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")]):
        out = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                             cwd=root, env=env, capture_output=True, text=True)
        if out.returncode != 0:
            fail(f"build failed ({' '.join(args)}):\n{out.stderr[-2000:]}")


def env_block(root):
    def cmd(args):
        try:
            out = subprocess.run(args, cwd=root, capture_output=True, text=True, timeout=30)
        except OSError:
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    return {
        "nproc": os.cpu_count(),
        "threads": workloads.THREADS,
        "os": platform.platform(),
        "rustc": cmd(["rustc", "--version"]),
        "commit": cmd(["git", "rev-parse", "HEAD"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)  # BENCHMARK.json's run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="record this run's output digest as the default seed's reference")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.workload == "all":
        # One process per workload, so each starts as cold as a user's would.
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode for w in WORKLOADS]
        sys.exit(max(codes))

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "cli"))):
        fail(f"{root} is not a hotnoc checkout (run from the repository root)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target)

    ctx = workloads.Ctx(root, target, args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)
    tally = ctx.tally
    try:
        if args.workload == "serve-mixed":
            result = workloads.run_serve(ctx)
        else:
            result = workloads.run_batch(ctx, args.workload)
    except (OSError, RuntimeError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        tally.check(False, f"{type(e).__name__}: {e}")
        result = None
    reference_path = os.path.join(HERE, "reference.json")
    with open(reference_path) as f:
        reference = json.load(f)
    if result is not None and args.seed == DEFAULT_SEED:
        if args.update_reference:
            reference[args.workload] = result["digest"]
            with open(reference_path, "w") as f:
                json.dump(reference, f, indent=2, sort_keys=True)
                f.write("\n")
        tally.check(reference.get(args.workload) == result["digest"],
                    f"default-seed output digest {result['digest']} does not match the "
                    f"reference {reference.get(args.workload)}")
    if tally.attempted == 0:
        tally.check(False, "nothing ran")

    env = env_block(root)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(env, sort_keys=True)}")
    for line in ctx.lines:
        print(line)
    metrics = {}
    if result is not None:
        for name, (value, unit, n) in result["metrics"].items():
            print(f"{name} = {value:.6g} {unit}   (n = {n})")
            if not args.trace:
                metrics[name] = {"value": value, "unit": unit}
        for name, (value, unit) in (result.get("layers") or {}).items():
            print(f"{name} = {value:.6g} {unit}")
            if args.trace:
                metrics[name] = {"value": value, "unit": unit}
        print(f"output digest {result['digest']}")
    ratio = stats.failed_ratio(tally.attempted, tally.failed)
    print(f"failed_ratio = {ratio:.6g} ratio   ({tally.failed} of {tally.attempted} operations)")
    for e in tally.errors:
        print(f"FAILED: {e}")
    print("the model is unvalidated except for the Figure 1 accuracy line of cosim-sweep")

    correct = tally.failed == 0 and result is not None and (
        not args.trace or bool(result.get("layers")))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "errors": tally.errors, "lines": ctx.lines, "metrics": metrics,
              "samples": result.get("samples") if result else None}
    with open(ctx.path("report.json"), "w") as f:
        json.dump(report, f, indent=2)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
