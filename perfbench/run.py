"""opinion-kinetics benchmark: time to a verified result, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fp_decay --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/BENCHMARK.md for why each was chosen):
  fp_decay    run_solve at the README config from a seeded `file:` density
  mc_vs_fp    run_mc at the README mc block with mc.seed = seed
  ls_battery  verify_ls defaults with the seed as its seed

The benchmark writes the workload's config (and initial density) from the
seed into a scratch directory inside the checkout, then runs repeats, each
in a fresh interpreter (perfbench/child.py), until --seconds have elapsed
in all.  One untimed warm-up repeat comes first; it compiles bytecode and its CSV
hashes are the reference every later repeat must reproduce byte for byte.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repeats and reports the per-layer metrics.  Human-readable lines,
with sample counts, come first; the last line of standard output is one
JSON object.  Full results go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
BLAS_THREADS = 1          # cap for every BLAS/OpenMP pool in the child
MIN_REPEATS = 3           # timed repeats per run, whatever --seconds says
DEADLINE_S = 170.0        # the whole run ends within this, builds excluded
# Median calibration_s() on the reference host (see BENCHMARK.md); every
# reported time is rescaled to this host speed.
REF_CALIBRATION_S = 0.0333

# The README config; every workload starts from it.
README_CFG = """\
lambda = 0.5
m = 0.0
n = 200
dt = 1e-3
t_end = 10
sample_every = 10
bimodal_width = 0.15
"""
MC_AGENTS = 100_000
MC_BLOCK = f"""\
initial = bimodal
mc.n = {MC_AGENTS}
mc.epsilon = 0.01
mc.gamma = 0.5
mc.hist_n = 50
mc.t_end = 2.0
"""

# Expected CSVs per workload; each later repeat must reproduce their bytes.
CSVS = {
    "fp_decay": ("decay.csv", "equilibrium.csv", "final_state.csv"),
    "mc_vs_fp": ("mc_hist.csv", "mc_vs_fp.csv", "moments.csv", "rejection_stats.csv"),
    "ls_battery": ("ls_report.csv",),
}
# Verdict checks per repeat (a crashed repeat fails all of them).
VERDICTS = {"fp_decay": 5, "mc_vs_fp": 1, "ls_battery": 45}
WORK_UNIT = {"fp_decay": "implicit steps", "mc_vs_fp": "agent interactions",
             "ls_battery": "random densities"}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "check_pass_frac": "fraction",
}


# ---------------------------------------------------------------- inputs

def initial_density(seed: int, n: int) -> np.ndarray:
    """Seeded two-bump density on the n cell centers of (-1, 1).

    Bump centers, widths and weights vary with the seed; the result is
    strictly positive, so every functional row is finite.
    """
    rng = np.random.default_rng(seed)
    y = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    centers = rng.uniform(0.3, 0.7, 2) * np.array([-1.0, 1.0])
    widths = rng.uniform(0.1, 0.2, 2)
    weight = rng.uniform(0.3, 0.7)
    return (weight * np.exp(-0.5 * ((y - centers[0]) / widths[0]) ** 2)
            + (1.0 - weight) * np.exp(-0.5 * ((y - centers[1]) / widths[1]) ** 2))


def write_inputs(workload: str, seed: int, tmp: Path) -> Path:
    """Write the workload's config (and fp_decay's density) into tmp."""
    if workload == "fp_decay":
        dens = tmp / "initial.txt"
        np.savetxt(dens, initial_density(seed, 200), fmt="%.17e")
        text = README_CFG + f"initial = file:{dens}\n"
    elif workload == "mc_vs_fp":
        text = README_CFG + MC_BLOCK + f"mc.seed = {seed}\n"
    else:
        text = "lambda = 1.0\nm = 0.0\nn = 400\n"
    cfg = tmp / "workload.cfg"
    cfg.write_text(text, encoding="utf-8")
    return cfg


# ----------------------------------------------------------- environment

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(versions: dict) -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind, size = _read(f"{base}/level"), _read(f"{base}/type"), _read(f"{base}/size")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    # Live float64/int64/bool arrays of one mc_step at N agents, from the
    # array sizes in montecarlo.mc_step: opinions, permutation and output
    # copy (8N each), x, xs, eta, eta*, x', x*' (4N each), the ok mask
    # (N/2), and the accepted index and value gathers (4 arrays of <= 4N).
    n = MC_AGENTS
    mc_bytes = 3 * 8 * n + 6 * 4 * n + n // 2 + 4 * 4 * n
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "blas_thread_cap": BLAS_THREADS,
        "mc_working_set_bytes_computed": mc_bytes,
    }


# ------------------------------------------------------------ host speed

def calibration_s() -> float:
    """Wall time of a fixed numpy kernel, median of five tries (~0.15 s).

    The host's speed drifts by +-25% over seconds to minutes, and a whole
    run can fall in a slow phase, so raw medians differ between runs far
    more than within one.  This kernel mixes the two kinds of work the
    workloads do, small-array calls in a Python loop (solver step,
    functionals) and permute/gather/arithmetic over 1e5 elements (mc_step),
    and uses no package code, so no change to the program can move it.
    """
    small = np.linspace(0.05, 0.95, 200)
    big = np.linspace(-0.9, 0.9, MC_AGENTS)
    tries = []
    for _ in range(5):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(1500):
            y = np.log(small) * small - small + 1.0
            acc += float(y.sum()) + float(np.abs(np.diff(y)).sum())
        for _ in range(4):
            z = big[rng.permutation(big.size)[: big.size // 2]]
            acc += float(np.sqrt(1.0 - z * z).sum())
        tries.append(time.perf_counter() - t0)
    return statistics.median(tries)


# -------------------------------------------------------------- repeats

def run_child(workload, cfg, seed, traced, tmp, rep, timeout) -> dict | None:
    """One fresh-interpreter repeat; None when it crashed or timed out."""
    out = tmp / f"out{rep}"
    res = tmp / f"result{rep}.json"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(CHILD), str(res), workload, str(cfg), str(out),
           str(seed), "1" if traced else "0"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repeat {rep}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    wall = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0 or not res.exists():
        print(f"repeat {rep}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(res.read_text(encoding="utf-8"))
    res.unlink()
    result["wall_s"] = wall
    result["traced"] = traced
    return result


def count_checks(workload, warm, timed) -> tuple[int, int, list]:
    """(attempted, failed, failure names) over verdicts and CSV identity.

    The warm-up repeat's CSV hashes are the reference for the timed ones.
    """
    reference = warm["csv"] if warm is not None else None
    attempted = failed = 0
    failures = []
    labelled = [("warm-up", warm)] + [(f"repeat {i}", r) for i, r in enumerate(timed)]
    for label, r in labelled:
        n_checks = VERDICTS[workload] + len(CSVS[workload])
        attempted += n_checks
        if r is None:
            failed += n_checks
            failures.append(f"{label}: crashed")
            continue
        verdicts = r["checks"]
        bad = [k for k, ok in verdicts.items() if not ok]
        bad += ["missing verdict"] * max(0, VERDICTS[workload] - len(verdicts))
        for name in CSVS[workload]:
            got = r["csv"].get(name)
            if reference is None or got is None or got[0] != reference.get(name, [None])[0]:
                bad.append(f"{name} differs from the warm-up repeat")
        failed += min(len(bad), n_checks)
        failures += [f"{label}: {b}" for b in bad]
    return attempted, failed, failures


# ------------------------------------------------------------- statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_percentile(xs):
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(xs)
    q = (100 * (n - 10)) // n if n else 0
    if q <= 50:
        return None
    return q, float(np.percentile(xs, q))


def end_to_end(timed, attempted, failed):
    """Medians over repeats, times rescaled to the reference host speed."""
    ok = [r for r in timed if r is not None]
    samples = {
        "setup_s": [r["setup_s"] * r["scale"] for r in ok],
        "run_s": [r["run_s"] * r["scale"] for r in ok],
        "work_per_s": [r["extra"]["work"] / (r["run_s"] * r["scale"]) for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    values = {k: median(v) for k, v in samples.items()}
    values["check_pass_frac"] = (attempted - failed) / attempted
    return values, samples


LAYER_METRICS = [
    # name, unit
    ("setup.import_s", "s"), ("setup.parse_s", "s"),
    ("solver.step_us_p50", "us"), ("solver.step_us_p99", "us"), ("solver.step_calls", "count"),
    ("solver.solve_self_s", "s"), ("solver.assemble_us", "us"), ("solver.kernel_us", "us"),
    ("functionals.entropy_gap_us_p50", "us"), ("functionals.entropy_gap_us_p99", "us"),
    ("functionals.entropy_gap_calls", "count"), ("functionals.row_us", "us"),
    ("functionals.ls_slack_us", "us"), ("functionals.ls_slack_calls", "count"),
    ("equilibrium.on_grid_calls", "count"), ("equilibrium.on_grid_distinct_ratio", "ratio"),
    ("grid.random_smooth_density_us", "us"), ("transform.minimize_us", "us"),
    ("montecarlo.mc_step_ns_per_interaction", "ns"), ("montecarlo.mc_step_calls", "count"),
    ("montecarlo.moments_us", "us"), ("montecarlo.histogram_us", "us"),
    ("montecarlo.accept_ratio", "ratio"),
    ("runners.fp_reference_s", "s"), ("runners.write_csv_s", "s"), ("runners.csv_bytes", "bytes"),
    ("fitting.report_s", "s"),
    ("solver.self_s", "s"), ("functionals.self_s", "s"), ("equilibrium.self_s", "s"),
    ("grid.self_s", "s"), ("transform.self_s", "s"), ("montecarlo.self_s", "s"),
    ("runners.self_s", "s"), ("fitting.self_s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_frac", "ratio"), ("trace.coverage_frac", "ratio"),
    ("trace.spans", "count"),
]
LAYERS = ("solver", "functionals", "equilibrium", "grid", "transform", "montecarlo",
          "runners", "fitting")
ROW_SPANS = ("functionals.fisher", "functionals.weighted_l2", "functionals.l1")


def span_tables(r):
    """Per-repeat span arrays: names, durations, self times, parent indices."""
    spans = r["spans"]
    names = [s[0] for s in spans]
    start = np.array([s[1] for s in spans])
    dur = (np.array([s[2] for s in spans]) - start) * r["scale"]
    parent = np.array([s[3] for s in spans], dtype=int)
    child = np.zeros(len(spans))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return names, dur, dur - child, parent


def per_layer(timed):
    """Per-layer metrics from the traced repeats, setup from all repeats.

    Times are rescaled to the reference host speed like the end-to-end ones.
    """
    ok = [r for r in timed if r is not None]
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    pooled = defaultdict(list)   # span name -> durations over all traced repeats
    reps = defaultdict(list)     # per-repeat quantity -> one value per traced repeat
    for r in traced:
        names, dur, self_t, parent = span_tables(r)
        calls, total, self_layer = Counter(), Counter(), Counter()
        row_t = 0.0
        for i, name in enumerate(names):
            pooled[name].append(dur[i])
            calls[name] += 1
            total[name] += dur[i]
            self_layer[name.split(".", 1)[0]] += self_t[i]
            if name in ROW_SPANS and parent[i] >= 0 and names[parent[i]] == "solver.solve":
                row_t += dur[i]
        rows = sum(1 for i, n in enumerate(names) if n == "functionals.weighted_l2"
                   and parent[i] >= 0 and names[parent[i]] == "solver.solve")
        for name in ("solver.step", "functionals.entropy_gap", "functionals.ls_slack",
                     "equilibrium.on_grid", "montecarlo.mc_step"):
            reps[name + ".calls"].append(calls[name])
        for name in ("runners.fp_reference", "runners.write_csv", "fitting.report"):
            reps[name + ".total"].append(total[name])
        reps["solver.solve.self"].append(
            sum(self_t[i] for i, n in enumerate(names) if n == "solver.solve"))
        for layer in LAYERS:
            reps[layer + ".self"].append(self_layer[layer])
        reps["row_us"].append(row_t / rows * 1e6 if rows else 0.0)
        on_grid = calls["equilibrium.on_grid"]
        reps["on_grid_distinct"].append(r["keys"]["equilibrium.on_grid"] / on_grid
                                        if on_grid else 0.0)
        reps["coverage"].append(1.0 - self_t[0] / dur[0])
        reps["spans"].append(len(names))
        reps["csv_bytes"].append(sum(size for _, size in r["csv"].values()))
        if "attempted_pairs" in r["extra"]:
            e = r["extra"]
            reps["accept"].append(1.0 - e["rejected_pairs"] / e["attempted_pairs"])

    def pct(name, q, scale):
        xs = pooled.get(name)
        return (float(np.percentile(xs, q)) * scale, len(xs)) if xs else (0.0, 0)

    def rep_median(key):
        xs = reps.get(key, [])
        return median(xs), len(xs)

    run_traced = median([r["run_s"] * r["scale"] for r in traced])
    run_plain = median([r["run_s"] * r["scale"] for r in plain])
    mc_ns = pct("montecarlo.mc_step", 50, 1e9 / MC_AGENTS)
    out = {
        "setup.import_s": (median([r["import_s"] * r["scale"] for r in ok]), len(ok)),
        "setup.parse_s": (median([r["parse_s"] * r["scale"] for r in ok]), len(ok)),
        "solver.step_us_p50": pct("solver.step", 50, 1e6),
        "solver.step_us_p99": pct("solver.step", 99, 1e6),
        "solver.step_calls": rep_median("solver.step.calls"),
        "solver.solve_self_s": rep_median("solver.solve.self"),
        "solver.assemble_us": pct("solver.assemble", 50, 1e6),
        "solver.kernel_us": pct("solver.kernel", 50, 1e6),
        "functionals.entropy_gap_us_p50": pct("functionals.entropy_gap", 50, 1e6),
        "functionals.entropy_gap_us_p99": pct("functionals.entropy_gap", 99, 1e6),
        "functionals.entropy_gap_calls": rep_median("functionals.entropy_gap.calls"),
        "functionals.row_us": rep_median("row_us"),
        "functionals.ls_slack_us": pct("functionals.ls_slack", 50, 1e6),
        "functionals.ls_slack_calls": rep_median("functionals.ls_slack.calls"),
        "equilibrium.on_grid_calls": rep_median("equilibrium.on_grid.calls"),
        "equilibrium.on_grid_distinct_ratio": rep_median("on_grid_distinct"),
        "grid.random_smooth_density_us": pct("grid.random_smooth_density", 50, 1e6),
        "transform.minimize_us": pct("transform.minimize", 50, 1e6),
        "montecarlo.mc_step_ns_per_interaction": mc_ns,
        "montecarlo.mc_step_calls": rep_median("montecarlo.mc_step.calls"),
        "montecarlo.moments_us": pct("montecarlo.moments", 50, 1e6),
        "montecarlo.histogram_us": pct("montecarlo.histogram", 50, 1e6),
        "montecarlo.accept_ratio": rep_median("accept"),
        "runners.fp_reference_s": rep_median("runners.fp_reference.total"),
        "runners.write_csv_s": rep_median("runners.write_csv.total"),
        "runners.csv_bytes": rep_median("csv_bytes"),
        "fitting.report_s": rep_median("fitting.report.total"),
        "trace.run_s": (run_traced, len(traced)),
        "trace.overhead_frac": (run_traced / run_plain - 1.0 if run_plain else 0.0,
                                min(len(traced), len(plain))),
        "trace.coverage_frac": rep_median("coverage"),
        "trace.spans": rep_median("spans"),
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = rep_median(layer + ".self")
    values = {name: float(out[name][0]) for name, _ in LAYER_METRICS}
    counts = {name: out[name][1] for name, _ in LAYER_METRICS}
    return values, counts


def write_spans(path: Path, timed):
    """All traced spans as JSON lines: name, start, end, parent, repeat."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rep, r in enumerate(timed):
            if r is None or not r["traced"]:
                continue
            for name, start, end, parent in r["spans"]:
                fh.write(json.dumps([name, start, end, parent, rep]) + "\n")


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CSVS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "opinion_kinetics" / "__init__.py").is_file():
        print(f"no opinion_kinetics package under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    timed, cal, warm = [], [], None
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        cfg = write_inputs(args.workload, args.seed, tmp)
        warm = run_child(args.workload, cfg, args.seed, False, tmp, "warm",
                         deadline - time.perf_counter())
        timed, cal = [], [calibration_s()]
        while True:
            traced = args.trace == 1 and len(timed) % 2 == 1
            left = deadline - time.perf_counter()
            if left < 1.0:
                break
            r = run_child(args.workload, cfg, args.seed, traced, tmp, len(timed), left)
            cal.append(calibration_s())
            if r is not None:
                # host speed around this repeat: the calibrations on either side
                r["scale"] = REF_CALIBRATION_S / (0.5 * (cal[-2] + cal[-1]))
            timed.append(r)
            walls = [x["wall_s"] for x in timed if x is not None]
            elapsed = time.perf_counter() - started
            step = median(walls) if walls else 0.0
            if len(timed) >= MIN_REPEATS + args.trace and elapsed + step > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    attempted, failed, failures = count_checks(args.workload, warm, timed)
    versions = next((r["versions"] for r in [warm] + timed if r is not None), {})
    env = environment(versions)

    ok = [r for r in timed if r is not None]
    samples = {}
    if args.trace:
        values, counts = per_layer(timed)
        units = dict(LAYER_METRICS)
    else:
        values, samples = end_to_end(timed, attempted, failed)
        counts = {k: len(v) for k, v in samples.items()}
        counts["check_pass_frac"] = attempted
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repeats {len(timed)} (+1 warm-up)  work per repeat: "
          f"{ok[0]['extra']['work'] if ok else '?'} {WORK_UNIT[args.workload]}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"  host speed scale (reference / measured): median "
          f"{median([r['scale'] for r in ok])!r} over {len(cal)} calibrations; "
          f"raw medians: setup {median([r['setup_s'] for r in ok])!r} s, "
          f"run {median([r['run_s'] for r in ok])!r} s")
    for name, value in values.items():
        line = f"  {name} = {value!r} {units[name]}  (n = {counts[name]})"
        tail = tail_percentile(samples.get(name, []))
        if tail is not None:
            line += f"  p{tail[0]} = {tail[1]!r}"
        print(line)
    print(f"  checks: {attempted - failed}/{attempted} passed "
          f"(check_fail_frac = {failed / attempted!r})")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    missing = sorted({m for r in ok for m in r.get("missing_wraps", [])})
    if missing:
        print("  untraced (name not found): " + ", ".join(missing))

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "attempted": attempted, "failed": failed,
        "failures": failures,
        "metrics": {n: {"value": v, "unit": units[n], "samples": counts[n]}
                    for n, v in values.items()},
        "repeats": [None if r is None else {k: v for k, v in r.items() if k != "spans"}
                    for r in [warm] + timed],
        "calibration_s": cal,
        "elapsed_s": time.perf_counter() - started,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        write_spans(out_dir / f"{stem}-spans.jsonl.gz", timed)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
