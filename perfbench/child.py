"""One benchmark repeat in a fresh interpreter, as one `opkin` invocation.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py RESULT_JSON WORKLOAD CONFIG OUT_DIR SEED TRACE

Times `import opinion_kinetics` plus `parse_config` (set-up), then the
workload's runner call through to its verdicts, and writes the timings,
verdicts, CSV hashes and (when TRACE is 1) the spans to RESULT_JSON.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (the benchmark's own module, stdlib only)

DECAY_VERDICTS = ("entropy_rate", "weighted_l2_rate", "entropy_monotone",
                  "mass_conserved", "ls_rows")
LS_SAMPLES = 200  # verify_ls default: random densities per (lambda, m) point


def run_fp_decay(runners, cfg, out, seed):
    report = runners.run_solve(cfg, out)
    verdicts = report.verdicts()
    checks = {name: bool(verdicts.get(name, False)) for name in DECAY_VERDICTS}
    return checks, {"work": max(1, int(round(cfg.t_end / cfg.dt)))}


def run_mc_vs_fp(runners, cfg, out, seed):
    res = runners.run_mc(cfg, out)
    ens = res["ensemble"]
    return {"l1_budget": bool(res["pass"])}, {
        "work": 2 * ens.attempted_pairs,
        "attempted_pairs": ens.attempted_pairs,
        "rejected_pairs": ens.rejected_pairs,
        "final_l1": res["final_l1"],
    }


def run_ls_battery(runners, cfg, out, seed):
    rep = runners.verify_ls(n=cfg.n, n_samples=LS_SAMPLES, seed=seed, out_dir=out)
    checks = {f"row{i}": bool(r["pass"]) for i, r in enumerate(rep.rows)}
    return checks, {"work": len(rep.rows) * LS_SAMPLES}


WORKLOADS = {
    "fp_decay": ("runners.run_solve", run_fp_decay),
    "mc_vs_fp": ("runners.run_mc", run_mc_vs_fp),
    "ls_battery": ("runners.verify_ls", run_ls_battery),
}


def main(argv):
    result_path, workload, cfg_path, out_dir, seed, traced = argv
    seed, traced = int(seed), traced == "1"

    t0 = time.perf_counter()
    import opinion_kinetics
    from opinion_kinetics import config, runners
    t1 = time.perf_counter()
    cfg = config.parse_config(cfg_path)
    t2 = time.perf_counter()

    pkg_file = Path(opinion_kinetics.__file__).resolve()
    if ROOT / "src" not in pkg_file.parents:
        raise SystemExit(f"imported opinion_kinetics from {pkg_file}, not from {ROOT / 'src'}")

    root_name, fn = WORKLOADS[workload]
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install(opinion_kinetics)
        root = tracer.open(root_name)
    out = Path(out_dir)
    t3 = time.perf_counter()
    checks, extra = fn(runners, cfg, out, seed)
    t4 = time.perf_counter()
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()

    csv = {}
    for path in sorted(out.glob("*.csv")):
        data = path.read_bytes()
        csv[path.name] = [hashlib.sha256(data).hexdigest(), len(data)]

    result = {
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "setup_s": t2 - t0,
        "run_s": t4 - t3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "csv": csv,
        "extra": extra,
        "versions": {"numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "opinion_kinetics": opinion_kinetics.__version__},
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["keys"] = {k: len(v) for k, v in tracer.keys.items()}
        result["missing_wraps"] = tracer.missing
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
