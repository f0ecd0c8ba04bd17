"""One benchmark round in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload laws --seed 1 [--trace]

A round sets up (imports catlog.cli and parses the standard corpus),
builds the workload's inputs from the seed, runs the timed part, then checks
every answer.  Set-up and the timed part are timed as wall time, as CPU time
of this process, and as CPU time scaled to the reference host speed that
probe.py samples all through an untraced round.  With --trace, wrappers at
the layer boundaries record spans over the whole round instead, and no
probe runs; set-up and the timed part are then slower by the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import answers
import probe
import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup() -> tuple[object, float, float]:
    """The standard environment, and the CPU and wall seconds it took to
    import catlog.cli and parse the standard corpus."""
    cpu, wall = process_time(), perf_counter()
    import catlog.cli  # noqa: F401
    from catlog import corpus
    env = corpus.fresh_env()
    return env, process_time() - cpu, perf_counter() - wall


def one_round(workload: str, seed: int, traced: bool) -> dict:
    if traced:
        tracer = spans.Tracer()
        tracer.install()
        out = _round(workload, seed, tracer, None)
        tracer.restore()
    else:
        with probe.SpeedProbe() as speed:
            out = _round(workload, seed, spans.NoTracer(), speed)
    return out


def _round(workload: str, seed: int, tracer, speed) -> dict:
    """Set up, run and check one round; `speed` is None in a traced round."""
    spent = speed.spent if speed else lambda: 0.0
    slices = spent()
    env, setup_cpu_s, setup_wall_s = setup()
    setup_cpu_s -= spent() - slices
    import workloads
    expected = answers.load_expected()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        wl = workloads.WORKLOADS[workload](seed, env, workdir)
        cpu, wall, slices = process_time(), perf_counter(), spent()
        raw = wl.run(tracer)
        cpu_s = process_time() - cpu - (spent() - slices)
        wall_s = perf_counter() - wall
        ops = wl.check(raw, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "workload": workload,
        "seed": seed,
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if speed:
        scale = speed.scale()
        out.update(setup_s=setup_cpu_s * scale, scaled_cpu_s=cpu_s * scale,
                   slice_us=1e6 * probe.REFERENCE_SLICE_S / scale)
    else:
        out["trace"] = tracer.summary()
        checks = sorted(tracer.durations("laws.check"))
        if checks:
            out["check_us"] = {"p50": 1e6 * _quantile(checks, 0.50),
                               "p99": 1e6 * _quantile(checks, 0.99),
                               "count": len(checks)}
        if workload == "analysis":
            out["rigidity_verified_ratio"] = wl.verified / wl.endomorphisms
    return out


def _quantile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = {"setup_cpu_s": setup()[1]} if args.setup_only else one_round(
        args.workload, args.seed, args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
