"""obsrep benchmark: four seeded CLI workloads, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload the harness writes the seeded input documents, then
starts one worker process that runs the op list as a closed loop with one
client, a fixed number of passes, and times fresh interpreters importing
``obsrep.cli`` (set-up) between the passes.  Times are scaled to a
reference machine speed by the calibration rounds timed next to them.  It
checks every op's output, prints each metric with its unit, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced pass.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, check_outputs, make_ops  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 28
SETUP_PROBES = 20
DEADLINE_S = 170

# Seconds of one calibration round at the reference speed.  Op and set-up
# times are the measured times scaled by this over the rounds timed next to
# them: seconds on a machine that runs the workload's round in 4 ms.
REFERENCE_CALIBRATION_S = 0.004

# The calibration kind (``worker.CALIBRATIONS``) that matches what each
# workload's ops spend their time on: the bounds scan is big-integer powers.
CALIBRATION = {"search": "rational", "drawings": "rational", "codec": "rational", "bounds": "bigint"}

# A run makes seconds // PASS_SECONDS passes, at least two: at the default
# 28 s, three for drawings, whose tail op is the noisiest reading, and two
# for the others.  The count is fixed by these constants, not by a clock,
# so a faster program is measured with the same number of samples as a
# slower one.
PASS_SECONDS = {"search": 11, "drawings": 9, "codec": 14, "bounds": 14}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metric -> (unit, where its value comes from in the traced pass).
# "self" is the self time of the named spans, "calls" a span name's count,
# "count" a counter kept by the wrappers in spans.py.
PER_LAYER = {
    "arrangement.incidence.self_s": ("s", "self", "arrangement.incidence"),
    "arrangement.incidence.calls": ("count", "calls", "arrangement.incidence"),
    "arrangement.locate.calls": ("count", "count", "arrangement.locate.calls"),
    "arrangement.nonedges": ("count", "count", "arrangement.nonedges"),
    "cover.solve.self_s": ("s", "self", "cover.solve"),
    "cover.solve.calls": ("count", "calls", "cover.solve"),
    "cover.elements": ("count", "count", "cover.elements"),
    "cover.candidates": ("count", "count", "cover.candidates"),
    "cover.chosen": ("count", "count", "cover.chosen"),
    "arrangement.representative.self_s": ("s", "self", "arrangement.representative"),
    "arrangement.representative.calls": ("count", "calls", "arrangement.representative"),
    "geom.closed_segments_intersect.calls": ("count", "count", "geom.closed_segments_intersect.calls"),
    "arrangement.build.self_s": ("s", "self", "arrangement.build"),
    "arrangement.build.calls": ("count", "calls", "arrangement.build"),
    "arrangement.nodes": ("count", "count", "arrangement.nodes"),
    "arrangement.pieces": ("count", "count", "arrangement.pieces"),
    "arrangement.faces": ("count", "count", "arrangement.faces"),
    "search.placements": ("count", "count", "search.placements"),
    "search.early_exits": ("count", "count", "search.early_exits"),
    "search.replay.calls": ("count", "calls", "search.replay"),
    "search.self_s": ("s", "self", ("search", "search.replay")),
    "visibility.details.self_s": ("s", "self", "visibility.details"),
    "visibility.details.calls": ("count", "calls", "visibility.details"),
    "visibility.pairs": ("count", "count", "visibility.pairs"),
    "scene.validate.self_s": ("s", "self", "scene.validate"),
    "scene.validate.calls": ("count", "calls", "scene.validate"),
    "geom.segment_intersects_polygon.calls": ("count", "count", "geom.segment_intersects_polygon.calls"),
    "geom.point_in_polygon.calls": ("count", "count", "geom.point_in_polygon.calls"),
    "tangent.encode.self_s": ("s", "self", "tangent.encode"),
    "tangent.encode.calls": ("count", "calls", "tangent.encode"),
    "tangent.pair_pattern.calls": ("count", "count", "tangent.pair_pattern.calls"),
    "tangent.derive.self_s": ("s", "self", "tangent.derive"),
    "sampling.scenes": ("count", "count", "sampling.scenes"),
    "sampling.self_s": ("s", "self", "sampling"),
    "geom.orient_xy.calls": ("count", "count", "geom.orient_xy.calls"),
    "bounds.threshold.self_s": ("s", "self", "bounds.threshold"),
    "bounds.threshold.calls": ("count", "calls", "bounds.threshold"),
    "bounds.scan_steps": ("count", "count", "bounds.scan_steps"),
    "cli.self_s": ("s", "self", "cli"),
    "cli.ops": ("count", "calls", "cli"),
    "cli.stdout_bytes": ("bytes", "stdout_bytes", None),
    "sceneio.load.self_s": ("s", "self", "sceneio.load"),
    "sceneio.load.calls": ("count", "calls", "sceneio.load"),
    "trace.overhead_s": ("s", "overhead", None),
}


class BenchError(Exception):
    """The benchmark could not produce a result (not an op failure)."""


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stop(proc):
    # The worker leads its own process group, which holds its set-up probes.
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_worker(plan: dict, workdir: Path, timeout: float) -> dict:
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(plan_path)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the worker did not finish within {timeout:.0f} s") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"the worker failed: {err.strip()[-400:]}")
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


def tail_latency(latencies: list):
    """(value, percentile): the highest percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def failures(ops, result, reference) -> list:
    """(pass index, op index, reason) for every failed op execution."""
    first = result["passes"][0]["ops"]
    codes = [r["code"] for r in first]
    reasons = check_outputs(ops, list(zip(codes, result["stdout"])))
    if reference is not None:
        for i, r in enumerate(first):
            if reasons[i] is None and r["sha256"] != reference[i]:
                reasons[i] = "stdout differs from the reference output of the default seed"
    out = [(0, i, why) for i, why in enumerate(reasons) if why]
    for p, run in enumerate(result["passes"][1:], start=1):
        for i, r in enumerate(run["ops"]):
            if r["code"] != 0:
                out.append((p, i, f"exit code {r['code']}: {r['stderr']}"))
            elif r["sha256"] != first[i]["sha256"]:
                out.append((p, i, "stdout differs from the first pass"))
    return out


def stdout_digest(result) -> str:
    h = hashlib.sha256()
    for text in result["stdout"]:
        h.update(text.encode())
    return h.hexdigest()


def _scaled(seconds, cal_before, cal_after):
    """``seconds`` at the reference speed, from the calibration rounds timed around it."""
    return seconds * 2 * REFERENCE_CALIBRATION_S / (cal_before + cal_after)


def _scaled_pass(p):
    """(wall, cpu, per-op latencies) of one pass, each op scaled by the rounds on either side of it."""
    cal, cal_cpu, ops = p["cal"], p["cal_cpu"], p["ops"]
    latencies = [_scaled(r["latency"], cal[i], cal[i + 1]) for i, r in enumerate(ops)]
    cpu = sum(_scaled(r["cpu"], cal_cpu[i], cal_cpu[i + 1]) for i, r in enumerate(ops))
    return sum(latencies), cpu, latencies


def end_to_end(ops, result):
    # The shared machine's speed drifts by half or more over seconds to
    # minutes, for CPU time as much as for wall time.  The calibration
    # rounds on either side of an op measure that speed where the op ran,
    # and each op is scaled to the reference speed; the unscaled times go to
    # the metadata.  Set-up probes are scaled the same way by the rounds
    # around them.  Times are then best-of-repeats, because a pass, an op or
    # a probe is slowed by what the calibration misses, never sped up.
    passes = [_scaled_pass(p) for p in result["passes"]]
    per_op = [min(p[2][i] for p in passes) for i in range(len(ops))]
    tail, pct = tail_latency(per_op)
    cal = [c for p in result["passes"] for c in p["cal"]]
    metrics = {
        "wall_s": min(p[0] for p in passes),
        "cpu_s": min(p[1] for p in passes),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * tail,
        "setup_s": min(_scaled(t, before, after) for t, before, after in result["setup"]),
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    raw_per_op = [min(p["ops"][i]["latency"] for p in result["passes"]) for i in range(len(ops))]
    extra = {
        "op_tail_percentile": pct,
        "op_tail_ops": len(per_op),
        "calibration_ms": 1000 * statistics.median(cal),
        "unscaled": {
            "wall_s": min(p["wall"] for p in result["passes"]),
            "cpu_s": min(p["cpu"] for p in result["passes"]),
            "op_p50_ms": 1000 * statistics.median(raw_per_op),
            "op_tail_ms": 1000 * tail_latency(raw_per_op)[0],
            "setup_s": min(t for t, _, _ in result["setup"]),
        },
    }
    return metrics, extra


def per_layer(result):
    *untraced, traced = result["passes"]
    metrics = {}
    for name, (_, source, key) in PER_LAYER.items():
        if source == "self":
            spans = key if isinstance(key, tuple) else (key,)
            metrics[name] = sum(result["self_s"].get(span, 0.0) for span in spans)
        elif source == "calls":
            metrics[name] = result["calls"].get(key, 0)
        elif source == "count":
            metrics[name] = result["counts"].get(key, 0)
        elif source == "stdout_bytes":
            metrics[name] = sum(len(text.encode()) for text in result["stdout"])
        else:
            metrics[name] = _scaled_pass(traced)[0] - min(_scaled_pass(p)[0] for p in untraced)
    shares = {
        name: t / traced["wall"] for name, t in sorted(result["self_s"].items(), key=lambda kv: -kv[1])
    }
    return metrics, shares


def pass_count(workload, seconds) -> int:
    return max(2, int(seconds // PASS_SECONDS[workload]))


def run_workload(workload, seed, seconds, trace, size=None, write_reference=False):
    """Run one workload; returns the result object plus the run's metadata."""
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
    outdir = HERE / "out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        ops = make_ops(workload, seed, work, size)
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        plan = {
            "ops": [op.argv for op in ops],
            "passes": 2 if trace else pass_count(workload, seconds),
            "calibration": CALIBRATION[workload],
            "probes": 0 if trace else SETUP_PROBES,
            "trace": bool(trace),
            "result": str(work / "result.json"),
            "spans": str(outdir / f"spans-{tag}.jsonl"),
        }
        result = run_worker(plan, work, deadline - time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = stdout_digest(result)
    hashes = [r["sha256"] for r in result["passes"][0]["ops"]]
    reference = None
    if write_reference:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs[workload] = {"seed": seed, "ops": hashes}
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    elif seed == DEFAULT_SEED and size is None and REFERENCE.exists():
        ref = json.loads(REFERENCE.read_text()).get(workload)
        if ref is not None and ref["seed"] == seed:
            reference = ref["ops"]

    failed = failures(ops, result, reference)
    attempted = len(ops) * len(result["passes"])
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops": len(ops),
        "passes": len(result["passes"]),
        "stdout_sha256": digest,
        "reference_checked": reference is not None,
        "ops_failed_frac": len(failed) / attempted,
        "failures": [{"pass": p, "op": i, "argv": ops[i].argv, "reason": why} for p, i, why in failed[:20]],
    }
    if trace:
        metrics, shares = per_layer(result)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        meta["layer_shares"] = shares
    else:
        metrics, extra = end_to_end(ops, result)
        units = END_TO_END
        meta.update(extra)
        meta["setup_samples_s"] = [t for t, _, _ in result["setup"]]
    out = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (outdir / f"result-{tag}.json").write_text(json.dumps({"meta": meta, **out}, indent=1) + "\n")
    return out, meta


def report(out, meta) -> None:
    w = meta["workload"]
    print(f"workload {w} seed {meta['seed']} ops {meta['ops']} passes {meta['passes']} "
          f"python {meta['python']} nproc {meta['nproc']} stdout_sha256 {meta['stdout_sha256'][:16]}")
    for name, m in out["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':40s} {meta['ops_failed_frac']:.6g} 1")
    if "op_tail_percentile" in meta:
        print(f"  op_tail_ms is p{meta['op_tail_percentile']:.1f} of {meta['op_tail_ops']} ops")
        print(f"  times above are at the reference speed; calibration round "
              f"{meta['calibration_ms']:.3f} ms here, {1000 * REFERENCE_CALIBRATION_S:g} ms at reference")
        for name, value in meta["unscaled"].items():
            print(f"  unscaled {name:31s} {value:.6g} {END_TO_END[name]}")
    for name, share in meta.get("layer_shares", {}).items():
        print(f"  share {name:34s} {100 * share:5.1f}%")
    for f in meta["failures"]:
        print(f"FAILED pass {f['pass']} op {f['op']} {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the stdout hashes of this seed as the reference")
    args = p.parse_args(argv)
    # Exit through the finally blocks on SIGTERM so no worker is left behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "obsrep" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src' / 'obsrep'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            out, meta = run_workload(name, args.seed, args.seconds, args.trace,
                                     write_reference=args.write_reference)
        except BenchError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 2
        report(out, meta)
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in out["metrics"].items()})
        if len(names) > 1:
            print(json.dumps(out))
    print(json.dumps(out if len(names) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
