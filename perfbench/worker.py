"""The process that runs the ops: a fresh interpreter with the library loaded.

``worker.py --probe`` imports ``obsrep.cli``, prints ``ready`` and exits.
``worker.py PLAN`` reads a plan written by ``run.py``, runs its op list as
one closed-loop client (one ``obsrep.cli.main(argv)`` call at a time, stdout
captured) and writes the timings and outputs to the plan's result file.

Untraced, the list runs the plan's fixed number of passes.  Before each
pass and after the last one the worker times a few fresh ``--probe``
interpreters, so the set-up samples are spread over the whole run.  Traced,
the list runs twice untraced and then once under the tracer.

Before every op and every set-up probe, and after the last of each
stretch, the worker times one calibration round: fixed work that never
calls the library, of the kind named in the plan for ops and ``rational``
for probes.  Its time tracks how fast the shared machine runs that kind of
work at that moment, and ``run.py`` scales the op and probe times by it.
The worker pins itself, and so its probes, to one CPU, because the
machine's CPUs change speed independently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction


def calibrate_rational():
    """About 4 ms of interpreted work: ``Fraction`` arithmetic on point pairs and dict updates.

    It stands in for the geometry layers' mix of small rational arithmetic
    and container work.
    """
    points = [(Fraction(i, 7), Fraction(i * i % 13, 5)) for i in range(60)]
    total = Fraction(0)
    for a in points:
        for b in points[:10]:
            total += (a[0] - b[0]) * (a[1] + b[1])
    counts = {}
    for i in range(2000):
        key = (i % 97, i % 5)
        counts[key] = counts.get(key, 0) + i
    return total, sorted(counts.items())


def calibrate_bigint():
    """About 4 ms of integer powers and shifts of 20 000 to 100 000 bits, like a counting-threshold scan."""
    beaten = 0
    for m in range(200, 640, 40):
        beaten += (2 * m) ** (16 * m) < 1 << (m * (m - 1) // 2)
    return beaten


# The machine slows these two kinds of work by different shares, so each
# workload is scaled by the kind its ops spend their time on.  Neither
# calls the library, so a change to the program cannot change them.
CALIBRATIONS = {"rational": calibrate_rational, "bigint": calibrate_bigint}


def _timed_calibration(kernel):
    """(wall, cpu) seconds of one round of ``kernel``."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0


def _run_pass(main, ops, kernel):
    """Run the op list once; each op follows one calibration round, and one more ends the pass."""
    records = []
    texts = []
    cal, cal_cpu = [], []
    for argv in ops:
        w, c = _timed_calibration(kernel)
        cal.append(w)
        cal_cpu.append(c)
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception as e:  # noqa: BLE001 - an op that raises is a failed op
            code = None
            err.write(f"{type(e).__name__}: {e}")
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        text = out.getvalue()
        records.append({
            "code": code,
            "latency": latency,
            "cpu": cpu,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stderr": err.getvalue()[-500:],
        })
        texts.append(text)
    w, c = _timed_calibration(kernel)
    cal.append(w)
    cal_cpu.append(c)
    return {
        "wall": sum(r["latency"] for r in records),
        "cpu": sum(r["cpu"] for r in records),
        "ops": records,
        "cal": cal,
        "cal_cpu": cal_cpu,
    }, texts


def _probe_setup(count):
    """``count`` triples (seconds from starting a fresh interpreter to ``obsrep.cli`` imported,
    ``rational`` rounds just before and just after that probe).

    Start-up is interpreted work whatever the workload, so it is always
    scaled by the ``rational`` round.
    """
    samples = []
    before = _timed_calibration(calibrate_rational)[0] if count else None
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--probe"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"the library did not import: {err.strip()[-400:]}")
        after = _timed_calibration(calibrate_rational)[0]
        samples.append([elapsed, before, after])
        before = after
    return samples


def _pin_to_one_cpu():
    # The shared machine's CPUs speed up and slow down independently of each
    # other, so a calibration round measures only the CPU it ran on.  On one
    # CPU the ops, the probes (which inherit the mask) and the rounds timed
    # next to them all run at the same speed.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv) -> int:
    if argv == ["--probe"]:
        import obsrep.cli  # noqa: F401

        print("ready", flush=True)
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    _pin_to_one_cpu()
    from obsrep.cli import main as cli_main

    ops = plan["ops"]
    kernel = CALIBRATIONS[plan["calibration"]]
    for _ in range(3):  # warm-up, so the first timed rounds are like the rest
        for warm in CALIBRATIONS.values():
            warm()
    passes, setup, stdout = [], [], None
    # The probes are split evenly over the gaps before, between and after
    # the passes, so set-up is sampled at the same moments as the ops.
    gaps = plan["passes"] + 1
    for k in range(gaps):
        setup += _probe_setup(plan["probes"] * (k + 1) // gaps - plan["probes"] * k // gaps)
        if k < plan["passes"]:
            run, texts = _run_pass(cli_main, ops, kernel)
            passes.append(run)
            if k == 0:
                stdout = texts
    result = {"stdout": stdout, "passes": passes, "setup": setup}
    if plan["trace"]:
        from spans import Tracer, installed

        tracer = Tracer()

        def traced_main(op_argv):
            with tracer.span("cli"):
                return cli_main(op_argv)

        with installed(tracer):
            passes.append(_run_pass(traced_main, ops, kernel)[0])
        result["counts"] = tracer.counts
        result["self_s"] = tracer.self_times()
        result["calls"] = tracer.calls()
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
