"""openmult benchmark: one workload per run, every timed op re-verified.

Usage (from the repository root):

    python3 perfbench/run.py --workload interval-fine --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced pass (plus an untraced pass of the same length, for the tracing
overhead).  The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is a JSON object
`{"perfbench": {...}}` with the environment, the tail percentile, the failure
ratio, the output digest and per-workload notes.  Exit code 0 means every
op re-verified; 1 means some op failed; 2 means the program was not found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
DEADLINE_S = 150.0   # a run must exit within 180 s; stop timing well before


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(name, seed, work_dir):
    """Median over fresh interpreters of import + one small warm-up op.

    Returns (median at the reference speed, raw samples).  Each sample is
    scaled by the spawn kernel, timed right before it.
    """
    import speed

    probe = speed.SpeedProbe("spawn")
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe.sample()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), name, str(seed), work_dir],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(probe.scale(samples, probe.samples)), samples


class Pass:
    """Latencies, failures and output digest of one timed loop."""

    def __init__(self):
        self.latencies = []
        self.op_wall = {}
        self.failed = 0
        self.errors = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.speed = []   # reference-kernel times, one after each op

    def scaled(self, probe):
        """Op latencies at the reference speed (see speed.py)."""
        return probe.scale(self.latencies, self.speed)

    @property
    def attempted(self):
        return len(self.latencies)

    def ops_per_s(self, latencies=None):
        busy = sum(self.latencies if latencies is None else latencies)
        return (self.attempted - self.failed) / busy if busy > 0 else 0.0


def timed_pass(wl, seconds, first_op, deadline, probe, rec=None):
    """Run ops until their summed latency reaches `seconds`.

    Only the op call is timed; re-verification, digesting and one sample of
    the speed reference kernel run between ops, off the clock.  Ops cycle
    through the workload's inputs starting at index 0, so the digest over the
    first ops is seed-determined.
    """
    out = Pass()
    busy = 0.0
    i = first_op
    while busy < seconds and time.perf_counter() < deadline:
        if rec is not None:
            rec.begin_op(i)
        t0 = time.perf_counter()
        try:
            result, exc = wl.run(i), None
        except Exception as e:  # noqa: BLE001 - a refused or crashed op is a failed op
            result, exc = None, e
        dt = time.perf_counter() - t0
        busy += dt
        out.latencies.append(dt)
        out.op_wall[i] = dt
        if exc is not None:
            err = f"{type(exc).__name__}: {exc}"
        else:
            err = wl.check(i, result)
        if err:
            out.failed += 1
            if len(out.errors) < 5:
                out.errors.append(f"op {i}: {err}")
        else:
            wl.note(result)
            if i - first_op < (wl.digest_ops or wl.cycle):
                out.digest.update(wl.digest_bytes(i, result))
                out.digest_ops += 1
        del result
        out.speed.append(probe.sample())
        i += 1
    return out


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 ops beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def peak_rss_mib(wl):
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed):
    import numpy as np
    import workloads

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem_kib = None
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            mem_kib = int(line.split()[1])
    commit = None
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        commit = _read(os.path.join(ROOT, ".git", head[5:])).strip() or None
    elif head:
        commit = head
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_bytes": workloads.cache_bytes(2),
        "l3_bytes": workloads.cache_bytes(3),
        "mem_total_mib": mem_kib / 1024.0 if mem_kib else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "closed_loop": "one caller, single process, numpy single-threaded",
    }


def end_to_end(p, latencies, setup_s, wl):
    """The end-to-end metrics of pass `p`, from the given op latencies."""
    value, _pct = tail(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (p.ops_per_s(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(wl), "MiB"),
    }


def per_layer(untraced, traced, rec, probe):
    """Per-layer metrics, as measured (not scaled to the reference speed)."""
    import layers
    import spans

    self_ms, calls, counts = spans.per_op_totals(rec, traced.op_wall)
    metrics = layers.layer_values(self_ms, calls, counts)
    # the two passes ran at different moments, so compare them at the
    # reference speed
    base = untraced.ops_per_s(untraced.scaled(probe))
    overhead = traced.ops_per_s(traced.scaled(probe)) / base if base > 0 else 0.0
    metrics["trace.coverage"] = (spans.coverage(rec.spans, traced.op_wall), "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    op_ms = statistics.fmean(traced.latencies) * 1e3
    metrics["trace.op_ms"] = (op_ms, "ms")
    shares = {
        name: round(value / op_ms, 4)
        for name, (value, unit) in metrics.items()
        if unit == "ms" and name != "trace.op_ms" and value > 0
    }
    return metrics, shares


def main(argv=None):
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, here and in every child
    if not os.path.isfile(os.path.join(SRC, "openmult", "__init__.py")):
        print(f"perfbench: openmult sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        return run(args, workloads.WORKLOADS[args.workload], work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass


def run(args, cls, work_dir, deadline):
    import speed

    setup_s, setup_samples = measure_setup(args.workload, args.seed, work_dir)
    wl = cls(ROOT, args.seed, work_dir)
    wl.build()
    try:
        wl.run(0)  # untimed warm-up on the first real input: first touch of pages and caches
    except Exception:  # noqa: BLE001 - the timed loop meets the same input and counts it
        pass
    probe = speed.SpeedProbe(wl.speed_kernel)

    info = {
        "workload": wl.name,
        "env": environment(args.seed),
        "setup_samples_s": setup_samples,
        "speed_kernel": wl.speed_kernel,
    }
    if args.trace:
        import layers
        import spans

        half = args.seconds / 2.0
        untraced = timed_pass(wl, half, 0, deadline, probe)
        rec = spans.Recorder()
        if wl.in_process:
            installed = spans.Installation(rec, layers.TARGETS)
        else:
            wl.tracer = rec
        try:
            traced = timed_pass(wl, half, untraced.attempted, deadline, probe, rec)
        finally:
            if wl.in_process:
                installed.remove()
            else:
                wl.tracer = None
        metrics, shares = per_layer(untraced, traced, rec, probe)
        passes = (untraced, traced)
        info["absent_spans"] = sorted(set(rec.absent))
        info["self_time_shares"] = shares
        info["traced_ops"] = traced.attempted
    else:
        p = timed_pass(wl, args.seconds, 0, deadline, probe)
        metrics = end_to_end(p, p.scaled(probe), setup_s, wl)
        raw = end_to_end(p, p.latencies, statistics.median(setup_samples), wl)
        passes = (p,)
        _value, pct = tail(p.latencies)
        info["speed_factor"] = probe.factor(p.speed)
        info["raw_metrics"] = {k: v for k, (v, _u) in raw.items()}
        info["op_tail_percentile"] = pct
        info["op_samples"] = p.attempted

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info["op_fail_ratio"] = failed / attempted if attempted else None
    info["op_fail_base"] = attempted
    info["errors"] = [e for p in passes for e in p.errors][:5]
    info["output_digest_sha256"] = passes[0].digest.hexdigest()
    info["output_digest_ops"] = passes[0].digest_ops
    info.update(wl.info())
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps(result))
    if failed:
        print(f"perfbench: {failed}/{attempted} ops failed; first: {info['errors']}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
