"""Benchmark for the ``wellposed`` package in ``src/`` of the current directory.

    python3 perfbench/run.py --workload certify-heat --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

A run executes one workload in fresh worker processes, one after another:
at least MIN_WORKERS, and more while another still fits in ``--seconds``.
A process's memory layout and CPU placement shift its timings as a whole,
so pooling several processes steadies the result. A worker sets up, then
runs one pass of the workload's op list as a closed loop with one client
(each op starts when the previous one returned), reads its peak RSS, and
only then checks every op's output. Probe processes that only set up, run
between the workers, add samples of the set-up time.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it, ``info: {...}``, records the environment and figures that
are not metrics.

``--workload all`` runs every workload untraced and traced, and prints every
metric with its unit, the tracing overhead and whether the exact counts
repeated in every worker.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
# fewest worker processes in a run, and set-up-only processes before each
# of them: a run times at least MIN_WORKERS * (1 + PROBES) set-ups
MIN_WORKERS = 3
PROBES = 1


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_package():
    src = ROOT / "src"
    if not (src / "wellposed" / "__init__.py").is_file():
        raise SystemExit(f"error: no wellposed package under {src}")
    sys.path.insert(0, str(src))
    import wellposed

    if Path(wellposed.__file__).resolve().parent != (src / "wellposed").resolve():
        raise SystemExit(f"error: wellposed was imported from {wellposed.__file__}, not {src}")
    return wellposed


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    raw = os.environ.get("WELLPOSED_THREADS", "").strip()
    # the package's documented rule: unset or 0 means min(8, cpu count)
    threads = int(raw) if raw not in ("", "0") else min(8, os.cpu_count() or 1)
    return {
        "commit": _commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "WELLPOSED_THREADS": raw or None,
        "wellposed_threads_effective": threads,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def set_up(name: str, seed: int, work: Path):
    """Import the package and build the workload's inputs; returns the
    workload and the seconds since this process started."""
    _import_package()
    from workloads import DEFAULT_SEED, WORKLOADS

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name]()
    workload.setup(seed, work)
    if seed == DEFAULT_SEED:
        workload.load_reference()
    return workload, time.perf_counter() - T_START


def worker(name: str, seed: int, trace: bool, index: int, probe: bool) -> dict:
    """Set up, run one pass of the op list, then check every op's output.

    A probe only sets up, to add a sample of ``setup_s``. The checks run
    after the pass and after the peak RSS is read, so neither their time nor
    their memory counts as the program's.
    """
    work = WORK / f"work-{name}-{os.getpid()}"
    workload, setup_s = set_up(name, seed, work)
    if probe:
        shutil.rmtree(work, ignore_errors=True)
        return {"setup_s": setup_s}
    from tracer import Tracer

    tracer = Tracer() if trace else None
    ops = workload.ops()
    aligned = getattr(workload, "is_aligned", lambda op: None)
    latencies: list[tuple[bool | None, float]] = []
    outputs = []
    if tracer is not None:
        tracer.install()
    try:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                output, error = workload.run(op), None
            except Exception:
                output, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            latencies.append((aligned(op), elapsed))
            outputs.append((op, output, error))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {"run_s": sum(s for _, s in latencies)}
        if tracer is not None:
            record.update(tracer.summary(range(len(ops))))
            record["trace.wrapper_s"] = tracer.wrapper_s
    finally:
        if tracer is not None:
            tracer.restore()
    failed = 0
    problems: list[str] = []
    try:
        for op, output, error in outputs:
            if error is None:
                try:
                    found = workload.check(op, output)
                except Exception:
                    found = [traceback.format_exc(limit=3)]
            else:
                found = [error]
            if found:
                failed += 1
                problems.extend(f"op {op}: {p}" for p in found[:3])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops_per_pass": len(ops),
        "pass": record, "latencies": latencies,
        "attempted": len(ops), "failed": failed, "problems": problems[:10],
    }
    if tracer is not None:
        result["per_sample_exp_conv_final_calls"] = _per_sample_calls(tracer, latencies)
        result["missing_layers"] = tracer.missing
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"{name}-seed{seed}-worker{index}.trace.json")
    return result


def _per_sample_calls(tracer, latencies) -> dict:
    # exp_conv_final called by step_extended_state itself (not through
    # control_to_state) is the per-sample loop of the off-grid path
    by_kind = {"aligned": 0, "unaligned": 0}
    for name, _, _, parent, op, _ in tracer.spans:
        if (name == "signals.exp_conv_final" and parent is not None
                and tracer.spans[parent][0] == "laxphillips.step_extended_state"):
            by_kind["aligned" if latencies[op][0] else "unaligned"] += 1
    return by_kind


def _spawn(name: str, seed: int, trace: bool, index: int, probe: bool, timeout: float) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--trace", str(int(trace)),
            "--worker", str(index)] + (["--probe"] if probe else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one pass in each of at least MIN_WORKERS fresh processes, one
    after another, until the workers have measured for about ``seconds``.
    Before each of the first MIN_WORKERS workers, PROBES processes only set
    up. Pool the results."""
    # a whole run must end within 180 s, even if a worker hangs
    deadline = time.perf_counter() + 170.0
    results: list[dict] = []
    setups: list[float] = []
    walls: list[float] = []
    # start another worker only if one as long as the typical one still ends
    # inside the window, so a run overshoots it by noise, not by a worker
    while len(results) < MIN_WORKERS or sum(walls) + _median(walls) <= seconds:
        if len(results) < MIN_WORKERS:
            # the host's speed drifts over seconds, so the set-ups are
            # spread over the run rather than taken one after another
            for _ in range(PROBES):
                setups.append(_spawn(name, seed, False, len(setups), True,
                                     deadline - time.perf_counter())["setup_s"])
        t0 = time.perf_counter()
        results.append(_spawn(name, seed, trace, len(results), False,
                              deadline - time.perf_counter()))
        walls.append(time.perf_counter() - t0)
        setups.append(results[-1]["setup_s"])

    passes = [r["pass"] for r in results]
    latencies = [(kind, s) for r in results for kind, s in r["latencies"]]
    ms = sorted(1000.0 * s for _, s in latencies)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    values = {
        "setup_s": _median(setups),
        "run_s": _median([p["run_s"] for p in passes]),
        "op_ms_p50": _median(ms),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
    }
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "workers": len(results), "ops_per_pass": results[0]["ops_per_pass"],
        "ops": len(ms), "pass_s": [p["run_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "failed_frac": failed / attempted,
        "problems": [p for r in results for p in r["problems"]][:10],
    }
    if len(ms) >= 100:
        info["op_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    if latencies[0][0] is not None:
        for label, want in (("aligned_ms_p50", True), ("unaligned_ms_p50", False)):
            info[label] = _median([1000.0 * s for kind, s in latencies if kind == want])
    if trace:
        values.update(_layer_values(passes, info))
        values["trace.run_s"] = values.pop("run_s")
        info["missing_layers"] = results[0]["missing_layers"]
        if latencies[0][0] is not None:
            info["per_sample_exp_conv_final_calls"] = {
                kind: sum(r["per_sample_exp_conv_final_calls"][kind] for r in results)
                for kind in ("aligned", "unaligned")}
    return values, {"correct": failed == 0 and not info.get("count_mismatch"),
                    "attempted": attempted, "failed": failed, "info": info}


def _layer_values(passes: list[dict], info: dict) -> dict:
    """Times are medians over the workers' passes; counts are exact and
    must repeat in every worker process."""
    from tracer import COUNT_STATS

    keys = set().union(*passes) - {"run_s"}
    out = {}
    for key in keys:
        series = [p.get(key, 0) for p in passes]
        if key.rsplit(".", 1)[-1] in COUNT_STATS:
            if len(set(series)) != 1:
                info.setdefault("count_mismatch", []).append(key)
            out[key] = series[0]
        else:
            out[key] = _median(series)
    return out


def _emit(values: dict, result: dict, trace: bool) -> dict:
    from tracer import LAYERS

    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    layers = {f"{module}.{function}" for module, function, _ in LAYERS}
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        # a layer that did no work in this workload has no spans: its value is 0
        if name not in values and not (trace and name.rsplit(".", 1)[0] in layers):
            raise KeyError(f"benchmark computed no value for {name}")
        metrics[name] = {"value": values.get(name, 0), "unit": metric["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    spec = _spec()
    cmd = [sys.executable, str(Path(__file__).resolve())]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for trace in (0, 1):
            proc = subprocess.run(cmd + ["--workload", name, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name}: run failed ({proc.returncode})\n{proc.stderr[-2000:]}")
                return 1
            runs.append((json.loads(lines[-2][len("info: "):]), json.loads(lines[-1])))
        (info, base), (tinfo, traced) = runs
        print(f"== {name} (seed {seed}, {info['workers']} workers x {info['ops_per_pass']} ops)")
        for label, res in (("end-to-end", base), ("per-layer", traced)):
            print(f"  {label}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} failed_frac={res['failed'] / res['attempted']:g}")
            for key, m in res["metrics"].items():
                value = m["value"]
                shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
                print(f"    {key:48s} {shown} {m['unit']}")
        for key in ("op_ms_p90", "aligned_ms_p50", "unaligned_ms_p50"):
            if key in info:
                print(f"    {key:48s} {info[key]:>16.6g} ms (from info)")
        run_s = base["metrics"]["run_s"]["value"]
        traced_s = traced["metrics"]["trace.run_s"]["value"]
        print(f"  tracing overhead: {traced_s - run_s:+.4f} s "
              f"(traced run_s {traced_s:.4f} - untraced run_s {run_s:.4f}); "
              f"time inside the wrappers {traced['metrics']['trace.wrapper_s']['value']:.4f} s")
        shares = {k: m["value"] / traced_s for k, m in traced["metrics"].items()
                  if k.endswith(".s") and k != "trace.run_s" and m["value"] > 0}
        print("  inclusive layer time as a share of traced run_s: "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        mismatch = tinfo.get("count_mismatch", [])
        print(f"  exact counts repeat in all {tinfo['workers']} traced workers: {not mismatch}"
              + (f" (differ: {mismatch})" if mismatch else ""))
        if "per_sample_exp_conv_final_calls" in tinfo:
            print(f"  per-sample exp_conv_final calls: {tinfo['per_sample_exp_conv_final_calls']}")
        ok = ok and all(r["correct"] for _, r in runs)
    print(f"environment: {json.dumps(runs[0][0]['env'])}")
    print(f"all correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wellposed" / "__init__.py").is_file():
        print(f"error: run from a checkout of the repository; no src/wellposed in {ROOT}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if args.worker is not None:
        result = worker(args.workload, args.seed, bool(args.trace), args.worker, args.probe)
        print(json.dumps(result))
        return 0
    values, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    info["env"] = environment(args.seed)
    out = _emit(values, result, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": out}, indent=1) + "\n")
    print("info: " + json.dumps(info))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
