"""Hyper-M end-to-end benchmark: one workload, one seed, one process.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0

The program is imported from ``./src`` of the current directory; there is
nothing to build. With ``--trace 0`` the last line of standard output is
a JSON object carrying every gated end-to-end metric; with ``--trace 1``
it carries the per-layer metrics of a separate traced run instead. The
line before it is the full report: the workload's own metrics under the
names it defines (``range_p99_ms``, ``serve_qps``, ...), their raw
unnormalised values, sample counts, correctness gates and the
run configuration. Reports and span files are written under
``.bench_build/perfbench/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median

#: Gated end-to-end metrics; every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "hops_per_op": "hops",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program(root: Path) -> None:
    """Make ``repro`` importable from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {src / 'repro'}; run from a checkout root")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"repro imported from {repro.__file__}, not from {src}")


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_config(root: Path, workload: str, seed: int, params: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "params": params,
        "engine": "serial",
        "overlay": "can",
        "faults": "none",
        "adaptation": "off",
        "client": "closed loop, 1 client, no threads",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def per_layer(session, tracing: dict, factor: float) -> dict:
    """Fold the traced run's spans and counts into the per-layer metrics.

    Self times are in reference seconds per operation of the workload
    (one ``publish_all``, one query, or one serve batch with its share of
    deltas); counts are per operation too. Join cost is per join, from the
    traced set-up.
    """
    tracer = session.tracer
    self_s, calls, counts = tracer.totals("run")
    setup_self, setup_calls, __ = tracer.totals("setup")
    ops = max(session.ops_traced, 1)

    def per_op(table, key):
        return table.get(key, 0.0) / ops

    def seconds(*layers):
        return factor * sum(self_s.get(layer, 0.0) for layer in layers) / ops

    cache = session.context.get("traced_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "overlay.join.self_s": factor * _ratio(
            setup_self.get("overlay.join", 0.0), setup_calls.get("overlay.join", 0)
        ),
        "overlay.insert.self_s": seconds("overlay.insert"),
        "overlay.route.calls": per_op(calls, "overlay.route"),
        "overlay.route.self_s": seconds("overlay.route"),
        "overlay.route.hops": per_op(counts, "overlay.route.hops"),
        "overlay.replicate.calls": per_op(calls, "overlay.replicate"),
        "overlay.replicate.self_s": seconds("overlay.replicate"),
        "overlay.replicate.hops": per_op(counts, "overlay.replicate.hops"),
        "overlay.flood.self_s": seconds("overlay.flood"),
        "overlay.flood.hops": per_op(counts, "overlay.flood.hops"),
        "overlay.flood.zones": per_op(counts, "overlay.flood.zones"),
        "overlay.maintain.self_s": seconds("overlay.maintain"),
        "net.transmit.calls": per_op(counts, "net.transmit.frames"),
        "net.transmit.self_s": seconds("net.transmit"),
        "net.transmit.bytes": per_op(counts, "net.transmit.bytes"),
        "index.mask.calls": per_op(calls, "index.mask"),
        "index.mask.self_s": seconds("index.mask"),
        "index.mask.rows_scanned": per_op(counts, "index.mask.rows_scanned"),
        "index.mask.hit_ratio": _ratio(
            counts.get("index.mask.rows_hit", 0),
            counts.get("index.mask.rows_scanned", 0),
        ),
        "index.gather.self_s": seconds("index.gather"),
        "index.write.self_s": seconds("index.write"),
        "wavelets.dwt.calls": per_op(calls, "wavelets.dwt"),
        "wavelets.dwt.self_s": seconds("wavelets.dwt"),
        "clustering.kmeans.calls": per_op(calls, "clustering.kmeans"),
        "clustering.kmeans.self_s": seconds("clustering.kmeans"),
        "clustering.kmeans.iterations": per_op(
            counts, "clustering.kmeans.iterations"
        ),
        "clustering.summary.self_s": seconds("clustering.summary"),
        "clustering.delta.self_s": seconds("clustering.delta"),
        "score.level.calls": per_op(calls, "score.level"),
        "score.level.self_s": seconds("score.level"),
        "score.level.candidates": per_op(counts, "score.level.candidates"),
        "score.level.survival_ratio": _ratio(
            counts.get("score.level.surviving", 0),
            counts.get("score.level.candidates", 0),
        ),
        "score.aggregate.self_s": seconds("score.aggregate"),
        "score.rank.self_s": seconds("score.rank"),
        "geometry.estimate.self_s": seconds("geometry.estimate"),
        "retrieve.contact.self_s": seconds("retrieve.contact"),
        "retrieve.search.calls": per_op(calls, "retrieve.search"),
        "retrieve.search.self_s": seconds("retrieve.search"),
        "retrieve.useful_ratio": _ratio(
            counts.get("retrieve.search.useful", 0), calls.get("retrieve.search", 0)
        ),
        "serve.batch.self_s": seconds("serve.batch"),
        "serve.candidates.self_s": seconds("serve.candidates"),
        "serve.cache.hit_ratio": _ratio(cache.get("hits", 0), lookups),
        "serve.cache.stale": cache.get("stale", 0) / ops,
        "core.glue.self_s": seconds("core.glue"),
        "trace.attributed_share": _ratio(
            sum(self_s.values()), tracing["traced_wall_s"]
        ),
        "trace.overhead": (
            tracing["traced_per_op_s"] / tracing["untraced_per_op_s"] - 1.0
        ),
    }


def _declared(root: Path, section: str) -> dict | None:
    """``{name: unit}`` declared in ``BENCHMARK.json``, when present."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_program(root)
    import workloads  # beside this file, on the path as the script's directory

    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        _fail(f"unknown workload {args.workload!r}; one of {known}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    session = workloads.Session(args.seed, args.seconds, bool(args.trace))
    out = workloads.WORKLOADS[args.workload](session)
    peak_rss = _peak_rss_mb()

    cal = session.cal
    workload_metrics, gated = out["summarise"](cal.normalised)
    raw_metrics, raw_gated = out["summarise"](cal.raw)
    gated["setup_s"] = median(cal.normalised("setup"))
    raw_gated["setup_s"] = median(cal.raw("setup"))
    gated["peak_rss_mb"] = raw_gated["peak_rss_mb"] = peak_rss

    if args.trace:
        section = "per_layer"
        values = per_layer(session, out["tracing"], workloads.kernel_factor(session))
        units = _declared(root, section) or {}
    else:
        section = "end_to_end"
        values = {name: gated[name] for name in END_TO_END}
        units = END_TO_END
    declared = _declared(root, section)
    if declared is not None and set(declared) != set(values):
        _fail(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(declared)}")
    metrics = {
        name: {"value": value, "unit": units.get(name, "")}
        for name, value in values.items()
    }
    non_finite = [name for name, value in values.items() if not math.isfinite(value)]
    correct = (
        session.failed == 0 and all(session.gates.values()) and not non_finite
    )

    report = {
        "config": run_config(
            root, args.workload, args.seed, workloads.PARAMS[args.workload]
        ),
        "trace": args.trace,
        "workload_metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in workload_metrics.items()
        },
        "gated_metrics": gated,
        "raw": {
            "workload_metrics": {
                name: value for name, (value, __) in raw_metrics.items()
            },
            "gated_metrics": raw_gated,
        },
        "setup_s_samples": cal.normalised("setup"),
        "samples": out["samples"],
        "calibration": {
            "reference_kernel_s": workloads.REFERENCE_KERNEL_S,
            "kernel_mean_s": sum(cal.kernel_s) / len(cal.kernel_s),
            "kernel_samples": len(cal.kernel_s),
        },
        "gates": session.gates,
        "errors": session.errors[:20],
        "context": session.context,
        "non_finite": non_finite,
    }
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(report, ops=cal.ops, kernel_s=cal.kernel_s)
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, default=str))
    if session.tracer is not None:
        session.tracer.write(out_dir / f"spans-{stem}.jsonl.gz")
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
