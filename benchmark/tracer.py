"""Per-layer tracing of one `dsgd-lab` run, installed from outside the program.

    python3 benchmark/tracer.py TRACE_JSON CONFIG [dsgd-lab options]

runs the CLI in this process with the layer functions wrapped, then writes the
per-layer metrics, the sites it could not trace and the coarse spans to
TRACE_JSON. Pool workers are not traced, so run it with --jobs 1.

Each function is patched under the name its caller looks it up by (for
example `engine.dsgd_step`, which `engine._run_pair` calls). Every wrapped
call keeps a child-time slot on one stack, so a layer's self time excludes
the wrapped calls made inside it. Per-step sites only accumulate call counts
and time; coarse sites also record a span (record, start, end, parent).

A site that no longer exists, or whose counter no longer fits the call, makes
the metrics built on it missing (null) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _gap_models(args, kwargs, result) -> tuple:
    traces = _arg(args, kwargs, 0, "traces")
    return (len(traces) * len(traces[0].iterations),)


def _control_counts(args, kwargs, result) -> tuple:
    rounds = int(result[1])
    return (rounds, int(rounds >= _arg(args, kwargs, 3, "max_rounds")))


def _rows(index: int, name: str):
    return lambda args, kwargs, result: (_arg(args, kwargs, index, name).shape[0],)


def _draw_rows(args, kwargs, result) -> tuple:
    return (int(_arg(args, kwargs, 1, "count")),)


def _file_bytes(index: int, name: str):
    return lambda args, kwargs, result: (Path(_arg(args, kwargs, index, name)).stat().st_size,)


def _manifest_bytes(args, kwargs, result) -> tuple:
    return ((Path(_arg(args, kwargs, 1, "output_dir")) / "manifest.json").stat().st_size,)


# (module, attribute, record, counter, span?)
SITES = [
    ("dsgd_lab.cli", "parse_config", "parse", None, True),
    ("dsgd_lab.cli", "replicated_generalization_gap", "estimator", None, True),
    ("dsgd_lab.cli", "consensus_control_sweep", "estimator", None, True),
    ("dsgd_lab.cli", "topology_comparison", "estimator", None, True),
    ("dsgd_lab.analysis", "estimate_stability", "estimator", None, True),
    ("dsgd_lab.cli", "build_gossip_matrix", "build", None, True),
    ("dsgd_lab.analysis", "build_gossip_matrix", "build", None, True),
    ("dsgd_lab.analysis", "eigenvalues_symmetric", "spectrum", None, True),
    ("dsgd_lab.analysis", "run_coupled", "run", None, True),
    ("dsgd_lab.analysis", "run_dsgd", "run", None, True),
    ("dsgd_lab.analysis", "generalization_gap", "gap", _gap_models, True),
    ("dsgd_lab.cli", "emit_csv", "emit", _file_bytes(2, "path"), True),
    ("dsgd_lab.cli", "emit_json_summary", "emit", _file_bytes(1, "path"), True),
    ("dsgd_lab.cli", "RunManifest.write", "emit", _manifest_bytes, True),
    ("dsgd_lab.engine", "dsgd_step", "step", None, False),
    ("dsgd_lab.engine", "loss_gradients", "grad", None, False),
    ("dsgd_lab.engine", "worker_risks", "worker_risk", None, False),
    ("dsgd_lab.engine", "consensus_control_step", "control", _control_counts, False),
    ("dsgd_lab.analysis", "dataset_risk", "dataset_risk", _rows(2, "xs"), False),
    ("dsgd_lab.analysis", "draw_dataset_arrays", "data_draw", _draw_rows, False),
    ("dsgd_lab.engine", "draw_dataset_arrays", "data_draw", _draw_rows, False),
]

# metric -> (record, field, unit); field is "self_s", "calls" or a counter index.
METRICS = {
    "topology.spectrum_s": ("spectrum", "self_s", "s"),
    "topology.spectrum_calls": ("spectrum", "calls", "count"),
    "topology.build_s": ("build", "self_s", "s"),
    "engine.step_self_s": ("step", "self_s", "s"),
    "engine.step_calls": ("step", "calls", "count"),
    "models.grad_s": ("grad", "self_s", "s"),
    "models.grad_calls": ("grad", "calls", "count"),
    "engine.run_self_s": ("run", "self_s", "s"),
    "engine.runs": ("run", "calls", "count"),
    "models.worker_risk_s": ("worker_risk", "self_s", "s"),
    "models.worker_risk_calls": ("worker_risk", "calls", "count"),
    "engine.control_s": ("control", "self_s", "s"),
    "engine.control_rounds": ("control", 0, "count"),
    "engine.control_cap_hits": ("control", 1, "count"),
    "analysis.gap_self_s": ("gap", "self_s", "s"),
    "analysis.gap_models": ("gap", 0, "count"),
    "models.dataset_risk_s": ("dataset_risk", "self_s", "s"),
    "models.dataset_risk_rows": ("dataset_risk", 0, "count"),
    "models.data_draw_s": ("data_draw", "self_s", "s"),
    "models.data_draw_rows": ("data_draw", 0, "count"),
    "analysis.estimator_self_s": ("estimator", "self_s", "s"),
    "cli.parse_s": ("parse", "self_s", "s"),
    "cli.emit_s": ("emit", "self_s", "s"),
    "cli.emit_bytes": ("emit", 0, "B"),
}


@dataclass
class Record:
    calls: int = 0
    self_s: float = 0.0
    # False once a site of this record could not be wrapped.
    complete: bool = True
    # None once a counter failed: the counts are then unknown, not zero.
    counts: list | None = field(default_factory=list)

    def add(self, values: tuple) -> None:
        if not self.counts:
            self.counts = [0] * len(values)
        for i, value in enumerate(values):
            self.counts[i] += value


class Tracer:
    def __init__(self, sites=SITES):
        self.sites = sites
        self.records: dict[str, Record] = {}
        self.spans: list = []
        self.missing: dict[str, str] = {}
        self._stack = [0.0]
        self._open_spans: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        for module_name, attribute, record, counter, span in self.sites:
            stats = self.records.setdefault(record, Record())
            *parents, name = attribute.split(".")
            try:
                owner = importlib.import_module(module_name)
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, name)
            except (ImportError, AttributeError) as exc:
                stats.complete = False
                self.missing[record] = f"{module_name}.{attribute}: {exc}"
                continue
            self._patched.append((owner, name, original))
            setattr(owner, name, self._wrap(original, record, stats, counter, span))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, fn, record: str, stats: Record, counter, span: bool):
        stack = self._stack
        open_spans = self._open_spans
        spans = self.spans if span else None
        missing = self.missing
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spans is not None:
                index = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(index)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                stack[-1] += end - start
                stats.calls += 1
                stats.self_s += end - start - child
                if spans is not None:
                    open_spans.pop()
                    spans[index] = (record, start, end, parent)
            if counter is not None and stats.counts is not None:
                try:
                    stats.add(counter(args, kwargs, result))
                except Exception as exc:  # a refactor must not stop the run
                    stats.counts = None
                    missing.setdefault(record, f"{fn.__qualname__} counter: {exc!r}")
            return result

        return wrapper

    def value(self, record: str, field_name):
        stats = self.records[record]
        if not stats.complete:
            return None
        if field_name == "self_s":
            return stats.self_s
        if field_name == "calls":
            return stats.calls
        if stats.counts is None:
            return None
        return stats.counts[field_name] if field_name < len(stats.counts) else 0

    def report(self) -> dict:
        return {
            "metrics": {
                name: self.value(record, field_name)
                for name, (record, field_name, _) in METRICS.items()
            },
            "missing": self.missing,
            "spans": self.spans,
        }


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from dsgd_lab import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        Path(trace_path).write_text(json.dumps(tracer.report()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
