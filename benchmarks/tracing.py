"""The traced pass: every workload replayed in-process, with a span per layer call.

Spans are recorded from here, around the package's public functions: for
the replay, each call site listed in CALL_SITES and METHODS is pointed at
a wrapper that opens a span, calls the original and records a count from
its arguments or result.  The originals are put back afterwards.  Spans
stay in memory and are written to one JSON file at the end; the per-layer
metrics are derived from them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Iterator

import reference as ref
import workloads
from harness import SRC, Sample, judge, run_cli

#: Module globals that the package calls across a layer boundary.
CALL_SITES = {
    "ternaryperm.cli": ("generate", "format_sequence", "load", "search", "search_parallel", "prove_impossibility"),
    "ternaryperm.catalog": ("lift", "verify", "load", "parse_sequence_text", "search", "search_randomized"),
    "ternaryperm.lifting": ("verify",),
    "ternaryperm.search": ("verify", "search"),
}
#: Methods called on package classes: (module, class, method).
METHODS = (
    ("ternaryperm.catalog", "BaseCaseStore", "get"),
    ("ternaryperm.sequences", "TernarySequence", "from_decimals"),
)
LAYERS = ("cli", "catalog", "lifting", "sequences", "search")


def _search_counts(outcome, args) -> dict:
    return {"nodes": outcome.nodes_explored, "dim": outcome.dim, "mode": outcome.mode.value}


#: Work done by a call, recorded on its span: span name -> f(result, args).
COUNTS: dict[str, Callable] = {
    "lifting.lift": lambda result, args: {"words": len(result)},
    "sequences.verify": lambda result, args: {"words": len(args[0])},
    "catalog.format_sequence": lambda result, args: {"bytes": len(result)},
    "catalog.parse_sequence_text": lambda result, args: {"bytes": len(args[0])},
    "sequences.TernarySequence.from_decimals": lambda result, args: {"words": len(result)},
    "search.search": _search_counts,
    "search.search_parallel": _search_counts,
    "search.prove_impossibility": lambda result, args: {"nodes": result.nodes_explored, "dim": result.dim},
}


class Tracer:
    """Spans with name, start, end, parent and run id, kept in a list.

    Single-threaded: the package's only concurrency is the worker
    processes of search_parallel, whose inner calls are not traced.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable) -> Callable:
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record["attrs"].update(count(result, args))
            return result

        return traced


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Point every listed call site at a traced wrapper, restoring them on exit."""
    wrappers: dict[Callable, Callable] = {}
    restore: list[tuple[object, str, object]] = []
    for module_name, names in CALL_SITES.items():
        module = importlib.import_module(module_name)
        for name in names:
            original = getattr(module, name)  # AttributeError: the call site moved
            if original not in wrappers:
                wrappers[original] = tracer.wrap(original)
            restore.append((module, name, original))
            setattr(module, name, wrappers[original])
    for module_name, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[method]
        if isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(original.__func__))
        else:
            replacement = tracer.wrap(original)
        restore.append((cls, method, original))
        setattr(cls, method, replacement)
    try:
        yield
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def replay(tracer: Tracer, main: Callable, command: workloads.Command, workload: str, out_dir: Path) -> Sample:
    """Run one command through cli.main in this process, inside a root span."""
    if command.prepare is not None:
        command.prepare()
    tracer.run_id = f"{workload}/{command.label}"
    stdout_path = out_dir / f"{command.label}.inproc.stdout"
    cpu = time.process_time()
    with open(stdout_path, "w") as out, open(out_dir / f"{command.label}.inproc.stderr", "w") as err:
        with redirect_stdout(out), redirect_stderr(err), tracer.span("cli.main", argv=list(command.args)) as root:
            code = main(list(command.args))
    return Sample(
        f"{command.label}.inproc",
        root["end"] - root["start"],
        time.process_time() - cpu,
        None,
        code,
        judge(command, code, stdout_path.read_text()),
    )


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in totals:
            totals[layer] += _dur(s) - child_time.get(s["id"], 0.0)
    return totals


#: Where each pinned node count is recorded: command label -> (span name, dim).
PINNED_TREES = {
    "count_d4": ("search.search", 4),
    "first_d5r": ("search.search", 5),
    "prove_d3": ("search.prove_impossibility", 3),
    "prove_d4": ("search.prove_impossibility", 4),
}


def _node_mismatches(spans: list[dict], label: str) -> list[str]:
    """Compare the node counts a search command's spans recorded with the pinned ones."""
    if label not in PINNED_TREES:
        return []
    name, dim = PINNED_TREES[label]
    got = [s["attrs"]["nodes"] for s in spans if s["name"] == name and s["attrs"]["dim"] == dim]
    if got != [ref.NODES[label]]:
        return [f"search.nodes.{label} is {got}, pinned {ref.NODES[label]}"]
    return []


def traced_run(seed: int, run_dir: Path, spans_path: Path) -> tuple[dict, list[Sample], dict]:
    """One CLI pass and one traced in-process replay of each workload, then probes."""
    sys.path.insert(0, str(SRC.resolve()))
    cli = importlib.import_module("ternaryperm.cli")
    sequences = importlib.import_module("ternaryperm.sequences")
    catalog = importlib.import_module("ternaryperm.catalog")

    tracer = Tracer()
    samples: list[Sample] = []
    cli_wall: dict[str, float] = {}
    cli_cpu: dict[str, float] = {}
    params: dict = {}
    for workload in workloads.WORKLOADS:
        commands, params[workload] = workloads.commands(workload, seed, run_dir)
        untraced = [run_cli(c, run_dir) for c in commands]
        samples += untraced
        cli_wall[workload] = sum(s.wall_s for s in untraced)
        cli_cpu[workload] = sum(s.cpu_s for s in untraced)
        with instrumented(tracer):
            for command in commands:
                first = len(tracer.spans)
                sample = replay(tracer, cli.main, command, workload, run_dir)
                mismatches = _node_mismatches(tracer.spans[first:], command.label)
                if mismatches:
                    sample.problem = "; ".join(filter(None, [sample.problem, *mismatches]))
                samples.append(sample)

    # Probes: single calls measured on their own, outside any workload's replay.
    tracer.run_id = "probe"
    startup = [run_cli(workloads.info(f"info{i}"), run_dir) for i in range(5)]
    samples += startup
    store_load = []
    with instrumented(tracer):
        for _ in range(5):
            with tracer.span("probe.store_load") as span:
                store = catalog.BaseCaseStore()
                store.get(5)
                store.get(6)
            store_load.append(_dur(span))
        _, values, _ = ref.parse(next(run_dir.glob("gen18.*.txt")).read_text())
        from_decimals = []
        for _ in range(3):
            with tracer.span("probe.from_decimals") as span:
                sequences.TernarySequence.from_decimals(18, values)
            from_decimals.append(_dur(span))
    tracemalloc.start()
    sequences.TernarySequence.from_decimals(18, values)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    spans = tracer.spans
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"seed": seed, "spans": spans}))
    metrics = derive(spans, cli_wall, cli_cpu)
    metrics.update({
        "cli.startup_s": (statistics.median(s.wall_s for s in startup), "s"),
        "catalog.store_load_s": (statistics.median(store_load), "s"),
        "sequences.from_decimals_s": (statistics.median(from_decimals), "s"),
        "sequences.bytes_per_word": (peak / len(values), "B/word"),
    })
    params["spans_file"] = str(spans_path)
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}, samples, params


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when no call was recorded."""
    return numerator / denominator if denominator else 0.0


def derive(spans: list[dict], cli_wall: dict, cli_cpu: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the replay spans, as name -> (value, unit)."""

    def pick(name: str, run_prefix: str) -> list[dict]:
        return [s for s in spans if s["name"] == name and s["run"].startswith(run_prefix)]

    def seconds(chosen: list[dict]) -> float:
        return sum(_dur(s) for s in chosen)

    def attr(chosen: list[dict], key: str) -> int:
        return sum(s["attrs"][key] for s in chosen)

    lifts = pick("lifting.lift", "construct/gen")
    verifies = pick("sequences.verify", "construct/")
    formats = pick("catalog.format_sequence", "construct/gen")
    parses = pick("catalog.parse_sequence_text", "construct/verify")  # not the base-case fixtures
    searches = pick("search.search", "search/")
    count_d4 = [s for s in searches if s["run"] == "search/count_d4"]
    parallel = pick("search.search_parallel", "search/")
    prove = {s["attrs"]["dim"]: s["attrs"]["nodes"] for s in pick("search.prove_impossibility", "search/")}
    to18 = [s for s in lifts if s["attrs"]["words"] == (1 << 18) - 1]

    metrics = {
        "catalog.format_s": (seconds(formats), "s"),
        "catalog.write_bytes": (attr(formats, "bytes"), "bytes"),
        "catalog.parse_s": (seconds(parses), "s"),
        "catalog.read_bytes": (attr(parses, "bytes"), "bytes"),
        "lifting.lift_s": (seconds(lifts), "s"),
        "lifting.lift_s.to18": (seconds(to18), "s"),
        "lifting.lift_words_per_s": (_ratio(attr(lifts, "words"), seconds(lifts)), "words/s"),
        "lifting.lift_calls": (len(lifts), "count"),
        "sequences.verify_s": (seconds(verifies), "s"),
        "sequences.verify_words_per_s": (_ratio(attr(verifies, "words"), seconds(verifies)), "words/s"),
        "search.nodes.count_d4": (attr(count_d4, "nodes"), "count"),
        "search.nodes.first_d5r": (attr([s for s in searches if s["run"] == "search/first_d5r"], "nodes"), "count"),
        "search.nodes.prove_d3": (prove.get(3, 0), "count"),
        "search.nodes.prove_d4": (prove.get(4, 0), "count"),
        "search.nodes_per_s": (_ratio(attr(searches, "nodes"), seconds(searches)), "nodes/s"),
        "search.parallel_speedup": (_ratio(seconds(count_d4), seconds(parallel)), "ratio"),
        "search.parallel_nodes_ratio": (_ratio(attr(parallel, "nodes"), attr(count_d4, "nodes")), "ratio"),
    }
    for workload in workloads.WORKLOADS:
        traced_total = seconds(pick("cli.main", f"{workload}/"))
        metrics[f"trace.overhead_s.{workload}"] = (traced_total - cli_wall[workload], "s")
        metrics[f"cli.cpu_s.{workload}"] = (cli_cpu[workload], "s")
    replayed = [s for s in spans if s["run"].split("/", 1)[0] in workloads.WORKLOADS]
    for layer, total in self_times(replayed).items():
        metrics[f"{layer}.self_s"] = (total, "s")
    return metrics
