"""Spans and counters around the public functions of each cpsums module.

The library is not instrumented.  `Tracer.installed()` wraps the public
functions listed in `TARGETS` and rebinds every reference to them in the
cpsums namespaces that imported them (module attributes, class
attributes and dict values such as `verify.SUITES`), then restores the
originals on exit.

Each wrapped call is a span: name, start, end, parent span and op id.
Self time is a span's duration minus the time its child spans cover.
Calls of the hot inner functions (`lr_positive`, group canonicalisation,
table lookups, `partitions`) are aggregated into counters and self time
but not kept as span records, so memory stays bounded on long runs.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

# Groups whose outermost inclusive time is reported as a share of op time.
SHARE_GROUPS = {
    "extensions_enum": "share.extensions_enum_pct",
    "oracle": "share.oracle_pct",
    "fgab_snf": "share.fgab_snf_pct",
    "ktheory_tables": "share.ktheory_tables_pct",
}


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    `owner` is a module name, or "module:Class" for a class attribute.
    `name` is the metric prefix the call is aggregated under.
    `on_result(tracer, args, result)` records counters from the
    arguments and result; it runs outside the span.
    """

    owner: str
    attr: str
    name: str
    hot: bool = False
    group: str | None = None
    generator: bool = False
    on_result: Callable | None = None


def _len_into(key: str):
    def hook(tracer, args, result):
        tracer.counters[key] = tracer.counters.get(key, 0) + len(result)
    return hook


def _lr_hit(tracer, args, result):
    if result:
        tracer.counters["extensions.lr_positive.true"] = (
            tracer.counters.get("extensions.lr_positive.true", 0) + 1
        )


def _resolved_count(tracer, args, result):
    n = len(result) if hasattr(result, "candidates") else 1
    tracer.counters["extensions.resolve.candidates_out"] = (
        tracer.counters.get("extensions.resolve.candidates_out", 0) + n
    )


def _transform_bits(tracer, args, result):
    u, _, v = result
    bits = max(
        (abs(x).bit_length() for m in (u, v) for row in m.entries for x in row),
        default=0,
    )
    key = "fgab.smith_normal_form.max_transform_bits"
    tracer.counters[key] = max(tracer.counters.get(key, 0), bits)


def _ko_labels(tracer, args, result):
    tracer.counters["ktheory.ko_group.labels"] = (
        tracer.counters.get("ktheory.ko_group.labels", 0) + len(result.basis)
    )


def _pi_s0_key(tracer, args, result):
    tracer.keys.add((result.k, result.n))


TARGETS = (
    Target("cpsums.extensions", "partitions", "extensions.partitions",
           hot=True, generator=True),
    Target("cpsums.extensions", "lr_positive", "extensions.lr_positive",
           hot=True, group="extensions_enum", on_result=_lr_hit),
    Target("cpsums.extensions", "middle_candidates_between",
           "extensions.middle_candidates_between", group="extensions_enum"),
    Target("cpsums.extensions", "middle_candidates", "extensions.middle_candidates",
           on_result=_len_into("extensions.resolve.candidates_in")),
    Target("cpsums.extensions", "resolve", "extensions.resolve",
           on_result=_resolved_count),
    Target("cpsums.extensions", "brute_force_middle_terms",
           "extensions.brute_force_middle_terms", group="oracle"),
    Target("cpsums.fgab", "smith_normal_form", "fgab.smith_normal_form",
           group="fgab_snf", on_result=_transform_bits),
    Target("cpsums.fgab", "group_from_relations", "fgab.group_from_relations"),
    Target("cpsums.fgab", "hom_kernel", "fgab.hom"),
    Target("cpsums.fgab", "hom_image", "fgab.hom"),
    Target("cpsums.fgab", "hom_cokernel", "fgab.hom"),
    Target("cpsums.fgab:FgAbGroup", "from_primary", "fgab.canon", hot=True),
    Target("cpsums.fgab:FgAbGroup", "from_cyclic_orders", "fgab.canon", hot=True),
    Target("cpsums.fgab:FgAbGroup", "direct_sum", "fgab.canon", hot=True),
    Target("cpsums.ktheory", "ko_group", "ktheory.ko_group",
           group="ktheory_tables", on_result=_ko_labels),
    Target("cpsums.ktheory", "verify_sandwich", "ktheory.verify_sandwich",
           group="ktheory_tables"),
    Target("cpsums.ktheory", "complex_k0", "ktheory.complex_k0",
           group="ktheory_tables"),
    *(
        Target("cpsums.tables", attr, "tables.lookup", hot=True,
               group="ktheory_tables")
        for attr in (
            "entry", "all_raw_records", "stable_stem", "stable_stem_localized",
            "pi_s0_single_cp", "hopf_kernel", "hopf_image_suspension",
            "wall_group", "ko_single_cp", "pl_over_o_entry",
        )
    ),
    Target("cpsums.cohomotopy", "pi_s0_connected_sum",
           "cohomotopy.pi_s0_connected_sum", on_result=_pi_s0_key),
    Target("cpsums.surgery", "structure_set", "surgery.structure_set"),
    *(
        Target("cpsums.verify", f"{suite}_suite", f"verify.{suite}")
        for suite in ("snf", "oracle", "tables", "sandwich", "surgery")
    ),
    Target("cpsums.cli", "main", "cli.main"),
)

# Cap on kept span records; further spans still count toward self time.
MAX_SPANS = 200_000


class Tracer:
    """In-memory spans, counters and per-name self and inclusive time."""

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.group_ns: dict[str, int] = {}
        self.keys: set = set()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._stack: list[list] = []  # [name, start, child_ns, span_id]
        self._group_depth: dict[str, int] = {}
        self._group_start: dict[str, int] = {}
        self._next_id = 1

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, target: Target) -> list:
        now = perf_counter_ns()
        group = target.group
        if group is not None:
            depth = self._group_depth.get(group, 0)
            if depth == 0:
                self._group_start[group] = now
            self._group_depth[group] = depth + 1
        frame = [target.name, now, 0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, target: Target, frame: list):
        end = perf_counter_ns()
        self._stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.counters[name + ".calls"] = self.counters.get(name + ".calls", 0) + 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        group = target.group
        if group is not None:
            depth = self._group_depth[group] - 1
            self._group_depth[group] = depth
            if depth == 0:
                self.group_ns[group] = (
                    self.group_ns.get(group, 0) + end - self._group_start[group]
                )
        if not target.hot:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (name, start, end, parent[3] if parent else 0, self.op_id, span_id)
                )
            else:
                self.dropped += 1
        return parent

    def _run_hook(self, target: Target, parent, args, result):
        # hook time is charged to nobody: it is added to the parent's
        # child time so the parent's self time excludes it
        start = perf_counter_ns()
        target.on_result(self, args, result)
        if parent is not None:
            parent[2] += perf_counter_ns() - start

    def wrap(self, target: Target, fn: Callable) -> Callable:
        if target.generator:
            key = target.name + ".yielded"
            counters = self.counters

            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters[key] = counters.get(key, 0) + 1
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = self._enter(target)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = self._exit(target, frame)
            if target.on_result is not None:
                self._run_hook(target, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        return wrapper

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap `targets` in every loaded cpsums namespace; restore on exit."""
        undo: list[Callable[[], None]] = []
        try:
            for target in targets:
                undo.extend(self._install(target))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _install(self, target: Target) -> list[Callable[[], None]]:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            raw = cls.__dict__[target.attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(target, raw.__func__))
            else:
                replacement = self.wrap(target, raw)
            setattr(cls, target.attr, replacement)
            return [lambda: setattr(cls, target.attr, raw)]
        original = getattr(module, target.attr)
        wrapper = self.wrap(target, original)
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cpsums" or mod_name.startswith("cpsums.")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append(lambda m=mod, a=attr: setattr(m, a, original))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = wrapper
                            undo.append(
                                lambda d=value, k=key: d.__setitem__(k, original)
                            )
        return undo

    # -- export ------------------------------------------------------------

    def summary(self) -> dict:
        """Plain-JSON aggregate, mergeable across processes by `merge`."""
        return {
            "counters": dict(self.counters),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "group_ns": dict(self.group_ns),
            "keys": sorted(list(k) for k in self.keys),
            "dropped": self.dropped,
        }

    def merge(self, summary: dict):
        """Fold another process's `summary()` into this tracer."""
        for field in ("self_ns", "total_ns", "group_ns"):
            mine = getattr(self, field)
            for key, value in summary[field].items():
                mine[key] = mine.get(key, 0) + value
        for key, value in summary["counters"].items():
            if key.endswith("max_transform_bits"):
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value
        self.keys.update(tuple(k) for k in summary["keys"])
        self.dropped += summary["dropped"]

    def write_spans(self, path: str):
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, span_id in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
