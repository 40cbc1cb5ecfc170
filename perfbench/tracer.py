"""Span recording around the calls into cogcn's modules.

Each public function is replaced at the name its caller looks it up by:
``training.py`` binds ``forward_arrays``, ``backward``, ``build_cosine_graph``
and the rest at import time, so their wrappers go on ``cogcn.training``; the
`cogcn train` command's calls go on ``cogcn.cli``; the benchmark's own
inference loop calls through ``cogcn.features``, ``cogcn.model`` and
``cogcn.training``. Span names carry the module that defines the function.
No file under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np

# (module the caller looks the function up in, attribute, span name)
TARGETS = (
    ("cogcn.cli", "main", "cli.main"),
    ("cogcn.cli", "load_dataset", "features.load_dataset"),
    ("cogcn.cli", "write_metrics_json", "training.write_metrics_json"),
    ("cogcn.cli", "write_history_csv", "training.write_history_csv"),
    ("cogcn.cli", "save_checkpoint", "model.save_checkpoint"),
    ("cogcn.features", "load_dataset", "features.load_dataset"),
    ("cogcn.features", "apply_standardizer", "features.apply_standardizer"),
    ("cogcn.model", "load_checkpoint", "model.load_checkpoint"),
    ("cogcn.training", "run_fold", "training.run_fold"),
    ("cogcn.training", "fit_standardizer", "features.fit_standardizer"),
    ("cogcn.training", "apply_standardizer", "features.apply_standardizer"),
    ("cogcn.training", "prepare_graphs", "training.prepare_graphs"),
    ("cogcn.training", "build_cosine_graph", "graph.build_cosine_graph"),
    ("cogcn.training", "build_temporal_graph", "graph.build_temporal_graph"),
    ("cogcn.training", "norm_coefficients", "graph.norm_coefficients"),
    ("cogcn.training", "train", "training.train"),
    ("cogcn.training", "forward_arrays", "model.forward_arrays"),
    ("cogcn.training", "cross_entropy_from_logits", "training.cross_entropy_from_logits"),
    ("cogcn.training", "backward", "training.backward"),
    ("cogcn.training", "adam_step", "training.adam_step"),
    ("cogcn.training", "evaluate", "training.evaluate"),
)

# forward_arrays spans are named by mode, since train and eval calls differ
SPAN_NAMES = tuple(dict.fromkeys(
    name for _, _, name in TARGETS if name != "model.forward_arrays"
)) + ("model.forward_arrays.train", "model.forward_arrays.eval")


def _forward_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[4] if len(args) > 4 else "eval")


class Tracer:
    """Keeps spans in memory as ``[name, start, end, parent, run_id]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = "setup"
        self.nodes = 0
        self.coeff_nonzero = 0
        self.coeff_entries = 0
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target; one the program no longer has reads 0 calls."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = {
            "graph.build_cosine_graph": self._count_nodes,
            "graph.build_temporal_graph": self._count_nodes,
            "graph.norm_coefficients": self._count_coeffs,
        }.get(name)
        by_mode = name == "model.forward_arrays"

        def traced(*args, **kwargs):
            span_name = f"{name}.{_forward_mode(args, kwargs)}" if by_mode else name
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_nodes(self, graph) -> None:
        self.nodes += graph.n_nodes

    def _count_coeffs(self, coeffs) -> None:
        self.coeff_nonzero += int(np.count_nonzero(coeffs))
        self.coeff_entries += coeffs.size

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
