"""Outside-in span tracer for the selfreward package.

The package binds names at import time (``fish1d`` holds its own
``backward``, ``layers`` its own ``record``), so wrapping a function in its
defining module alone would miss most calls.  ``Tracer`` therefore rebinds
every attribute of every loaded ``selfreward`` module that refers to the
wrapped function; methods are wrapped on their class.  Leaving the ``with``
block restores every original binding.

Spans live in memory as flat arrays (name id, start, end, parent) and are
written out by ``write_spans`` once the run ends.  Entering a tracer
imports every module of the package, so it can be entered before the
package is used.  Each timed command is a
root span opened with ``Tracer.command``; per-unit figures divide a
function's totals under a command by that command's units of work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "selfreward"


class Tracer:
    """Wraps named package functions in spans and counters while active.

    ``spans`` is a list of (module, qualname, span name, result hook);
    the hook, if any, is called with the tracer and the function's result.
    ``counters`` is a list of (module, qualname, classify): the function is
    not spanned, but ``classify(result)`` names a counter bumped per call.
    """

    def __init__(self, spans, counters=()):
        self._span_targets = list(spans)
        self._counter_targets = list(counters)
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._root = -1
        self.root_label: dict[int, str] = {}
        self.root_units: dict[int, float] = {}
        self.counts: Counter = Counter()  # (root span, counter name) -> count

    # -- installing and removing wrappers ---------------------------------------

    def __enter__(self):
        # load every module first, so that each one importing a wrapped
        # name is loaded when the name is rebound
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        try:
            for module, qualname, name, hook in self._span_targets:
                self._install(module, qualname, functools.partial(self._spanned, name, hook))
            for module, qualname, classify in self._counter_targets:
                self._install(module, qualname, functools.partial(self._counted, classify))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _install(self, module: str, qualname: str, make_wrapper) -> None:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            self._rebind(cls, attr, make_wrapper(original))
            return
        original = getattr(mod, qualname)
        wrapper = make_wrapper(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._rebind(loaded, attr, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name: str, hook, original):
        name_id = self._intern(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _counted(self, classify, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.counts[self._root, classify(result)] += 1
            return result

        return wrapper

    # -- spans --------------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, counter: str, n: float = 1) -> None:
        """Bump a counter under the command currently running."""
        self.counts[self._root, counter] += n

    @contextlib.contextmanager
    def command(self, label: str, units: float):
        """Root span for one timed command doing ``units`` units of work."""
        idx = self._open(self._intern("cli.dispatch"))
        self.root_label[idx] = label
        self.root_units[idx] = units
        self._root = idx
        try:
            yield
        finally:
            self._close(idx)
            self._root = -1

    # -- aggregation ------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Per command label: calls and self ns per span name, and counters.

        Returns (calls, self_ns, counts, units), each keyed by label first.
        Self time is a span's duration minus the durations of its children.
        """
        n = len(self.start)
        child_ns = [0] * n
        root_of = [-1] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
                root_of[i] = root_of[p]
            else:
                root_of[i] = i
        calls: dict = defaultdict(Counter)
        self_ns: dict = defaultdict(Counter)
        for i in range(n):
            label = self.root_label.get(root_of[i])
            if label is None:
                continue  # a span outside any timed command
            name = self.names[self.name_id[i]]
            calls[label][name] += 1
            self_ns[label][name] += self.end[i] - self.start[i] - child_ns[i]
        counts: dict = defaultdict(Counter)
        for (root, counter), value in self.counts.items():
            if root in self.root_label:
                counts[self.root_label[root]][counter] += value
        units: Counter = Counter()
        for root, label in self.root_label.items():
            units[label] += self.root_units[root]
        return calls, self_ns, counts, units

    def children_named(self, parent_name: str, child_name: str) -> tuple[int, int]:
        """(spans named parent_name, those with a direct child named child_name)."""
        names = self._name_ids
        if parent_name not in names:
            return 0, 0
        pid, cid = names[parent_name], names.get(child_name, -1)
        with_child = {self.parent[i] for i in range(len(self.start))
                      if self.name_id[i] == cid}
        parents = [i for i in range(len(self.start)) if self.name_id[i] == pid]
        return len(parents), sum(1 for i in parents if i in with_child)

    def write_spans(self, path) -> Path:
        """Save every span to a numpy ``.npz`` archive.

        Arrays ``name_id``, ``parent`` (-1 for a root), ``start_ns`` and
        ``end_ns`` have one entry per span, in the order the spans were
        opened; ``names`` maps name ids to names, and ``roots`` and
        ``root_labels`` name each command's root span.
        """
        path = Path(path)
        roots = sorted(self.root_label)
        np.savez_compressed(
            path, name_id=np.asarray(self.name_id), parent=np.asarray(self.parent),
            start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
            names=np.array(self.names), roots=np.array(roots, dtype=np.int64),
            root_labels=np.array([self.root_label[r] for r in roots]))
        return path
