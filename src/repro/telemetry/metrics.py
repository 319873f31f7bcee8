"""Label-keyed counters, gauges and histograms with Prometheus exposition.

The registry is deliberately tiny and dependency-free: a *family* is created
once (``registry.counter("repro_reservoir_ingest_total")``) and cached by the
instrumented component, then updated through plain attribute arithmetic on
the hot path.  Families can be split into label-keyed series
(``family.labels(channel="data")``), which are cached too — the per-event
cost of an enabled counter is one float addition.

When telemetry is disabled the module-level :data:`NULL_COUNTER` /
:data:`NULL_GAUGE` / :data:`NULL_HISTOGRAM` singletons stand in for every
series: their update methods are empty, so instrumentation can stay inline
in hot loops without measurable cost (see ``docs/OBSERVABILITY.md`` for the
measured overhead policy).

Rendering follows the Prometheus text exposition format (version 0.0.4):
``# HELP`` / ``# TYPE`` headers per family, one ``name{labels} value`` line
per series, ``_bucket``/``_sum``/``_count`` triples for histograms.

Telemetry is *observation*, never state: nothing in this module is
checkpointed, and enabling or disabling it must leave every run output
bit-identical (no RNG draws, no numeric reuse).
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]

#: default histogram bucket upper bounds (seconds-oriented, latency-shaped)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)


def _format_value(value: float) -> str:
    """Prometheus-style number: integers without a trailing ``.0``."""
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


#: one ``key="value"`` pair of a flat series key's label suffix
_LABEL_PAIR = re.compile(r'(\w+)="([^"]*)"')


def _label_suffix(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class _NullSeries:
    """Shared no-op stand-in for every series kind when telemetry is off."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels: object) -> "_NullSeries":
        return self


NULL_COUNTER = _NullSeries()
NULL_GAUGE = NULL_COUNTER
NULL_HISTOGRAM = NULL_COUNTER


class _Series:
    """One (family, label-set) time series holding a single float."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(value)


class _Family:
    """Base of one named metric family: default series + label children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:  # noqa: A002
        self.name = name
        self.help = help
        self._default = self._new_series()
        self._children: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def _new_series(self) -> object:
        return _Series()

    def labels(self, **labels: object):
        """The child series keyed by ``labels`` (created on first use)."""
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_series()
        return child

    def _series_items(self) -> List[Tuple[Tuple[Tuple[str, str], ...], object]]:
        items: List[Tuple[Tuple[Tuple[str, str], ...], object]] = []
        default = self._default
        if self._touched(default):
            items.append(((), default))
        for key in sorted(self._children):
            items.append((key, self._children[key]))
        return items

    @staticmethod
    def _touched(series: object) -> bool:
        return bool(getattr(series, "value", 0.0))

    # ------------------------------------------------------------ rendering
    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for labels, series in self._series_items():
            lines.append(
                f"{self.name}{_label_suffix(labels)} {_format_value(series.value)}"  # type: ignore[attr-defined]
            )
        return lines

    def values(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` mapping over every touched series."""
        return {
            f"{self.name}{_label_suffix(labels)}": float(series.value)  # type: ignore[attr-defined]
            for labels, series in self._series_items()
        }


class Counter(_Family):
    """Monotonically increasing family (``*_total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._default.value += amount  # type: ignore[attr-defined]


class Gauge(_Family):
    """Set-to-current-value family (queue depths, uptimes, pool sizes)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._default.set(value)  # type: ignore[attr-defined]

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)  # type: ignore[attr-defined]

    @staticmethod
    def _touched(series: object) -> bool:
        # A gauge explicitly set to 0.0 is still meaningful; render always.
        return True


class _HistogramSeries:
    """Bucketed observation series (cumulative counts + sum)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def value(self) -> float:  # uniform "touched" probe with _Series
        return float(self.count)


class Histogram(_Family):
    """Latency/size distribution family (checkpoint save/restore spans)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS  # noqa: A002
    ) -> None:
        self.buckets = tuple(buckets)
        super().__init__(name, help)

    def _new_series(self) -> object:
        return _HistogramSeries(self.buckets)

    def observe(self, value: float) -> None:
        self._default.observe(value)  # type: ignore[attr-defined]

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for labels, series in self._series_items():
            assert isinstance(series, _HistogramSeries)
            cumulative = 0
            for bound, count in zip(series.buckets, series.counts):
                cumulative += count
                le = (("le", _format_value(bound)),)
                lines.append(
                    f"{self.name}_bucket{_label_suffix(labels + le)} {cumulative}"
                )
            cumulative += series.counts[-1]
            inf = (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_label_suffix(labels + inf)} {cumulative}")
            lines.append(f"{self.name}_sum{_label_suffix(labels)} {_format_value(series.sum)}")
            lines.append(f"{self.name}_count{_label_suffix(labels)} {series.count}")
        return lines

    def values(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for labels, series in self._series_items():
            assert isinstance(series, _HistogramSeries)
            out[f"{self.name}_count{_label_suffix(labels)}"] = float(series.count)
            out[f"{self.name}_sum{_label_suffix(labels)}"] = float(series.sum)
        return out


class MetricsRegistry:
    """Named collection of metric families (the process-wide telemetry hub).

    ``counter``/``gauge``/``histogram`` are get-or-create: instrumented
    components call them once at construction and cache the returned family
    (or a ``labels(...)`` child), so the hot path never touches the registry.
    Re-registering a name with a different kind raises — two components
    silently sharing one series under different semantics would corrupt both.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        #: re-entrant: add_counter_values creates families while holding it
        self._lock = threading.RLock()

    # ----------------------------------------------------------- factories
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Family:  # noqa: A002
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(name, help, **kwargs)
            elif not isinstance(family, cls):
                raise ValueError(
                    f"metric {name!r} is already registered as {family.kind}, "
                    f"requested {cls.kind}"
                )
            return family

    def counter(self, name: str, help: str = "") -> Counter:  # noqa: A002
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:  # noqa: A002
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS  # noqa: A002
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    # ------------------------------------------------------------- reading
    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def counter_values(self) -> Dict[str, float]:
        """Flat snapshot of every touched *counter* series.

        Counters are the deterministic, delta-able subset of the registry —
        :func:`counter_delta` over two snapshots attributes increments to one
        run, which is how per-run telemetry reaches
        :attr:`repro.workflow.results.RunResult.telemetry`.
        """
        out: Dict[str, float] = {}
        for family in self.families():
            if isinstance(family, Counter):
                out.update(family.values())
        return out

    def add_counter_values(self, values: Mapping[str, float]) -> None:
        """Add flat ``name{labels} -> amount`` increments to counter series.

        The inverse of :meth:`counter_values`: a process folds the
        :func:`counter_delta` of work done in another process (a study
        worker) into its own counters.  Threads fold one at a time, since a
        series' ``+=`` is not atomic.
        """
        with self._lock:
            for key, amount in values.items():
                name, _, labels = key.partition("{")
                family = self.counter(name)
                series = family.labels(**dict(_LABEL_PAIR.findall(labels))) if labels else family
                series.inc(amount)

    def values(self) -> Dict[str, float]:
        """Flat snapshot of every touched series of every kind."""
        out: Dict[str, float] = {}
        for family in self.families():
            out.update(family.values())
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")


def counter_delta(
    before: Dict[str, float], after: Dict[str, float], keys: Optional[Iterable[str]] = None
) -> Dict[str, float]:
    """Per-series increments between two :meth:`~MetricsRegistry.counter_values`.

    Series absent from ``before`` count from zero; zero deltas are dropped so
    per-run payloads stay small.
    """
    selected = after if keys is None else {k: after[k] for k in keys if k in after}
    out: Dict[str, float] = {}
    for key, value in selected.items():
        delta = value - before.get(key, 0.0)
        if delta:
            out[key] = delta
    return out
