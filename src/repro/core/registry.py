"""The pluggable algorithm registry: one place that knows every algorithm.

Every streaming clusterer the library ships — the paper's CT/CC/RCC and
OnlineCC, the baselines, and the extension algorithms (sliding window, decay,
soft clustering) — registers here under the name the paper (or this repo's
docs) uses for it, together with a **typed options dataclass** describing its
algorithm-specific knobs.  Everything downstream is derived from the
registry:

* :func:`repro.bench.harness.make_algorithm` is a thin shim over
  :meth:`AlgorithmRegistry.create` (bit-identical construction for all
  legacy call sites);
* the CLI's ``--algorithm`` choices and its per-algorithm option flags
  (``--nesting-depth``, ``--window-buckets``, ``--fuzziness``, ...) are
  generated by :meth:`AlgorithmRegistry.add_cli_flags` — a new algorithm
  shows up in the CLI by registering, with no argparse edits;
* per-algorithm options are validated in each dataclass's ``__post_init__``
  and folded into the checkpoint config fingerprint by the clusterers'
  ``_extra_config`` hooks, so a resume with drifted options fails fast;
* ``docs/scenarios.md``'s flag table is rendered by
  :meth:`AlgorithmRegistry.render_flag_table` (kept in sync by a test).

Option values flow as **dataclasses, not loose kwargs**: ``registry.
options_for("rcc", nesting_depth=2)`` rejects unknown keys with the list of
valid ones, and ``registry.create(name, config, options=...)`` type-checks
the instance against the algorithm's registered options type.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .base import StreamingClusterer, StreamingConfig

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import argparse

__all__ = [
    "AlgorithmOptions",
    "NoOptions",
    "RccOptions",
    "OnlineCCOptions",
    "WindowOptions",
    "DecayOptions",
    "SoftOptions",
    "AlgorithmSpec",
    "AlgorithmRegistry",
    "default_registry",
]


# --------------------------------------------------------------------------
# Typed per-algorithm options
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmOptions:
    """Base class for per-algorithm option dataclasses (no shared fields)."""


@dataclass(frozen=True)
class NoOptions(AlgorithmOptions):
    """Marker for algorithms with no algorithm-specific options."""


@dataclass(frozen=True)
class RccOptions(AlgorithmOptions):
    """Options of the recursive cached clusterer (RCC)."""

    nesting_depth: int = 3

    def __post_init__(self) -> None:
        if self.nesting_depth < 1:
            raise ValueError(f"nesting_depth must be at least 1, got {self.nesting_depth}")


@dataclass(frozen=True)
class OnlineCCOptions(AlgorithmOptions):
    """Options of the OnlineCC hybrid clusterer."""

    switch_threshold: float = 1.2

    def __post_init__(self) -> None:
        if self.switch_threshold <= 1.0:
            raise ValueError(
                f"switch_threshold must exceed 1.0, got {self.switch_threshold}"
            )


@dataclass(frozen=True)
class WindowOptions(AlgorithmOptions):
    """Options of the sliding-window clusterer."""

    window_buckets: int = 10

    def __post_init__(self) -> None:
        if self.window_buckets < 1:
            raise ValueError(
                f"window_buckets must be at least 1, got {self.window_buckets}"
            )


@dataclass(frozen=True)
class DecayOptions(AlgorithmOptions):
    """Options of the exponentially time-decayed clusterer."""

    decay: float = 0.95
    min_weight: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if not 0.0 < self.min_weight < 1.0:
            raise ValueError(f"min_weight must be in (0, 1), got {self.min_weight}")


@dataclass(frozen=True)
class SoftOptions(AlgorithmOptions):
    """Options of the soft (fuzzy c-means) clusterer."""

    fuzziness: float = 2.0

    def __post_init__(self) -> None:
        if self.fuzziness <= 1.0:
            raise ValueError(f"fuzziness must exceed 1.0, got {self.fuzziness}")


#: Help text for every option field, shared by the generated CLI flags and the
#: rendered flag table (one entry per field name; fields are globally unique).
OPTION_HELP: dict[str, str] = {
    "nesting_depth": "RCC nesting depth (number of recursive cache levels)",
    "switch_threshold": "OnlineCC fallback threshold alpha on the cost ratio",
    "window_buckets": "number of most-recent base buckets the sliding window covers",
    "decay": "per-bucket exponential decay factor gamma in (0, 1]",
    "min_weight": "drop threshold for decayed bucket weights, in (0, 1)",
    "fuzziness": "fuzzy c-means exponent f > 1 (2.0 is conventional)",
}


# --------------------------------------------------------------------------
# Specs and the registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the registry knows about one algorithm.

    Attributes
    ----------
    name:
        Canonical registry name (the paper's name where one exists).
    summary:
        One-line description, shown by ``repro-cli info`` and the docs table.
    factory:
        ``factory(config, options) -> StreamingClusterer`` building the
        single-process clusterer.  Imports lazily to avoid module cycles.
    options_type:
        The algorithm's options dataclass (``NoOptions`` when it has none).
    shard_structure:
        Structure name handed to the parallel sharded engine, or None when
        the algorithm's semantics do not shard (window/decay expiry is
        ordered by the global bucket index; soft serving would lose the
        fuzzy refinement).
    aliases:
        Alternative lookup spellings (lower-cased at lookup time).
    """

    name: str
    summary: str
    factory: Callable[[StreamingConfig, AlgorithmOptions], StreamingClusterer]
    options_type: type[AlgorithmOptions] = NoOptions
    shard_structure: str | None = None
    aliases: tuple[str, ...] = ()

    @property
    def option_fields(self) -> tuple[dataclasses.Field, ...]:
        """The option dataclass's fields (empty for ``NoOptions``)."""
        return dataclasses.fields(self.options_type)


class AlgorithmRegistry:
    """Name → :class:`AlgorithmSpec` mapping with typed option plumbing."""

    def __init__(self) -> None:
        self._specs: dict[str, AlgorithmSpec] = {}
        self._aliases: dict[str, str] = {}

    # -- registration and lookup --------------------------------------------

    def register(self, spec: AlgorithmSpec) -> AlgorithmSpec:
        """Register ``spec``; its name and aliases must be unused."""
        for key in (spec.name.lower(), *(a.lower() for a in spec.aliases)):
            if key in self._specs or key in self._aliases:
                raise ValueError(f"algorithm name {key!r} is already registered")
        self._specs[spec.name.lower()] = spec
        for alias in spec.aliases:
            self._aliases[alias.lower()] = spec.name.lower()
        return spec

    def names(self) -> tuple[str, ...]:
        """Canonical algorithm names, in registration order."""
        return tuple(spec.name for spec in self._specs.values())

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._specs or key in self._aliases

    def get(self, name: str) -> AlgorithmSpec:
        """Resolve ``name`` (case-insensitive, aliases allowed) to its spec."""
        key = name.lower()
        key = self._aliases.get(key, key)
        try:
            return self._specs[key]
        except KeyError:
            raise KeyError(
                f"unknown algorithm {name!r}; available: {self.names()}"
            ) from None

    # -- options -------------------------------------------------------------

    def options_for(self, name: str, **overrides) -> AlgorithmOptions:
        """Build the algorithm's options dataclass from keyword overrides.

        Unknown keys raise :class:`TypeError` naming the valid fields, and
        the dataclass's own ``__post_init__`` validates the values.
        """
        spec = self.get(name)
        valid = {f.name for f in spec.option_fields}
        unknown = set(overrides) - valid
        if unknown:
            raise TypeError(
                f"algorithm {spec.name!r} does not accept option(s) "
                f"{sorted(unknown)}; valid options: {sorted(valid) or 'none'}"
            )
        return spec.options_type(**overrides)

    # -- construction --------------------------------------------------------

    def create(
        self,
        name: str,
        config: StreamingConfig,
        options: AlgorithmOptions | None = None,
        *,
        shards: int = 1,
        backend: str = "serial",
        routing: str = "round_robin",
        **option_overrides,
    ) -> StreamingClusterer:
        """Instantiate an algorithm by name.

        Options come either as the algorithm's dataclass (``options=``) or as
        keyword overrides (``nesting_depth=2``), never both.  With
        ``shards > 1`` the algorithm's registered shard structure runs on the
        parallel :class:`~repro.parallel.engine.ShardedEngine`; algorithms
        whose semantics do not shard raise a clear :class:`ValueError`.
        """
        spec = self.get(name)
        if options is not None:
            if option_overrides:
                raise TypeError("pass either options= or keyword overrides, not both")
            if not isinstance(options, spec.options_type):
                raise TypeError(
                    f"algorithm {spec.name!r} expects {spec.options_type.__name__} "
                    f"options, got {type(options).__name__}"
                )
        else:
            options = self.options_for(spec.name, **option_overrides)
        if shards > 1:
            if spec.shard_structure is None:
                raise ValueError(
                    f"algorithm {spec.name!r} does not support sharded ingestion; "
                    "use one of ct, cc, rcc"
                )
            from ..parallel.engine import ShardedEngine

            return ShardedEngine(
                config,
                num_shards=shards,
                backend=backend,
                routing=routing,
                structure=spec.shard_structure,
                **dataclasses.asdict(options),
            )
        return spec.factory(config, options)

    # -- CLI integration -----------------------------------------------------

    def option_flags(self) -> list[tuple[str, AlgorithmSpec]]:
        """Every ``(field_name, owning spec)`` pair, in registration order."""
        pairs: list[tuple[str, AlgorithmSpec]] = []
        for spec in self._specs.values():
            for field in spec.option_fields:
                pairs.append((field.name, spec))
        return pairs

    def add_cli_flags(self, parser: "argparse.ArgumentParser") -> None:
        """Add one auto-generated flag per option field to ``parser``.

        Flags default to ``None`` (meaning "use the dataclass default"), so
        :meth:`cli_overrides` can tell explicit values apart from omissions.
        Field names are globally unique across algorithms, so each flag is
        added exactly once and its help names the owning algorithm.
        """
        seen: set[str] = set()
        for field_name, spec in self.option_flags():
            if field_name in seen:
                continue
            seen.add(field_name)
            field = next(f for f in spec.option_fields if f.name == field_name)
            parser.add_argument(
                f"--{field_name.replace('_', '-')}",
                type=field.type if isinstance(field.type, type) else _flag_type(field),
                default=None,
                help=(
                    f"{OPTION_HELP.get(field_name, field_name)} "
                    f"[{spec.name}; default {field.default}]"
                ),
            )

    def cli_overrides(self, name: str, namespace) -> dict:
        """Extract the explicitly-set option values for ``name`` from argparse.

        Returns only the fields the user actually passed (non-None), ready to
        splat into :meth:`options_for` / :meth:`create`.
        """
        spec = self.get(name)
        overrides = {}
        for field in spec.option_fields:
            value = getattr(namespace, field.name, None)
            if value is not None:
                overrides[field.name] = value
        return overrides

    def render_flag_table(self) -> str:
        """Markdown table of every auto-generated option flag (for the docs)."""
        lines = [
            "| Flag | Algorithm | Default | Meaning |",
            "| --- | --- | --- | --- |",
        ]
        for field_name, spec in self.option_flags():
            field = next(f for f in spec.option_fields if f.name == field_name)
            lines.append(
                f"| `--{field_name.replace('_', '-')}` | `{spec.name}` "
                f"| `{field.default}` | {OPTION_HELP.get(field_name, field_name)} |"
            )
        return "\n".join(lines)


def _flag_type(field: dataclasses.Field):
    """Map a (possibly stringified) dataclass field annotation to argparse type."""
    annotation = field.type if isinstance(field.type, str) else getattr(
        field.type, "__name__", "float"
    )
    return int if annotation == "int" else float


# --------------------------------------------------------------------------
# Factories (lazy imports: the registry is imported by harness and CLI, and
# several algorithm modules import the harness in their doctests/examples)
# --------------------------------------------------------------------------


def _make_sequential(config: StreamingConfig, options: AlgorithmOptions):
    from ..baselines.sequential import SequentialKMeans

    return SequentialKMeans(config.k)


def _make_streamkmpp(config: StreamingConfig, options: AlgorithmOptions):
    from ..baselines.streamkmpp import StreamKMpp

    return StreamKMpp(config)


def _make_ct(config: StreamingConfig, options: AlgorithmOptions):
    from .driver import CoresetTreeClusterer

    return CoresetTreeClusterer(config)


def _make_cc(config: StreamingConfig, options: AlgorithmOptions):
    from .driver import CachedCoresetTreeClusterer

    return CachedCoresetTreeClusterer(config)


def _make_rcc(config: StreamingConfig, options: RccOptions):
    from .driver import RecursiveCachedClusterer

    return RecursiveCachedClusterer(config, nesting_depth=options.nesting_depth)


def _make_onlinecc(config: StreamingConfig, options: OnlineCCOptions):
    from .online_cc import OnlineCCClusterer

    return OnlineCCClusterer(config, switch_threshold=options.switch_threshold)


def _make_window(config: StreamingConfig, options: WindowOptions):
    from ..extensions.decay import SlidingWindowClusterer

    return SlidingWindowClusterer(config, window_buckets=options.window_buckets)


def _make_decay(config: StreamingConfig, options: DecayOptions):
    from ..extensions.decay import DecayedCoresetClusterer

    return DecayedCoresetClusterer(
        config, decay=options.decay, min_weight=options.min_weight
    )


def _make_soft(config: StreamingConfig, options: SoftOptions):
    from ..extensions.soft import SoftClusteringClusterer

    return SoftClusteringClusterer(config, fuzziness=options.fuzziness)


_DEFAULT: AlgorithmRegistry | None = None


def default_registry() -> AlgorithmRegistry:
    """The process-wide registry holding every built-in algorithm.

    Registration order is the paper's presentation order followed by the
    extension algorithms, so generated choice lists stay stable.
    """
    global _DEFAULT
    if _DEFAULT is not None:
        return _DEFAULT
    registry = AlgorithmRegistry()
    registry.register(
        AlgorithmSpec(
            name="sequential",
            summary="online sequential k-means baseline (MacQueen updates)",
            factory=_make_sequential,
        )
    )
    registry.register(
        AlgorithmSpec(
            name="streamkm++",
            summary="streamkm++ baseline (binary merge-and-reduce coreset tree)",
            factory=_make_streamkmpp,
            aliases=("streamkmpp",),
        )
    )
    registry.register(
        AlgorithmSpec(
            name="ct",
            summary="r-way coreset tree behind the generic stream driver",
            factory=_make_ct,
            shard_structure="ct",
        )
    )
    registry.register(
        AlgorithmSpec(
            name="cc",
            summary="coreset tree with the paper's coreset cache",
            factory=_make_cc,
            shard_structure="cc",
        )
    )
    registry.register(
        AlgorithmSpec(
            name="rcc",
            summary="recursive coreset cache (nested cache levels)",
            factory=_make_rcc,
            options_type=RccOptions,
            shard_structure="rcc",
        )
    )
    registry.register(
        AlgorithmSpec(
            name="onlinecc",
            summary="OnlineCC hybrid: sequential fast path with CC fallback",
            factory=_make_onlinecc,
            options_type=OnlineCCOptions,
        )
    )
    registry.register(
        AlgorithmSpec(
            name="window",
            summary="sliding window with exact Braverman-style bucket expiry",
            factory=_make_window,
            options_type=WindowOptions,
        )
    )
    registry.register(
        AlgorithmSpec(
            name="decay",
            summary="exponentially time-decayed bucket weights (concept drift)",
            factory=_make_decay,
            options_type=DecayOptions,
        )
    )
    registry.register(
        AlgorithmSpec(
            name="soft",
            summary="soft clustering: fuzzy c-means memberships over CC coresets",
            factory=_make_soft,
            options_type=SoftOptions,
        )
    )
    _DEFAULT = registry
    return registry
