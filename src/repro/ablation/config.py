"""Ablation configuration model: switchable axes and the run grid.

Following the aumai-ablation exemplar (SNIPPETS.md), the harness
enumerates **baseline plus one-off** configurations: one fully-featured
baseline run, then one run per axis with exactly that component switched
to its ablated ("removed") value. Every run carries a stable, traceable
``run_id`` (``baseline``, ``no-cache``, ``no-kernel_backend``, ...) so
reports diff cleanly across commits.

The axes mirror every runtime switch the codebase exposes:

==================  =======================  =====================
axis                baseline                 ablated
==================  =======================  =====================
``cache``           decoded-block cache on   no cache (cold decode)
``kernel_backend``  ``native`` C kernels     ``python`` reference
``policy``          ``degrade`` substitute   ``strict`` fail-fast
``spmm_fusion``     fused multi-RHS SpMM     k independent SpMVs
``session``         warm session reuse       cold state per call
==================  =======================  =====================

Adding a new switchable component = appending one :class:`Axis` here and
teaching :mod:`repro.ablation.runner` to apply it (see docs/ABLATION.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Axis:
    """One switchable component: its baseline and ablated settings.

    Every axis switches a component off entirely, so its removal must
    never *help* (the CI harmful gate).
    """

    #: Axis key — also the :class:`AblationConfig` field it controls.
    name: str
    #: Human-readable component name for the ranked report.
    component: str
    #: Value the fully-featured baseline runs with.
    baseline: object
    #: Value the one-off ablation run flips to ("component removed").
    ablated: object
    #: What removal means, for the report.
    description: str


#: The switchable-component axes, in stable report order.
AXES: tuple[Axis, ...] = (
    Axis(
        "cache",
        "decoded-block cache",
        True,
        False,
        "warm iterations re-decode every block instead of hitting the LRU",
    ),
    Axis(
        "kernel_backend",
        "native kernel backend",
        "native",
        "python",
        "codec hot loops fall back to the pure-python reference",
    ),
    Axis(
        "policy",
        "degrade policy",
        "degrade",
        "strict",
        "block-decode failures raise instead of substituting raw CSR",
    ),
    Axis(
        "spmm_fusion",
        "fused multi-RHS SpMM",
        True,
        False,
        "k right-hand sides run as k independent SpMVs (k decodes)",
    ),
    Axis(
        "session",
        "execution-session reuse",
        True,
        False,
        "every call rebuilds cold state: cache dropped, no warm fast "
        "path, no buffer reuse (steady-state iterations pay full decode)",
    ),
)

_AXES_BY_NAME: dict[str, Axis] = {axis.name: axis for axis in AXES}

#: run_id of the fully-featured configuration.
BASELINE_RUN_ID = "baseline"

#: Separator joining the two axis names of a pairwise ablation
#: (``ablated_axis="cache+policy"``, ``run_id="no-cache+policy"``).
PAIR_SEP = "+"


@dataclass(frozen=True)
class AblationConfig:
    """One fully-specified runtime configuration.

    ``ablated_axis`` is ``None`` for the baseline, else the name of the
    single axis flipped to its ablated value.
    """

    run_id: str
    ablated_axis: str | None
    cache: bool
    kernel_backend: str
    policy: str
    spmm_fusion: bool
    session: bool

    @property
    def is_baseline(self) -> bool:
        return self.ablated_axis is None

    def as_dict(self) -> dict:
        """JSON-ready view (the ``config`` object in BENCH_ablation.json)."""
        return {
            "cache": self.cache,
            "kernel_backend": self.kernel_backend,
            "policy": self.policy,
            "spmm_fusion": self.spmm_fusion,
            "session": self.session,
        }

    @property
    def is_pair(self) -> bool:
        """True for a pairwise ablation (two axes flipped at once)."""
        return self.ablated_axis is not None and PAIR_SEP in self.ablated_axis

    def pair_axes(self) -> tuple[str, str]:
        """The two axis names of a pairwise ablation.

        Raises:
            ValueError: when this is not a pairwise configuration.
        """
        if not self.is_pair:
            raise ValueError(f"{self.run_id!r} is not a pairwise ablation")
        a, b = self.ablated_axis.split(PAIR_SEP)
        return a, b

    def describe(self) -> str:
        if self.ablated_axis is None:
            return "baseline (all components on)"
        if self.is_pair:
            a, b = (axis(name) for name in self.pair_axes())
            return f"{a.component} and {b.component} removed together"
        ax = _AXES_BY_NAME[self.ablated_axis]
        return f"{ax.component} removed: {ax.description}"


def axis(name: str) -> Axis:
    """Look an axis up by name.

    Raises:
        ValueError: for an unknown axis name.
    """
    try:
        return _AXES_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown ablation axis {name!r}; know {sorted(_AXES_BY_NAME)}"
        ) from None


def baseline_config() -> AblationConfig:
    """The fully-featured configuration every ablation is measured against."""
    values = {a.name: a.baseline for a in AXES}
    return AblationConfig(run_id=BASELINE_RUN_ID, ablated_axis=None, **values)


def enumerate_configs(
    axes: tuple[str, ...] | None = None,
) -> tuple[AblationConfig, ...]:
    """Baseline plus one one-off configuration per axis.

    Args:
        axes: restrict the one-off grid to these axis names (baseline is
            always included). ``None`` = every known axis.

    Raises:
        ValueError: for unknown axis names.
    """
    selected = AXES if axes is None else tuple(axis(name) for name in axes)
    base = baseline_config()
    configs = [base]
    for ax in selected:
        configs.append(
            replace(
                base,
                run_id=f"no-{ax.name}",
                ablated_axis=ax.name,
                **{ax.name: ax.ablated},
            )
        )
    return tuple(configs)


def enumerate_pair_configs(
    pair_axes: tuple[str, ...],
) -> tuple[AblationConfig, ...]:
    """All pairwise ablations over ``pair_axes``: both axes flipped at once.

    Pairs are emitted in stable :data:`AXES` order with
    ``run_id="no-a+b"`` and ``ablated_axis="a+b"``. The interaction report
    (:func:`repro.ablation.report.rank_interactions`) compares each
    pair's joint slowdown against the product of its two one-off
    slowdowns, so the one-off runs for every named axis must be in the
    same grid.

    Raises:
        ValueError: unknown axis names, or fewer than two of them.
    """
    selected = [axis(name) for name in pair_axes]
    order = {ax.name: i for i, ax in enumerate(AXES)}
    selected.sort(key=lambda ax: order[ax.name])
    if len({ax.name for ax in selected}) < 2:
        raise ValueError("pairwise ablation needs at least two distinct axes")
    base = baseline_config()
    configs = []
    for i, ax_a in enumerate(selected):
        for ax_b in selected[i + 1 :]:
            if ax_a.name == ax_b.name:
                continue
            configs.append(
                replace(
                    base,
                    run_id=f"no-{ax_a.name}{PAIR_SEP}{ax_b.name}",
                    ablated_axis=f"{ax_a.name}{PAIR_SEP}{ax_b.name}",
                    **{ax_a.name: ax_a.ablated, ax_b.name: ax_b.ablated},
                )
            )
    return tuple(configs)


# ---------------------------------------------------------------------------
# Metric-name conformance model
# ---------------------------------------------------------------------------

#: Metric-name prefixes that are legitimately configuration-dependent:
#: they appear or disappear with a switch and are excluded from the
#: cross-config "identical core names" comparison (each is then checked
#: individually by :func:`expected_metric_markers`).
CONFIG_DEPENDENT_METRIC_PREFIXES: tuple[str, ...] = (
    "spmm.",
    "codecs.cache.",
    "kernels.",
    # Session warm-path metrics track whether steady-state reuse actually
    # happened: warm_calls/blocks_reused/out_buffer_reuses only exist
    # when both the session axis and a cache are on.
    "session.",
)


def core_metric_names(names: set[str] | frozenset[str]) -> frozenset[str]:
    """The configuration-independent subset of emitted metric names."""
    return frozenset(
        n for n in names if not n.startswith(CONFIG_DEPENDENT_METRIC_PREFIXES)
    )


def expected_metric_markers(config: AblationConfig) -> dict[str, bool]:
    """Metric names that must be present/absent for ``config``.

    Maps marker name -> expected presence. Catches a switch silently not
    taking effect (e.g. ``spmm_fusion`` falling back to k SpMVs would
    lose ``spmm.iterations``).
    """
    return {
        "spmm.iterations": config.spmm_fusion,
        "codecs.cache.hits": config.cache,
        # Every run routes through a session; warm calls only happen when
        # both session reuse and the decoded-block cache are on.
        "session.calls": True,
        "session.warm_calls": config.session and config.cache,
    }
