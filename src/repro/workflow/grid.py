"""Study layouts (the Snakemake-configuration substitute).

The paper's systematic studies are grids of Melissa run configurations: one
axis varies (model size, or one Breed hyper-parameter) while everything else
stays fixed (Table 1).  :func:`one_factor_at_a_time` builds that "vary one
knob, fix the rest" layout.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

__all__ = ["one_factor_at_a_time"]


def one_factor_at_a_time(
    base: Mapping[str, Any],
    factors: Mapping[str, Sequence[Any]],
) -> List[Dict[str, Any]]:
    """Expand a one-factor-at-a-time study.

    For every factor, every one of its values produces a configuration where
    the remaining parameters keep their ``base`` value.  Each configuration is
    tagged with ``_factor`` / ``_value`` so result tables can be grouped per
    sub-plot exactly like Figure 3b.
    """
    configs: List[Dict[str, Any]] = []
    for factor, values in factors.items():
        if factor not in base:
            raise KeyError(f"factor {factor!r} has no base value")
        if len(values) == 0:
            raise ValueError(f"factor {factor!r} has no values")
        for value in values:
            config = dict(base)
            config[factor] = value
            config["_factor"] = factor
            config["_value"] = value
            configs.append(config)
    return configs
