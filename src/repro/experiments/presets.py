"""Named experiment presets.

A preset is a fully-resolved :class:`ExperimentConfig` -- the same
recipe every time, whether reached via ``--preset smoke`` on the CLI,
``get_preset("smoke")`` in a script, or a saved JSON config that
started life as one.

- ``smoke`` -- the CI-sized closed loop (``repro cosim sweep
  --smoke`` is shorthand for it): synthetic per-token costs
  and a small DRAM config tuned so memory saturates within ~100k DRAM
  requests per serving run, decode-heavy token mix, 16-expert replay
  geometry, three-point rate grid ending past saturation.
- ``decode_heavy`` -- ``smoke`` under the continuous-batching engine,
  where amortized weight streaming separates from fifo at the
  saturating grid point.
- ``cluster_smoke`` -- ``smoke`` lifted to cluster mode: 1-vs-2
  replicas x {replicated, expert_parallel} on 2 NDP devices per
  replica, with a nonzero activation payload so expert-parallel pays
  visible PCIe round trips.

Every named traffic scenario (:data:`repro.traffic.SCENARIOS`) is
also registered here under its own name -- ``diurnal``,
``flash_crowd``, ``multi_tenant``, ``popularity_drift``,
``flash_crowd_smoke`` -- so the scenario zoo is reachable through the
same ``--preset`` flag and ``get_preset`` call as the hand-written
presets.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.config import ClusterConfig
from repro.experiments.config import (
    CostConfig,
    ExperimentConfig,
    LoopConfig,
    ReplayConfig,
    ServingConfig,
)


def _smoke() -> ExperimentConfig:
    return ExperimentConfig(
        mode="cosim",
        scheme="md+lb",
        seed=1,
        n_requests=60,
        rates=(1e5, 1e6, 4e6),
        cost=CostConfig(encode_us=0.002, decode_us=0.02),
        replay=ReplayConfig(
            dram="small",
            bytes_per_token=8192,
            max_blocks_per_request=1024,
            n_experts=16,
            top_k=2,
            n_moe_layers=2,
            expert_bytes=1 << 18,
        ),
        serving=ServingConfig(mean_prompt_tokens=8, mean_decode_tokens=24),
        # The saturating grid point needs ~12 bisection iterations.
        loop=LoopConfig(max_iterations=16),
    )


def _decode_heavy() -> ExperimentConfig:
    base = _smoke()
    return replace(base, serving=replace(base.serving, engine="batching"))


def _cluster_smoke() -> ExperimentConfig:
    return replace(
        _smoke(),
        mode="cluster",
        cluster=ClusterConfig(
            replicas=(1, 2),
            devices_per_replica=2,
            policies=("replicated", "expert_parallel"),
            balancer="round_robin",
            activation_bytes_per_token=512,
        ),
    )


_PRESETS = {
    "smoke": _smoke,
    "decode_heavy": _decode_heavy,
    "cluster_smoke": _cluster_smoke,
}

from repro.traffic.scenarios import SCENARIOS as _TRAFFIC_SCENARIOS  # noqa: E402

_collisions = set(_PRESETS) & set(_TRAFFIC_SCENARIOS)
if _collisions:  # pragma: no cover - registry bug, caught at import
    raise RuntimeError(f"traffic scenarios shadow presets: {sorted(_collisions)}")
_PRESETS.update(
    {name: scenario.experiment for name, scenario in _TRAFFIC_SCENARIOS.items()}
)

PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str) -> ExperimentConfig:
    """A fresh :class:`ExperimentConfig` for a preset name."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {PRESET_NAMES}"
        ) from None
    return factory()
