"""Built-in figure presets at paper scale and desk scale.

``desk`` presets finish in under a minute each; ``paper`` presets use the
full matrix sizes and 1000 trials and take a few minutes each (README gives
the measured times). Every preset is a plain ExperimentConfig (or a
bound-sweep description for the closed-form figures), so any key can be
overridden with ``--set``. This module is the only definition of a figure
sweep.
"""

from dataclasses import dataclass, replace

from .errors import ConfigError
from .harness import ALGORITHMS, ExperimentConfig

SCALES = ("desk", "paper")

# Hybrid-matrix reconstruction needs ~40 dB before even oracle least squares
# on the true support meets a 5 percent error tolerance, so those grids run
# 20..60 dB. Gaussian figures use 0..30 dB.
GAUSS_GRID = tuple(float(v) for v in range(0, 31, 5))
HYBRID_GRID = tuple(float(v) for v in range(20, 61, 5))

OMEGA_GRID = tuple(round(1.0 + 0.15 * i, 4) for i in range(13))  # 1.0 .. 2.8

# Probability grid for the SNR-floor figure.
PMIN_GRID = tuple(round(0.90 + 0.01 * i, 2) for i in range(10))

# The paper's reported coherences at 1024x8192 and 2048x8192. They are not
# what gen_gaussian_normalized gives: i.i.d. unit columns measure about 0.17
# and 0.12 there. Used only by the closed-form sweeps (fig2a/fig2b).
REFERENCE_MUS = (0.135, 0.109)


@dataclass(frozen=True)
class BoundSweep:
    """Closed-form sweep description (no Monte Carlo trials)."""

    kind: str  # the `bounds --sweep` names: "k", "sv" or "pmin"
    m: int
    n: int  # read by "pmin" only
    mus: tuple[float, ...]
    rho: float
    k: int = 4
    k_range: tuple[int, int] = (1, 8)
    pmin_grid: tuple[float, ...] = PMIN_GRID


def _hybrid(m: int, n: int, k: int, seed: int, **keys) -> ExperimentConfig:
    return ExperimentConfig(
        family="hybrid", m=m, n=n, k=k, snr_grid_db=HYBRID_GRID,
        algorithms=ALGORITHMS, trials=300, base_seed=seed, **keys,
    )


# figure -> its desk-scale (label, ExperimentConfig) sweeps, or a BoundSweep for
# the closed-form figures. Figure 6 (MSE) has no preset of its own: fig5 writes
# it as ``<label>_mse.svg``.
FIGURES = {
    "fig2a": BoundSweep(kind="k", m=1024, n=8192, mus=REFERENCE_MUS, rho=0.15),
    "fig2b": BoundSweep(kind="pmin", m=1024, n=8192, mus=REFERENCE_MUS, rho=0.15, k=4),
    "fig3": [("fig3", ExperimentConfig(
        family="gaussian", m=256, n=512, k=4, snr_grid_db=GAUSS_GRID,
        algorithms=("bols", "ols"), trials=300, base_seed=310,
    ))],
    # The omega plateau needs the low-coherence 1024 x 2048 matrix, so desk
    # scale only reduces the trial count. SNR operating point: 20 dB.
    "fig4": [("fig4", ExperimentConfig(
        family="gaussian", m=1024, n=2048, k=4, snr_grid_db=(20.0,),
        algorithms=("bols", "ols"), trials=100, base_seed=410, omega_grid=OMEGA_GRID,
    ))],
    "fig5": [(f"fig5_k{k}", _hybrid(256, 512, k, 510 + k)) for k in (8, 12)],
    # At M=128 and rho=0.175 the probability ceiling is ~0.70, so the usual
    # p_min=0.95 has no solution; these presets target 0.68 instead.
    "fig7": [(label, _hybrid(128, n, 8, 710 + n, p_min=0.68))
             for label, n in (("fig7_a", 512), ("fig7_b", 256))],
}

# Paper scale runs every Monte Carlo figure at 1000 trials, and these at full size.
PAPER = {"fig3": {"m": 1024, "n": 2048}}


def figure_preset(figure: str, scale: str | None = None):
    """The sweeps of a named figure at a scale (None: desk), fresh on each call:
    ``FIGURES``'s, with 1000 trials and the figure's ``PAPER`` keys at paper scale."""
    scale = "desk" if scale is None else scale
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; use one of {SCALES}")
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure {figure!r}")
    preset = FIGURES[figure]
    if isinstance(preset, BoundSweep):
        return preset
    keys = {"trials": 1000, **PAPER.get(figure, {})} if scale == "paper" else {}
    return [(label, replace(config, **keys)) for label, config in preset]
