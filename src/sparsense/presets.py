"""Built-in figure presets at paper scale and desk scale.

``desk`` presets finish in under a minute each; ``paper`` presets use the
full matrix sizes and 1000 trials and take a few minutes each (README gives
the measured times). Every preset is a plain ExperimentConfig (or a
bound-sweep description for the closed-form figures), so any key can be
overridden with ``--set``. This module is the only definition of a figure
sweep.
"""

from dataclasses import dataclass

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


def _fig3(scale: str) -> ExperimentConfig:
    m, n, trials = (1024, 2048, 1000) if scale == "paper" else (256, 512, 300)
    return ExperimentConfig(
        family="gaussian", m=m, n=n, k=4, snr_grid_db=GAUSS_GRID,
        algorithms=("bols", "ols"), trials=trials, base_seed=310,
    )


def _fig4(scale: str) -> ExperimentConfig:
    # The omega plateau needs the low-coherence 1024 x 2048 matrix, so desk
    # scale only reduces the trial count. SNR operating point: 20 dB.
    trials = 1000 if scale == "paper" else 100
    return ExperimentConfig(
        family="gaussian", m=1024, n=2048, k=4, snr_grid_db=(20.0,),
        algorithms=("bols", "ols"), trials=trials, base_seed=410,
        omega_grid=OMEGA_GRID,
    )


def _fig5(scale: str, k: int) -> ExperimentConfig:
    trials = 1000 if scale == "paper" else 300
    return ExperimentConfig(
        family="hybrid", m=256, n=512, k=k, snr_grid_db=HYBRID_GRID,
        algorithms=ALGORITHMS, trials=trials, base_seed=510 + k,
    )


def _fig7(scale: str, n: int) -> ExperimentConfig:
    # At M=128 and rho=0.175 the probability ceiling is ~0.70, so the usual
    # p_min=0.95 has no solution; these presets target 0.68 instead.
    trials = 1000 if scale == "paper" else 300
    return ExperimentConfig(
        family="hybrid", m=128, n=n, k=8, snr_grid_db=HYBRID_GRID,
        algorithms=ALGORITHMS, trials=trials, base_seed=710 + n, p_min=0.68,
    )


# figure -> builder(scale): a list of (label, ExperimentConfig) sweeps, or a
# BoundSweep for the closed-form figures. Figure 6 (MSE) has no preset of its
# own: fig5 writes it as ``<label>_mse.svg``.
FIGURES = {
    "fig2a": lambda scale: BoundSweep(
        kind="k", m=1024, n=8192, mus=REFERENCE_MUS, rho=0.15),
    "fig2b": lambda scale: BoundSweep(
        kind="pmin", m=1024, n=8192, mus=REFERENCE_MUS, rho=0.15, k=4),
    "fig3": lambda scale: [("fig3", _fig3(scale))],
    "fig4": lambda scale: [("fig4", _fig4(scale))],
    "fig5": lambda scale: [("fig5_k8", _fig5(scale, 8)), ("fig5_k12", _fig5(scale, 12))],
    "fig7": lambda scale: [("fig7_a", _fig7(scale, 512)), ("fig7_b", _fig7(scale, 256))],
}


def figure_preset(figure: str, scale: str | None = None):
    """The sweeps of a named figure at a scale (None: desk), as ``FIGURES``
    builds them."""
    scale = "desk" if scale is None else scale
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; use one of {SCALES}")
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure {figure!r}")
    return FIGURES[figure](scale)
