import re
from pathlib import Path

import pytest

from sparsense.errors import ConfigError
from sparsense.harness import config_from_mapping, parse_config_text
from sparsense.presets import FIGURES, SCALES, BoundSweep, figure_preset

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("figure", FIGURES)
def test_every_figure_builds_and_validates(figure, scale):
    preset = figure_preset(figure, scale)
    if isinstance(preset, BoundSweep):
        return
    labels = [label for label, _ in preset]
    assert len(set(labels)) == len(labels) and all(label.startswith(figure) for label in labels)
    for _, config in preset:
        assert config.validate() is config


@pytest.mark.parametrize("figure", ["fig3", "fig4"])
def test_paper_scale_gaussian_figures_are_full_size(figure):
    [(_, config)] = figure_preset(figure, "paper")
    assert (config.m, config.n, config.trials) == (1024, 2048, 1000)


@pytest.mark.parametrize("figure", FIGURES)
def test_no_scale_means_desk(figure):
    assert figure_preset(figure, None) == figure_preset(figure) == figure_preset(figure, "desk")


def test_unknown_figure_or_scale_is_a_config_error():
    with pytest.raises(ConfigError, match="figure"):
        figure_preset("fig6", "desk")
    with pytest.raises(ConfigError, match="scale"):
        figure_preset("fig3", "huge")


def test_readme_example_config_is_the_fig3_desk_preset():
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    [(_, preset)] = figure_preset("fig3", "desk")
    assert config_from_mapping(parse_config_text(block)["fig3"]) == preset
