import pytest

from pouwsim.netsim import ScenarioResult, run_scenario
from pouwsim.scenario import load_bundled_scenario
from pouwsim.work import ConfigFlag, SimulationParameters


def make_parameters(
    work_seed: int,
    *,
    n_events: int,
    beam_energy: float,
    energy_cut: float,
    n_layers: int,
    n_configs: int,
    smear_sigma: float,
    split_scale: float,
) -> SimulationParameters:
    """Validated parameters with ``n_configs`` identical-knob configurations;
    the tests' shorthand, as a run builds its own configs tuple."""
    configs = tuple(ConfigFlag(i, smear_sigma, split_scale) for i in range(n_configs))
    params = SimulationParameters(work_seed, n_events, beam_energy, energy_cut, n_layers, configs)
    params.validate()
    return params


class ScenarioCache:
    """Run each bundled scenario at most once per session; several test
    modules assert different properties of the same runs."""

    def __init__(self) -> None:
        self._runs: dict[str, ScenarioResult] = {}

    def get(self, name: str) -> ScenarioResult:
        if name not in self._runs:
            self._runs[name] = run_scenario(load_bundled_scenario(name))
        return self._runs[name]


@pytest.fixture(scope="session")
def scenarios() -> ScenarioCache:
    return ScenarioCache()
