"""Shared fixtures and builders for the test suite."""

import re

import numpy as np
import pytest

from risknet.field import GridSpec
from risknet.scene import CAR, CAR_EXTENT, AgentState, scenario_from_states


def make_state(agent_id=0, frame=0, position=(0.0, 0.0), velocity=(0.0, 0.0),
               acceleration=(0.0, 0.0), extent=CAR_EXTENT, mass=1500.0,
               kind=CAR):
    return AgentState(
        agent_id=agent_id, frame=frame,
        position=np.asarray(position, float),
        velocity=np.asarray(velocity, float),
        acceleration=np.asarray(acceleration, float),
        extent=extent, mass=mass, kind=kind,
    )


def constant_velocity_scenario(specs, n_frames=20, frame_rate=25.0):
    """Scenario of straight-line tracks; specs = [(id, x0, y0, vx, vy)]."""
    dt = 1.0 / frame_rate
    states = []
    for aid, x0, y0, vx, vy in specs:
        for f in range(n_frames):
            states.append(make_state(
                aid, f, (x0 + vx * f * dt, y0 + vy * f * dt), (vx, vy)))
    return scenario_from_states(states, frame_rate)


def dense_scenario():
    """Nine agents around the probe of ``dense_raster``: slow, standing,
    head-on, faster than wave_speed, on the Doppler pole, and some beyond
    the interaction radius of part of the grid."""
    return constant_velocity_scenario(
        [(1, 10, 3, 20, 0), (2, 25, -2, 15, 1), (3, -30, 4, 33, 0),
         (4, 40, -6, -28, 0.5), (5, 5, 8, 0.05, 0.02), (6, 35, 0, 30, 0),
         (7, -40, 1, 22, -1), (8, 120, 3, 25, 0), (9, 15, 0, 0, 0)],
        n_frames=3)


def dense_raster():
    """Probe and grid for ``dense_scenario`` at frame 1."""
    probe = make_state(0, 1, (0.0, 0.0), (25.0, 0.0))
    return probe, GridSpec(origin=(-30.0, -12.0), cell=6.0, width=14,
                           height=5)


@pytest.fixture
def state_builder():
    return make_state


# ---- acceptance criterion summary ----

_CRITERION_RESULTS = {}
_CRITERION_PATTERN = re.compile(r"test_criterion_(\d+)_")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    match = _CRITERION_PATTERN.match(item.name)
    if not match:
        return
    doc = (item.function.__doc__ or "").strip().splitlines()
    description = doc[0] if doc else item.name
    _CRITERION_RESULTS[int(match.group(1))] = (description, report.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_RESULTS):
        description, passed = _CRITERION_RESULTS[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"CRITERION {number} {status}: {description}"
        )
