"""perfbench's span tracer around a tiny round of every traced entry point.

The tracer patches the package's entry points by name and reads some of
their arguments by name (``replicas``, ``n_steps``, ``X``, ``samples``), so a
renamed entry point or counted argument fails here, not only in a traced
benchmark run.  ``perfbench/tracing.py`` is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from smallmass import convergence, dynamics
from smallmass.models import ModelSpec, model_library

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for module_name, attr in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_a_tiny_round_is_traced_and_counted(tracing):
    # the interaction family at d = 2 reads the measure (pairwise friction)
    # and solves Lyapunov and Sylvester systems; its diagonal friction takes
    # the exponential rule's exponentials entrywise, so a constant friction
    # with an off-diagonal entry takes one exponential step through expm
    model = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 2}))
    dense = model_library(ModelSpec("constant", {"d": 2, "gamma0": [[2.0, 0.5], [0.0, 2.0]]}))
    start = dynamics.ParticleEnsembleFull(0.0, 0.05, np.zeros((3, 2)), np.ones((3, 2)))
    rule = convergence.DeltaRule(scheme="exponential", delta=0.0025)
    run_convergence = convergence.run_convergence
    tracer = tracing.Tracer()
    with tracer.installed():
        # through the modules, whose entry points the tracer has replaced
        convergence.run_convergence(
            model, [0.1, 0.05], T=0.02, n_particles=3, replicas=2, seed=1,
            delta_rule=rule, Delta=0.01, threads=1, validate=False,
        )
        dynamics.simulate_coupled(
            model, 0.05, T=0.02, delta=0.0025, Delta=0.01, n_particles=3, replica_id=0,
            seed=1, scheme="exponential", record_paths=True,
        )
        dynamics.run_limit_path(model, T=0.02, Delta=0.01, n_particles=3, replica_id=1, seed=1)
        dynamics.diagnostics_velocity(
            model, 0.05, T=0.01, delta=0.0025, replicas=2, seed=1, n_particles=3,
            scheme="exponential",
        )
        dynamics.step_full_exponential(start, dense, 0.0025, np.zeros((3, 2)))
    assert convergence.run_convergence is run_convergence   # the originals are back
    for name in ("run_convergence", "simulate_coupled", "run_limit_path",
                 "diagnostics_velocity"):
        assert tracer.calls[name] == 1, name
    for count in ("driver.streams", "models.pair_evals", "linalg.matrix_solves"):
        assert tracer.counts[count] > 0, count
    assert tracer.calls["expm"] > 0
