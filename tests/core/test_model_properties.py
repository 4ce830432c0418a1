"""Property-based tests for the utility analytic model."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.inputs import ModelInputs, ResourceKind, ServiceSpec
from repro.core.model import UtilityAnalyticModel
from repro.queueing.erlang import erlang_b

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO

rates = st.floats(min_value=0.1, max_value=5000.0, allow_nan=False)
mus = st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False)
impacts = st.floats(min_value=0.1, max_value=2.0, allow_nan=False)
targets = st.floats(min_value=1e-4, max_value=0.2)


@st.composite
def service_specs(draw, name="svc"):
    lam = draw(rates)
    mu_cpu = draw(mus)
    a_cpu = draw(impacts)
    has_disk = draw(st.booleans())
    service_rates = {CPU: mu_cpu}
    impacts_map = {CPU: a_cpu}
    if has_disk:
        service_rates[DISK] = draw(mus)
        impacts_map[DISK] = draw(impacts)
    return ServiceSpec(name, lam, service_rates, impacts_map)


@st.composite
def model_inputs(draw, max_services=4):
    n = draw(st.integers(min_value=1, max_value=max_services))
    services = tuple(draw(service_specs(name=f"svc{i}")) for i in range(n))
    return ModelInputs(services, draw(targets))


def scaled_workloads(inputs, factor):
    """``inputs`` with every arrival rate multiplied by ``factor``."""
    services = tuple(s.with_arrival_rate(s.arrival_rate * factor) for s in inputs.services)
    return ModelInputs(services, inputs.loss_probability)


def achieved_blocking(sizing):
    """Blocking on each resource of a dedicated island at its server count."""
    return {k: erlang_b(sizing.servers, rho) for k, rho in sizing.per_resource_load.items()}


@settings(max_examples=60, deadline=None)
@given(model_inputs())
def test_solution_meets_loss_target_everywhere(inputs):
    sol = UtilityAnalyticModel(inputs).solve()
    b = inputs.loss_probability
    for sizing in sol.dedicated:
        for blocking in achieved_blocking(sizing).values():
            assert blocking <= b + 1e-12
    n = sol.consolidated_servers
    for rho in sol.consolidated_load.values():
        assert erlang_b(n, rho) <= b + 1e-12


@settings(max_examples=60, deadline=None)
@given(model_inputs())
def test_sizings_are_minimal(inputs):
    sol = UtilityAnalyticModel(inputs).solve()
    b = inputs.loss_probability
    # One fewer consolidated server must violate the target on some resource
    # (unless N is 0, meaning no load at all).
    n = sol.consolidated_servers
    if n > 0:
        assert any(erlang_b(n - 1, rho) > b for rho in sol.consolidated_load.values())


@settings(max_examples=60, deadline=None)
@given(model_inputs(), st.floats(min_value=1.1, max_value=3.0))
def test_more_workload_never_fewer_servers(inputs, factor):
    sol1 = UtilityAnalyticModel(inputs).solve()
    sol2 = UtilityAnalyticModel(scaled_workloads(inputs, factor)).solve()
    assert sol2.dedicated_servers >= sol1.dedicated_servers
    assert sol2.consolidated_servers >= sol1.consolidated_servers


@settings(max_examples=60, deadline=None)
@given(model_inputs())
def test_offered_mode_dominates_paper_mode(inputs):
    paper = UtilityAnalyticModel(inputs, load_model="paper").solve()
    offered = UtilityAnalyticModel(inputs, load_model="offered").solve()
    assert offered.consolidated_servers >= paper.consolidated_servers


@settings(max_examples=60, deadline=None)
@given(model_inputs())
def test_ideal_virtualization_with_offered_load_never_exceeds_m(inputs):
    # With a = 1 and the conservative offered load, pooling cannot need more
    # machines than dedication: the consolidated offered load on each
    # resource is exactly the sum of island loads, and Erlang-B server
    # counts are subadditive under load pooling.
    ideal = inputs.without_virtualization_overhead()
    sol = UtilityAnalyticModel(ideal, load_model="offered").solve()
    assert sol.consolidated_servers <= sol.dedicated_servers


@settings(max_examples=40, deadline=None)
@given(service_specs(), targets)
def test_single_service_ideal_consolidation_identity(spec, b):
    ideal = spec.without_virtualization_overhead()
    inputs = ModelInputs((ideal,), b)
    sol = UtilityAnalyticModel(inputs, load_model="offered").solve()
    assert sol.consolidated_servers == sol.dedicated_servers


@settings(max_examples=40, deadline=None)
@given(model_inputs(), st.floats(min_value=0.1, max_value=0.9))
def test_stricter_target_needs_no_fewer_servers(inputs, shrink):
    stricter = inputs.with_loss_probability(inputs.loss_probability * shrink)
    sol1 = UtilityAnalyticModel(inputs).solve()
    sol2 = UtilityAnalyticModel(stricter).solve()
    assert sol2.dedicated_servers >= sol1.dedicated_servers
    assert sol2.consolidated_servers >= sol1.consolidated_servers
