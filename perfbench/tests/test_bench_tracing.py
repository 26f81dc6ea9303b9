import sys
from collections import Counter

import numpy as np
import pytest

import logstab
from logstab import Domain, NormKind, SamplingPlan, SystemSpec

from tracing import MEASURED_BY_RUN, PER_LAYER_UNITS, Tracer, layer_metrics, outermost_total, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 2],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 5.0, 0],
        ["c", 3.0, 8.0, 0],  # overlaps b: the union [1, 8] is covered once
        ["e", 9.0, 12.0, 0],  # runs past the parent: only [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_outermost_total_does_not_count_recursion_twice():
    spans = [
        ["f", 0.0, 4.0, -1],
        ["f", 1.0, 3.0, 0],
        ["g", 5.0, 6.0, -1],
        ["f", 5.5, 6.0, 2],
    ]
    assert outermost_total(spans, "f") == pytest.approx(4.5)


def test_error_is_charged_to_the_module_it_left_first():
    tracer = Tracer()

    def inner():
        raise ValueError("boom")

    wrapped_inner = tracer.wrap("lognorm.inner", inner)
    wrapped_outer = tracer.wrap("certify.outer", lambda: wrapped_inner())
    with pytest.raises(ValueError):
        wrapped_outer()
    assert tracer.counts["lognorm.errors"] == 1
    assert tracer.counts["certify.errors"] == 0
    assert [s[0] for s in tracer.spans] == ["certify.outer", "lognorm.inner"]
    assert tracer.spans[1][3] == 0


def _sweep_args(n_space=9, n_time=3):
    system = SystemSpec(dim=1, f=lambda x, t: -x, jac=lambda x, t: np.array([[-1.0 - t]]))
    domain = Domain(np.array([-1.0]), np.array([1.0]), 0.0, 1.0)
    return system, domain, NormKind.l2(), SamplingPlan(n_space=n_space, n_time=n_time)


@pytest.mark.parametrize("entry", ["package", "module"])
def test_sweep_of_k_samples_records_k_log_norm_spans(entry):
    k = 9 * 3
    original = sys.modules["logstab.lognorm"].log_norm
    tracer = Tracer()
    with tracer:
        system, domain, kind, plan = _sweep_args()
        sweep = logstab.estimate_contraction_rate if entry == "package" else sys.modules["logstab.certify"].estimate_contraction_rate
        cert = sweep(system, domain, kind, plan)
    names = [s[0] for s in tracer.spans]
    assert cert.n_samples == k
    assert names.count("lognorm.log_norm") == k
    assert names.count("system.jacobian") == k
    assert names.count("certify.estimate_contraction_rate") == 1
    assert tracer.counts["certify.samples"] == k
    assert tracer.counts["system.jac_evals"] == k
    # every binding site is restored
    assert sys.modules["logstab.lognorm"].log_norm is original
    assert sys.modules["logstab.certify"].log_norm is original
    assert logstab.log_norm is original


def test_untraced_calls_leave_no_spans():
    tracer = Tracer()
    with tracer:
        pass
    logstab.estimate_contraction_rate(*_sweep_args())
    assert tracer.spans == []


def test_layer_metrics_reports_every_name_per_pass():
    tracer = Tracer()
    with tracer:
        for _ in range(2):
            logstab.estimate_contraction_rate(*_sweep_args())
    values = layer_metrics(tracer.spans, tracer.counts, passes=2)
    assert set(values) == set(PER_LAYER_UNITS) - set(MEASURED_BY_RUN)
    assert values["lognorm.log_norm.calls"] == 27
    assert values["certify.samples"] == 27
    assert values["integrate.steps_accepted"] == 0
    assert values["lognorm.log_norm.self_s"] > 0.0


def test_integrations_per_pair_counts_both_trajectories():
    pairs = [(np.array([1.0]), np.array([2.0])), (np.array([0.5]), np.array([-0.5]))]
    tracer = Tracer()
    with tracer:  # callables are counted for systems built while tracing
        system = SystemSpec(dim=1, f=lambda x, t: -x, jac=lambda x, t: np.array([[-1.0]]))
        rep = logstab.verify_incremental_bound(system, pairs, 0.0, 1.0, 0.5)
    values = layer_metrics(tracer.spans, tracer.counts)
    assert rep.passed
    assert values["certify.integrations_per_pair"] == 2.0
    assert values["integrate.integrate.calls"] == 4
    assert values["integrate.steps_accepted"] > 0
    assert 0.0 < values["integrate.accept_ratio"] <= 1.0
    assert values["system.f_evals"] > values["integrate.steps_accepted"]


@pytest.mark.parametrize("name", ["linalg.qr.calls", "integrate.steps_total"])
def test_layer_metrics_refuses_a_name_it_cannot_compute(monkeypatch, name):
    import tracing

    monkeypatch.setitem(tracing.PER_LAYER_UNITS, name, "count")
    with pytest.raises(ValueError, match=name):
        layer_metrics([], Counter())
