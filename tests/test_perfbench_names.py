"""The names that the benchmark in perfbench/ reaches in oemsim. perfbench
wraps them by name and changes nothing in the program, so a rename would
otherwise fail only when the benchmark runs. perfbench's files are read,
never written."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from _support import OMEGA_M, base_params
from oemsim import dynamics, model

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
OEMSIM_SPANS = [span for span in tracer.SPANS if span[0].split(".")[0] == "oemsim"]


def test_the_tracer_wraps_oemsim():
    assert len(OEMSIM_SPANS) >= 10


@pytest.mark.parametrize("module,path,name", OEMSIM_SPANS,
                         ids=[f"{m}.{p}" for m, p, _ in OEMSIM_SPANS])
def test_every_oemsim_span_resolves(module, path, name):
    # as Tracer.install finds what it wraps: a class attribute is the plain
    # function in the class's own namespace
    owner, attr = tracer._resolve(module, path)
    assert callable(tracer._raw(owner, attr))


def test_the_oracle_reads_the_single_point_path():
    # Oracle.build: replace, the working point, drift and diffusion, then
    # is_stable's stable and max_real_part, at a stable and an unstable point
    for delta_c, stable in ((OMEGA_M, True), (-OMEGA_M, False)):
        params = base_params().replace(delta_c=delta_c)
        a = dynamics.build_drift(params, model.solve_steady_state(params))
        d = dynamics.build_diffusion(params)
        report = dynamics.is_stable(a)
        assert a.shape == d.shape == (10, 10)
        assert report.stable is stable
        assert report.max_real_part == float(np.linalg.eigvals(a).real.max())
