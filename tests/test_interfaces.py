"""Interface-parity checks: wrappers, serialization, evaluation points."""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from qcpn.ncpoly import NCPoly
from qcpn.parser import parse_expr
from qcpn.projections import projection
from qcpn.qcoeff import QPoint, eval_at, qint
from qcpn.suq2 import (
    GammaModule,
    IndexChainData,
    SUq2Box,
    index_chain_data,
    laction,
    leftreg,
)


def test_qpoint_validation():
    QPoint(0.5)
    QPoint(1.0)
    with pytest.raises(ValueError):
        QPoint(0.0)
    with pytest.raises(ValueError):
        QPoint(1.5)


def test_eval_at():
    assert eval_at(qint(2), QPoint(0.5)) == pytest.approx(2.5)
    assert eval_at(qint(2), 0.5) == pytest.approx(2.5)
    # q0 = 1 evaluates through the exact limit
    assert eval_at(qint(7), QPoint(1.0)) == 7.0


def test_matrix_json_round_trip():
    """Core entries and weights parse back; at |N| = 3, n = 2 a weight is [3]! = q^3 + 2 q + 2 q^-1 + q^-3."""
    for N, n in ((-2, 1), (3, 2)):
        M = projection(N, n)
        payload = json.loads(M.to_json())
        assert payload["N"] == N and payload["n"] == n
        assert payload["indices"] == [list(J) for J in M.indices]
        for i, row in enumerate(payload["core"]):
            for j, txt in enumerate(row):
                assert parse_expr(txt, n) == M.core[i][j]
        for u_txt, u in zip(payload["weights"], M.weights):
            assert u_txt == str(u)
            assert parse_expr(u_txt, n) == NCPoly.scalar(u)
    assert "q^3 + 2 q^1 + 2 q^-1 + q^-3" in payload["weights"]


def test_leftreg_laction_wrappers():
    mat = leftreg("A", 4, 0.5)
    assert mat.shape[0] == mat.shape[1] > 0
    for x in ("E", "F", "K"):
        assert laction(x, 4, 0.5).shape == mat.shape
    with pytest.raises(ValueError):
        leftreg("nope", 4, 0.5)


def test_gamma_module_type():
    box = SUq2Box(6, 0.5)
    gm = GammaModule(-2, box)
    mults = gm.decomposition_multiplicities()
    # one copy of each V_{2l} with 2l >= |N|, (2l - |N|) even
    assert set(mults.values()) == {1}
    assert sorted(mults) == list(range(2, 2 * box.L + 1, 2))
    assert min(mults) >= abs(gm.N)


def test_index_chain_data_rank_one_exact():
    for l2 in range(1, 10):
        for n2 in range(-l2 + 1, l2, 2):
            if n2 % 2 == 0:
                continue
            d = index_chain_data(l2, n2)
            assert isinstance(d, IndexChainData)
            assert d.rank_one()
            # trace of the 2x2 projection is 1
            from qcpn.qcoeff import ONE

            assert d.p11 + d.p22 == ONE


def test_benchmark_tracer_wraps_existing_names(monkeypatch):
    """The benchmark's tracer (perfbench/tracing.py) installs on the package as it is and traces one job.

    ``Tracer.install`` looks up every function, method and cache it wraps by
    name, so renaming one (``SUq2Box._build``, ``SpectralTriple.real_structure``,
    ``FockRep.poly``, ``Presentation._push_cache``, ...) fails here.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is: no __pycache__
    spec.loader.exec_module(tracing)
    for name in tracing.QCPN_MODULES:
        importlib.import_module(name)
    from qcpn import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["normalize", "z1 z0 - q z0 z1", "--n", "1"]) == 0
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert out.getvalue().strip() == "0"
    assert {"main", "parse_expr"} <= {span[3] for span in tracer.spans}
    assert tracer.counts["ncpoly.cache_entries"] > 0
    assert set(tracer.metrics()) >= {"qcoeff.calls", "suq2.operator_nnz", "cli.calls"}
