"""Result types: how the library and its callers build and read them, and the start-up
cost they keep out of ``import axialq.cli``.

Immutable results are named tuples; ``Report``, which ``run_command`` fills in, and
``PairIdentityReport``, which callers read with ``vars``, are plain classes.
"""

import inspect
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import axialq
from axialq.axial import AxisReport, EigDecomposition, FusionReport, eigendecompose
from axialq.constructions import MatsuoInput, Permutation
from axialq.exactla import SubspaceBasis
from axialq.fileio import AlgebraFile, Report
from axialq.jordanhalf import (
    CapacityResult,
    ChainLink,
    PairDecomposition,
    PairIdentityReport,
    SpecialChain,
    TripleFormResult,
    pair_identity_suite,
)

from conftest import by_name

F = Fraction


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Generating code for result classes was a third of the import; nothing brings the
    modules that did it back.  -S keeps site-wide start-up hooks out of the check."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(axialq.__file__).parents[1]))
    code = ("import sys, axialq.cli; "
            "print(sorted({'dataclasses', 'inspect'}.intersection(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _cases():
    """(type, positional arguments) as the library builds each result."""
    A = by_name("matsuo_s4").A
    a, b = A.designated_axes[:2]
    dec = eigendecompose(a)
    span = SubspaceBasis(A.dim, [a.coords])
    t12, t23 = Permutation.transposition(3, 1, 2), Permutation.transposition(3, 2, 3)
    return [
        (EigDecomposition, tuple(dec)),
        (AxisReport, (True, True, True, True, False, None)),
        (FusionReport, (True, False, True, True)),
        (MatsuoInput, (3, (t12, t23))),
        (AlgebraFile, ("s4", A, None)),
        (PairDecomposition, (a, b, F(1, 4), a, b)),
        (TripleFormResult, (F(1, 3), F(1, 3))),
        (CapacityResult, ((a, b), ((a, (b,)), (b, ())))),
        (ChainLink, (span, a)),
        (SpecialChain, ((ChainLink(span, a), ChainLink(span, None)),)),
        (PairIdentityReport, (F(1, 4), False) + (True,) * 8 + (False,)),
    ]


@pytest.mark.parametrize("cls, args", _cases(), ids=[cls.__name__ for cls, _ in _cases()])
def test_result_type_contract(cls, args):
    names = list(inspect.signature(cls).parameters)
    assert len(names) == len(args)
    x, y = cls(*args), cls(**dict(zip(names, args)))
    assert [getattr(x, n) for n in names] == list(args)
    assert x == y and not x != y and x != object()
    if cls is not EigDecomposition:  # its eigenvectors are lists: unhashable, as before
        assert hash(x) == hash(y)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(x, n, getattr(x, n))


def test_named_tuple_results():
    args = _cases()[0][1]
    dec = EigDecomposition(*args)
    assert tuple(dec) == args and dec == args
    assert dec._replace(s=2 * dec.s).s == 2 * dec.s
    assert repr(dec).startswith("EigDecomposition(axis=")
    assert all(f" {n}=" not in repr(dec) for n in ("s", "cols", "sparse"))
    assert FusionReport(True, True, True, True).all_ok
    assert not FusionReport(True, True, False, True).all_ok
    assert AxisReport(True, True, True, True, False, dec).is_primitive_axis
    assert TripleFormResult(F(1), F(1)).equal and not TripleFormResult(F(1), F(2)).equal
    assert CapacityResult((dec.axis,) * 3, ()).capacity == 3
    span = SubspaceBasis(2, [[1, 0]])
    assert SpecialChain((ChainLink(span, None),) * 2).dims == [1, 1]


def test_pair_identity_report_fields():
    """The 11 fields, and nothing else, in ``vars``: the values that callers hash."""
    info = by_name("matsuo_s4")
    a, b = info.A.designated_axes[:2]
    flags = ["product_contractions", "zero_component_square", "half_component_square",
             "mixed_component_product", "x_idempotent", "x_norm_one", "pair_unit",
             "zero_product_zero_form", "a0_meets_bhalf_trivially"]
    rep = pair_identity_suite(a, b, info.g)
    assert vars(rep) == {"alpha": F(1, 4), "vacuous": False, **dict.fromkeys(flags, True)}
    assert list(vars(rep)) == ["alpha", "vacuous", *flags] and rep.all_ok
    m3 = by_name("m3")
    a = m3.A.designated_axes[0]
    assert vars(pair_identity_suite(a, a, m3.g)) == {"alpha": F(1), "vacuous": True,
                                                      **dict.fromkeys(flags, True)}
    with pytest.raises(AttributeError):
        del rep.alpha
    assert rep != PairIdentityReport(F(1, 4), False, *[True] * 8, False)
    assert repr(rep).startswith("PairIdentityReport(alpha=Fraction(1, 4), vacuous=False")


def test_report_is_mutable_with_fresh_defaults():
    r, s = Report("analyze"), Report(command="analyze", inputs={}, findings={},
                                     status="pass", message="")
    assert r == s and r.findings is not s.findings and r.inputs is not s.inputs
    assert Report("construct", {"kind": "spin"}, {}, "fail", "m").inputs == {"kind": "spin"}
    r.findings["dim"] = 3
    r.status = "fail"
    assert r != s and (r.status, r.findings) == ("fail", {"dim": 3})
    assert repr(s) == "Report(command='analyze', inputs={}, findings={}, status='pass', message='')"
    with pytest.raises(TypeError):
        hash(r)
