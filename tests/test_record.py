"""The frozen value types keep the record protocol: equality within one
class, the hash of the field tuple, read-only fields, the old reprs,
keyword construction with defaults, and their constructors' checks, under
``python -O`` as well."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from sl2bar.closure import ONE, ZERO, ClosureElt
from sl2bar.conway import ConwayTable
from sl2bar.endo import Entrywise, FieldEndo, InnerConj, InvTranspose, ReplayStep
from sl2bar.gf2_field import FieldElt
from sl2bar.gf2poly import Gf2Poly
from sl2bar.sl2_core import JordanClass, Mat2

_G = "ClosureElt(elt=FieldElt(level=2, mask=2))"
_ONE = "ClosureElt(elt=FieldElt(level=1, mask=1))"
_ZERO = "ClosureElt(elt=FieldElt(level=1, mask=0))"
_MAT = f"Mat2(a={_G}, b={_ONE}, c={_ZERO}, d=ClosureElt(elt=FieldElt(level=2, mask=3)))"


def _g():
    return ClosureElt(FieldElt(2, 2))


def _mat():
    return Mat2(_g(), ONE, ZERO, ClosureElt(FieldElt(2, 3)))


# (class, builder of a fresh instance, its field names, its field tuple,
# its repr); the builder runs twice, so the two instances are equal but
# not identical
CASES = [
    (Gf2Poly, lambda: Gf2Poly(0b111), "mask", lambda: (7,), "Gf2Poly(mask=7)"),
    (ConwayTable, lambda: ConwayTable((0x3, 0x7)), "polys", lambda: ((3, 7),), "ConwayTable(polys=(3, 7))"),
    (FieldElt, lambda: FieldElt(2, 3), "level mask", lambda: (2, 3), "FieldElt(level=2, mask=3)"),
    (ClosureElt, _g, "elt", lambda: (FieldElt(2, 2),), _G),
    (Mat2, _mat, "a b c d", lambda: _mat().entries(), _MAT),
    (JordanClass, lambda: JordanClass("split", _g()), "kind lam", lambda: ("split", _g()), f"JordanClass(kind='split', lam={_G})"),
    (FieldEndo, lambda: FieldEndo(2, 1), "level frob_power", lambda: (2, 1), "FieldEndo(level=2, frob_power=1)"),
    (Entrywise, lambda: Entrywise(FieldEndo(2, 1)), "endo", lambda: (FieldEndo(2, 1),), "Entrywise(endo=FieldEndo(level=2, frob_power=1))"),
    (InnerConj, lambda: InnerConj(_mat()), "mat", lambda: (_mat(),), f"InnerConj(mat={_MAT})"),
    (InvTranspose, InvTranspose, "", tuple, "InvTranspose()"),
    (ReplayStep, lambda: ReplayStep(8, "pass"), "id status witness", lambda: (8, "pass", None), "ReplayStep(id=8, status='pass', witness=None)"),
]


@pytest.mark.parametrize("cls, build, names, fields, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_types_keep_the_record_protocol(cls, build, names, fields, text):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields())
    assert len({a, b}) == 1
    assert repr(a) == text
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))
    for name in (*names.split(), "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    assert a != object() and not a == fields()


def test_equality_stays_within_one_class():
    assert FieldElt(1, 1) != ClosureElt(FieldElt(1, 1))
    assert ClosureElt(FieldElt(1, 1)) != FieldElt(1, 1)
    assert FieldEndo(2, 1) != Gf2Poly(2) and InvTranspose() == InvTranspose()
    assert ReplayStep(1, "pass") != ReplayStep(1, "pass", {})


def test_keyword_construction_and_defaults():
    assert FieldElt(level=2, mask=3) == FieldElt(2, 3)
    assert ClosureElt(elt=FieldElt(1, 1)) == ONE
    assert Mat2(a=ONE, b=ZERO, c=ZERO, d=ONE) == Mat2(ONE, ZERO, ZERO, ONE)
    assert JordanClass(kind="identity") == JordanClass("identity", None)
    assert ReplayStep(id=4, status="pass").witness is None
    assert FieldEndo(frob_power=0, level=3) == FieldEndo(3, 0)
    assert Gf2Poly(mask=2) == Gf2Poly(2) and ConwayTable(polys=(3,)) == ConwayTable((3,))
    with pytest.raises(TypeError):
        FieldElt(2)
    with pytest.raises(TypeError):
        JordanClass("identity", None, None)
    with pytest.raises(TypeError):
        InvTranspose(1)


# Each constructor check as (type name, message), in a fresh interpreter
# so that it can run under -O too.
_BAD_VALUES = """
import json
from sl2bar.closure import ONE, ZERO, ClosureElt
from sl2bar.endo import FieldEndo, InnerConj
from sl2bar.gf2_field import FieldElt
from sl2bar.gf2poly import Gf2Poly
from sl2bar.sl2_core import Mat2

g = ClosureElt(FieldElt(2, 2))
out = []
for build in (
    lambda: FieldElt(2, 4),
    lambda: FieldElt(31, 0),
    lambda: Gf2Poly(0),
    lambda: FieldEndo(2, 2),
    lambda: InnerConj(Mat2(g, ZERO, ZERO, ONE)),
):
    try:
        build()
        out.append(None)
    except Exception as exc:
        out.append([type(exc).__name__, str(exc)])
print(json.dumps(out))
"""

_BAD_EXPECTED = [
    ["ValueError", "mask 0x4 out of range for level 2"],
    ["BoundExceeded", "level 31 outside the supported range 1..30"],
    ["ValueError", "Gf2Poly mask must be a positive integer"],
    ["ValueError", "frobenius power 2 outside 0..1"],
    ["PreconditionError", "inner conjugator [[0x2@2,0x0@1],[0x0@1,0x1@1]] must have determinant one"],
]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_constructor_checks_survive_optimization(flags):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, *flags, "-c", _BAD_VALUES], env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == _BAD_EXPECTED
