"""Endomorphism families and the replay."""

import hashlib
import json
import random

import numpy as np
import pytest

from sl2bar import endo, finite_engine as fe, sl2_core, verify
from sl2bar.closure import ONE, ZERO, celt, cinv
from sl2bar.endo import (
    Entrywise,
    FieldEndo,
    InnerConj,
    InvTranspose,
    _base_perm,
    apply_group_endo,
    field_endos,
    replay_cohopf_skeleton,
    replay_family,
    spec_str,
)
from sl2bar.errors import (
    BoundExceeded,
    LevelMismatch,
    NoPrimitiveCubeRoot,
    PreconditionError,
)
from sl2bar.gf2_field import FieldElt, gen, power
from sl2bar.sl2_core import SWAP, Mat2, diag_mat, mat_from_masks, mmul, random_sl2_masks, upper_uni

G2 = celt(2, 2)


def _apply_word(parts, M):
    # the scalar image of M under base maps applied left to right
    for part in parts:
        M = apply_group_endo(part, M)
    return M


def test_field_endos_examples():
    assert [e.frob_power for e in field_endos(1)] == [0]
    two = field_endos(2)
    assert len(two) == 2
    assert power(gen(2), 1 << two[1].frob_power) == FieldElt(2, 3)  # squaring moves g
    assert power(gen(2), 1 << two[0].frob_power) == gen(2)
    with pytest.raises(BoundExceeded):
        field_endos(21)


def test_apply_group_endo_examples():
    D = diag_mat(G2, cinv(G2))
    ident = Entrywise(FieldEndo(2, 0))
    assert apply_group_endo(ident, D) == D
    squaring = Entrywise(FieldEndo(2, 1))
    assert apply_group_endo(squaring, D) == diag_mat(cinv(G2), G2)
    lower = Mat2(ONE, ZERO, ONE, ONE)
    assert apply_group_endo(InvTranspose(), upper_uni(ONE)) == lower
    inner = InnerConj(SWAP)
    assert apply_group_endo(inner, upper_uni(ONE)) == lower
    assert _apply_word((squaring, InvTranspose()), D) == diag_mat(G2, cinv(G2))
    with pytest.raises(PreconditionError):
        InnerConj(diag_mat(G2, G2))
    with pytest.raises(LevelMismatch):
        apply_group_endo(squaring, diag_mat(celt(3, 2), cinv(celt(3, 2))))


def test_apply_group_endo_is_homomorphism():
    rng = random.Random(14)
    words = [
        (Entrywise(FieldEndo(4, 1)),),
        (Entrywise(FieldEndo(4, 3)),),
        (InvTranspose(),),
        (InnerConj(SWAP),),
        (Entrywise(FieldEndo(4, 2)), InvTranspose(), InnerConj(upper_uni(ONE))),
    ]
    for word in words:
        for _ in range(50):
            M = mat_from_masks(4, random_sl2_masks(rng, 4))
            N = mat_from_masks(4, random_sl2_masks(rng, 4))
            assert _apply_word(word, mmul(M, N)) == mmul(_apply_word(word, M), _apply_word(word, N))


def test_base_perms_match_scalar():
    # every element at n2, a fixed stride of 240 elements at n4
    for n, stride in ((2, 1), (4, 17)):
        G = fe.enumerate_group(n)
        sample = range(0, len(G), stride)
        assert len(sample) == (len(G) if n == 2 else 240)
        for spec in replay_family(n)[0]:
            p = _base_perm(spec, G)
            assert [int(p[i]) for i in sample] == [G.index_of(apply_group_endo(spec, G.mat(i))) for i in sample]
    with pytest.raises(LevelMismatch):
        _base_perm(Entrywise(FieldEndo(4, 1)), fe.enumerate_group(2))


def test_vectorized_apply_matches_scalar():
    G = fe.enumerate_group(2)
    every = np.arange(len(G))
    # U of the replay at n2: g, the swap matrix, the diagonal and the lower triangulars
    diag, lower = (fe.subset_indices(G, s) for s in (sl2_core.SubsetName.DIAG, sl2_core.SubsetName.LOWER_TRI))
    subset = np.concatenate([[G.index_of(diag_mat(G2, cinv(G2))), G.index_of(SWAP)], diag, lower])
    assert len(subset) == 2 + 3 + 12 and len(np.unique(subset)) < len(G)
    base, words = replay_family(2)
    P = np.stack([_base_perm(spec, G) for spec in base])
    for word in words[:24]:
        img, sub = every, subset
        for b in word:
            img, sub = P[b, img], P[b, sub]
        parts = [base[b] for b in word]
        assert [int(x) for x in img] == [G.index_of(_apply_word(parts, G.mat(i))) for i in range(len(G))]
        assert list(sub) == list(img[subset])


def test_spec_str():
    assert spec_str(Entrywise(FieldEndo(2, 1))) == "frob^1"
    assert spec_str(InvTranspose()) == "invtrans"
    assert spec_str(InnerConj(SWAP)).startswith("inner(")


def test_replay_family_size_and_determinism():
    for n, size in ((2, 6 + 36 + 216), (4, 8 + 64 + 512)):
        base, words = replay_family(n)
        assert len(base) == n + 4 and len(words) == size
        assert [spec_str(s) for s in base] == [spec_str(s) for s in replay_family(n)[0]]
        assert words == replay_family(n)[1]
    base, words = replay_family(2)
    frob = [Entrywise(FieldEndo(2, j)) for j in (0, 1)]
    assert base == [*frob, InvTranspose(), InnerConj(SWAP), InnerConj(diag_mat(G2, cinv(G2))), InnerConj(upper_uni(ONE))]
    assert words[:7] == [(0,), (1,), (2,), (3,), (4,), (5,), (0, 0)] and words[-1] == (5, 5, 5)


def test_replay_level2():
    report = replay_cohopf_skeleton(2)
    assert report.level == 2
    assert len(report.entries) == len(replay_family(2)[1])
    for entry in report.entries:
        assert [s.id for s in entry.steps] == list(range(1, 9))
        assert all(s.status == "pass" for s in entry.steps)
    payload = report.to_json()
    assert isinstance(payload, list) and payload[0]["phi"] == "frob^0"
    assert payload[7]["phi"] == "frob^0*frob^1"  # the word (0, 1)
    assert {s["id"] for s in payload[0]["steps"]} == set(range(1, 9))
    json.dumps(payload)  # serializable


def test_replay_reports_are_byte_stable():
    # sha256 of the compact JSON report, which carries every per-step witness
    expected = {
        2: "45f5ef96858f29acf161b131044e7679b53fe13c6ab1b74e0e891363d5e3d714",
        4: "4ef7fa2b828cf1c762fdab11a68e02fcf0748e3198bfca4ea9344c46e9416a32",
    }
    for n, digest in expected.items():
        payload = json.dumps(replay_cohopf_skeleton(n).to_json(), separators=(",", ":")).encode()
        assert hashlib.sha256(payload).hexdigest() == digest


def test_replay_fails_on_the_transpose_mutant(monkeypatch):
    # the plain transpose is a bijective anti-automorphism (it reverses
    # products), which the eight steps alone let through
    real = endo._base_perm

    def mutant(spec, G):
        if isinstance(spec, InvTranspose):
            return G.index_of_rows(G.masks[:, [0, 2, 1, 3]])
        return real(spec, G)

    monkeypatch.setattr(sl2_core, "inv_transpose", lambda M: Mat2(M.a, M.c, M.b, M.d))
    monkeypatch.setattr(endo, "_base_perm", mutant)
    report = verify.run_suite(max_level=2, name_filter="c12-replay")
    by_name = {c.name: c for c in report.checks}
    assert by_name["c12-replay/n2"].status == "fail"
    error = by_name["c12-replay/n2"].witness["error"]
    assert error.startswith("InvariantViolated: ") and "is not a homomorphism" in error


def _replay_n2_error(monkeypatch, corrupt) -> str:
    # c12-replay/n2 with the inner map by the swap matrix corrupted by corrupt(p)
    real = endo._base_perm

    def mutant(spec, G):
        p = real(spec, G)
        if spec == InnerConj(SWAP):
            corrupt(p)
        return p

    monkeypatch.setattr(endo, "_base_perm", mutant)
    report = verify.run_suite(max_level=2, name_filter="c12-replay")
    check = {c.name: c for c in report.checks}["c12-replay/n2"]
    assert check.status == "fail"
    return check.witness["error"]


def test_replay_fails_on_a_base_map_that_merges_two_elements(monkeypatch):
    def merge(p):
        p[7] = p[8]

    error = _replay_n2_error(monkeypatch, merge)
    assert error == f"InvariantViolated: {spec_str(InnerConj(SWAP))} is not bijective"


def test_replay_fails_on_a_base_map_with_two_entries_swapped(monkeypatch):
    def swap(p):
        p[[7, 8]] = p[[8, 7]]

    error = _replay_n2_error(monkeypatch, swap)
    assert error.startswith("InvariantViolated: ")
    assert "disagrees with the scalar path" in error or "is not a homomorphism" in error


def test_replay_rejects_bad_levels():
    with pytest.raises(NoPrimitiveCubeRoot):
        replay_cohopf_skeleton(3)
    with pytest.raises(BoundExceeded):
        replay_cohopf_skeleton(6)

