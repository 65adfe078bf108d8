"""Endomorphism families and the replay."""

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

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
    StepFailed,
)
from sl2bar.gf2_field import FieldElt, gen, power
from sl2bar.sl2_core import SWAP, Mat2, SubsetName, diag_mat, mmul, upper_uni

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
    G = fe.enumerate_group(4)
    words = [
        (Entrywise(FieldEndo(4, 1)),),
        (Entrywise(FieldEndo(4, 3)),),
        (InvTranspose(),),
        (InnerConj(SWAP),),
        (Entrywise(FieldEndo(4, 2)), InvTranspose(), InnerConj(upper_uni(ONE))),
    ]
    for word in words:
        for _ in range(50):
            M, N = G.mat(rng.randrange(len(G))), G.mat(rng.randrange(len(G)))
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


# sha256 of the compact JSON report, which carries every per-step witness
REPLAY_DIGESTS = {
    2: "45f5ef96858f29acf161b131044e7679b53fe13c6ab1b74e0e891363d5e3d714",
    4: "4ef7fa2b828cf1c762fdab11a68e02fcf0748e3198bfca4ea9344c46e9416a32",
}


def _replay_digest(n: int) -> str:
    return hashlib.sha256(json.dumps(replay_cohopf_skeleton(n).to_json(), separators=(",", ":")).encode()).hexdigest()


def test_replay_reports_are_byte_stable():
    for n, digest in REPLAY_DIGESTS.items():
        assert _replay_digest(n) == digest


def test_dump_replay_report_script_prints_the_level_2_report():
    script = Path(__file__).resolve().parent.parent / "scripts" / "dump_replay_report.py"
    out = subprocess.run([sys.executable, str(script), "2"], capture_output=True, check=True, timeout=120).stdout
    assert out.endswith(b"\n") and hashlib.sha256(out[:-1]).hexdigest() == REPLAY_DIGESTS[2]


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



# The replay's failure paths.  Each fault case corrupts the data that one
# step reads and pins the StepFailed of the lowest failing word: its step,
# message and witness.  Step 3 cannot fail while GroupTable.conj_vec is
# correct: the straightening conjugator of an image h is read off the
# conjugates of g, so it sends h back to g by construction.


def _at(G, a, b, c, d) -> int:
    # the index of the element with entry masks a, b, c, d
    return int(G.index_of_rows(np.array([[a, b, c, d]]))[0])


def _flip(monkeypatch, name, *entries):
    # subset_member(G, name) with the membership of each given element flipped
    real = fe.subset_member

    def flipped(G, s):
        member = real(G, s)
        if s is name:
            member = member.copy()
            for masks in entries:
                member[_at(G, *masks)] ^= True
        return member

    monkeypatch.setattr(fe, "subset_member", flipped)


def _set_orders(monkeypatch, changes):
    # element_orders() with the order of each element (entry masks) replaced
    real = fe.GroupTable.element_orders

    def changed(G):
        orders = real(G).copy()  # the cached array stays intact
        for masks, order in changes.items():
            orders[_at(G, *masks)] = order
        return orders

    monkeypatch.setattr(fe.GroupTable, "element_orders", changed)


def _lowest_failure(monkeypatch, n, k):
    # The StepFailed of the level-n replay, after checking that word k is
    # the lowest failing word: the words before it pass, and the words up
    # to it fail exactly as the whole family does.
    base, words = replay_family(n)

    def run(sub):
        monkeypatch.setattr(endo, "replay_family", lambda _: (base, sub))
        return replay_cohopf_skeleton(n)

    with pytest.raises(StepFailed) as whole:
        run(words)
    assert len(run(words[:k]).entries) == k
    with pytest.raises(StepFailed) as first:
        run(words[: k + 1])
    err = whole.value
    assert (first.value.step_id, str(first.value), first.value.witness) == (err.step_id, str(err), err.witness)
    return err.step_id, str(err), err.witness


G_N2 = ["0x2@2", "0x0@1", "0x0@1", "0x3@2"]  # the anchor g = diag(theta, theta^-1) at n2


def test_replay_step2_fails_on_a_wrong_order_of_g(monkeypatch):
    _set_orders(monkeypatch, {(2, 0, 0, 3): 6})
    assert _lowest_failure(monkeypatch, 2, 0) == (2, "step 2: image of g has order 6", {"image": G_N2})


def test_replay_step2_fails_on_an_image_outside_the_class_of_g(monkeypatch):
    # g's conjugates, from which the straightening conjugators are read, lose
    # g^-1 = diag(theta^-1, theta); frob^1, word 1, sends g there
    real = fe.GroupTable.conj_vec

    def without_g_inverse(G, i, j):
        out = real(G, i, j)
        if np.ndim(j) == 0:
            out = np.where(out == _at(G, 3, 0, 0, 2), int(j), out)
        return out

    monkeypatch.setattr(fe.GroupTable, "conj_vec", without_g_inverse)
    got = _lowest_failure(monkeypatch, 2, 1)
    assert got == (2, "step 2: image of g left the conjugacy class", {"image": ["0x3@2", "0x0@1", "0x0@1", "0x2@2"]})


def test_replay_step4_fails_when_the_diagonal_gains_the_swap_matrix(monkeypatch):
    # inner(diag(theta, theta^-1)), word 4, is the first to move the swap matrix
    _flip(monkeypatch, SubsetName.DIAG, (0, 1, 1, 0))
    swap = ["0x0@1", "0x1@1", "0x1@1", "0x0@1"]
    assert _lowest_failure(monkeypatch, 2, 4) == (4, "step 4: diagonal image left the diagonal", {"element": swap})


def test_replay_step5_fails_when_an_off_diagonal_image_leaves_the_set(monkeypatch):
    off = ["0x0@1", "0x3@2", "0x2@2", "0x0@1"]
    _flip(monkeypatch, SubsetName.OFF_DIAG, (0, 3, 2, 0))
    assert _lowest_failure(monkeypatch, 2, 4) == (5, "step 5: image of the swap matrix is not off-diagonal", {"image": off})


def test_replay_step6_fails_when_a_lower_unitriangular_image_is_not_unitriangular(monkeypatch):
    _flip(monkeypatch, SubsetName.LOWER_UNI, (1, 0, 3, 1))
    got = _lowest_failure(monkeypatch, 2, 4)
    assert got == (6, "step 6: a lower-unitriangular image is not unitriangular", {"element": ["0x1@1", "0x0@1", "0x2@2", "0x1@1"]})


def test_replay_step6_fails_when_the_images_meet_both_sides(monkeypatch):
    _flip(monkeypatch, SubsetName.UPPER_UNI, (1, 0, 1, 1))
    assert _lowest_failure(monkeypatch, 2, 0) == (6, "step 6: images meet both unitriangular sides", None)


def test_replay_step7_fails_when_the_lower_triangulars_lose_one(monkeypatch):
    _flip(monkeypatch, SubsetName.LOWER_TRI, (1, 0, 1, 1))
    assert _lowest_failure(monkeypatch, 2, 4) == (7, "step 7: twisted map is not onto the lower-triangular set", None)


def test_replay_step6_fails_at_level_4(monkeypatch):
    _flip(monkeypatch, SubsetName.LOWER_UNI, (1, 0, 1, 1))
    got = _lowest_failure(monkeypatch, 4, 6)
    assert got == (6, "step 6: a lower-unitriangular image is not unitriangular", {"element": ["0x1@1", "0x0@1", "0x4@4", "0x1@1"]})


def test_replay_reports_the_lowest_word_at_its_first_failing_step(monkeypatch):
    # word 4 fails step 4 and step 6, word 5 fails step 2: word 4's step 4 wins
    _flip(monkeypatch, SubsetName.DIAG, (0, 1, 1, 0))
    _flip(monkeypatch, SubsetName.LOWER_UNI, (1, 0, 3, 1))
    _set_orders(monkeypatch, {(2, 1, 0, 3): 6})  # the image of g under word 5
    got = _lowest_failure(monkeypatch, 2, 4)
    assert got == (4, "step 4: diagonal image left the diagonal", {"element": ["0x0@1", "0x1@1", "0x1@1", "0x0@1"]})


@pytest.mark.parametrize("rows", [None, 1, 3, 7])
def test_replay_chunks_do_not_change_results(monkeypatch, rows):
    # ReplayFrame.steps sees the distinct maps (35 at n2, 82 at n4) in blocks
    # of CLOSURE_CHUNK // (8 |U|) rows: [35] at n2 and [31, 31, 20] at n4 by
    # default, here also blocks of 1, 3 and 7
    seen = []
    real = endo.ReplayFrame.steps
    monkeypatch.setattr(endo.ReplayFrame, "steps", lambda frame, img: seen.append(len(img)) or real(frame, img))
    sizes = {2: (17, 481, 35), 4: (257, 31, 82)}  # |U|, the default block and the distinct maps

    def chunked(n):
        seen.clear()
        if rows is not None:
            monkeypatch.setattr(fe, "CLOSURE_CHUNK", 8 * sizes[n][0] * rows)
        return rows or sizes[n][1]

    for n in (2, 4):
        step, maps = chunked(n), sizes[n][2]
        assert _replay_digest(n) == REPLAY_DIGESTS[n]
        assert seen == [min(step, maps - k) for k in range(0, maps, step)]
    # step-6 faults at word 4 (n2) and word 6 (n4), maps 3 and 5 in
    # lowest-word order: not first in a block of 7
    _flip(monkeypatch, SubsetName.LOWER_UNI, (1, 0, 1, 1))
    message = "step 6: a lower-unitriangular image is not unitriangular"
    chunked(2)
    assert _lowest_failure(monkeypatch, 2, 4) == (6, message, {"element": ["0x1@1", "0x0@1", "0x3@2", "0x1@1"]})
    chunked(4)
    assert _lowest_failure(monkeypatch, 4, 6) == (6, message, {"element": ["0x1@1", "0x0@1", "0x4@4", "0x1@1"]})


def _word_images(P, words, idx):
    # each word's images of idx, one row a word, gathered through the
    # permutation stack P whose last row is the identity
    W = np.array([w + (len(P) - 1,) * (3 - len(w)) for w in words])
    img = idx
    for b in W.T:
        img = P[b[:, None], img]
    return img


@pytest.mark.parametrize("n, maps", [(2, 35), (4, 82)])
def test_replay_checks_each_distinct_map_once(monkeypatch, n, maps):
    # The report equals the per-word route, ReplayFrame.steps on every word's
    # images of U, and steps sees as many rows as the family has distinct
    # maps, counted over the composed whole-table permutations.  (In
    # characteristic 2 frob^0 is the identity and the inverse transpose is
    # conjugation by the swap matrix, so words repeat maps.)
    seen = []
    real = endo.ReplayFrame.steps
    monkeypatch.setattr(endo.ReplayFrame, "steps", lambda frame, img: seen.append(len(img)) or real(frame, img))
    report = replay_cohopf_skeleton(n).to_json()
    frame = endo.ReplayFrame(n)
    G = frame.G
    base, words = replay_family(n)
    P = np.stack([_base_perm(spec, G) for spec in base] + [np.arange(len(G))]).astype(np.int16)
    whole = _word_images(P, words, np.arange(len(G), dtype=np.int16))
    assert len(np.unique(whole, axis=0)) == maps == sum(seen)
    ig, alpha, sw, beta = (a.tolist() for a in real(frame, _word_images(P, words, frame.U)))
    shared = {1: {"theta": str(frame.theta), "g": sl2_core.mat_to_json(frame.g_mat)}, 4: {"diagonal_size": len(frame.delta)},
              7: {"lower_triangular_size": len(frame.lower)}, 8: {"group_order": len(G)}}
    expected = []
    for k, word in enumerate(words):
        swap_image = G.mat_json(sw[k])
        witness = dict(shared)
        witness.update({2: {"image_of_g": G.mat_json(ig[k])}, 3: {"alpha": G.mat_json(alpha[k])},
                        5: {"image_of_swap": swap_image, "lambda": swap_image[1]}, 6: {"beta": "invtrans" if beta[k] else "identity"}})
        steps = [{"id": i, "status": "pass", "witness": witness[i]} for i in range(1, 9)]
        expected.append({"phi": "*".join(spec_str(base[b]) for b in word), "steps": steps})
    assert report == expected
