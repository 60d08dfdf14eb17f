"""Root systems, Weyl action, bipartite words, weight families."""

from __future__ import annotations

import pytest

from bircharts import root_data
from bircharts import (Weight, cartan, chart_weights, distinguished_word,
                       is_reduced, length, longest_element, minor_spec,
                       parse_type, verify_lemmas, weight_sets, weyl_apply,
                       weyl_from_word)

from helpers import all_reduced_words, enumerate_weyl_group

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
               ("A", 5)]


def test_cartan_a3_golden():
    d = cartan("A", 3)
    assert (d.rank, d.nu, d.h) == (3, 6, 4)
    assert d.i0 == (2,) and d.i1 == (1, 3)
    assert distinguished_word(d, 0) == (2, 1, 3, 2, 1, 3)
    assert distinguished_word(d, 1) == (1, 3, 2, 1, 3, 2)


def test_cartan_a1():
    d = cartan("A", 1)
    assert (d.nu, d.h) == (1, 2)
    assert distinguished_word(d, 0) == (1,) == distinguished_word(d, 1)


# nu is counted as the descent steps from -rho = w0(rho)
@pytest.mark.parametrize("label,rank,nu,h", [
    ("A", 1, 1, 2), ("A", 2, 3, 3), ("A", 3, 6, 4), ("A", 4, 10, 5),
    ("A", 5, 15, 6), ("B", 2, 4, 4), ("B", 3, 9, 6), ("B", 4, 16, 8),
    ("C", 3, 9, 6), ("D", 4, 12, 6), ("D", 5, 20, 8), ("E", 6, 36, 12),
    ("E", 7, 63, 18), ("E", 8, 120, 30), ("F", 4, 24, 12), ("G", 2, 6, 6)])
def test_number_of_positive_roots_and_coxeter_number(label, rank, nu, h):
    d = cartan(label, rank)
    assert (d.nu, d.h) == (nu, h)


def test_cartan_invalid_types():
    for label, rank in [("B", 1), ("C", 2), ("D", 3), ("E", 5), ("F", 3),
                        ("G", 3), ("Z", 2), ("A", 0)]:
        with pytest.raises(ValueError):
            cartan(label, rank)


def test_parse_type():
    assert parse_type("A3") == ("A", 3)
    assert parse_type("G2") == ("G", 2)
    with pytest.raises(ValueError):
        parse_type("H4")
    with pytest.raises(ValueError, match="invalid finite type E9"):
        parse_type("E9")


def test_weyl_apply_examples():
    d = cartan("A", 2)
    w = Weight((1, 2))
    assert weyl_apply((), w, d) == w
    assert weyl_apply((1,), d.fundamental_weight(1), d).coords == (-1, 1)
    for i in (1, 2):
        for j in (1, 2):
            if i != j:
                om = d.fundamental_weight(j)
                assert weyl_apply((i,), om, d) == om


def test_length_examples():
    d3 = cartan("A", 3)
    assert length(d3.identity(), d3) == 0
    assert length(longest_element(d3), d3) == 6
    d2 = cartan("A", 2)
    w = weyl_from_word((1, 2, 1), d2)
    # brute-force oracle: shortest word found by group BFS
    dist = enumerate_weyl_group(d2)
    assert dist[w] == 3
    assert length(w, d2) == 3


@pytest.mark.parametrize("label,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_length_matches_bfs_oracle(label, rank):
    d = cartan(label, rank)
    dist = enumerate_weyl_group(d)
    for w, steps in dist.items():
        assert length(w, d) == steps


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_simple_reflection_relations(label, rank):
    d = cartan(label, rank)
    orders = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(1, d.rank + 1):
        si = d.simple(i)
        assert (si * si).is_identity
        for j in range(i + 1, d.rank + 1):
            sj = d.simple(j)
            m = orders[d.cartan[i - 1][j - 1] * d.cartan[j - 1][i - 1]]
            prod = d.identity()
            for _ in range(m):
                prod = prod * (si * sj)
            assert prod.is_identity


@pytest.mark.parametrize("label,rank", SMALL_TYPES)
def test_distinguished_word_reduced_and_longest(label, rank):
    d = cartan(label, rank)
    for eps in (0, 1):
        jj = distinguished_word(d, eps)
        assert len(jj) == d.nu
        assert is_reduced(jj, d)
        assert weyl_from_word(jj, d) == longest_element(d)


def test_distinguished_word_labeling_override():
    # the labeling I0 = {1} is the swap of the default, so its eps = 0
    # word is the default's eps = 1 word
    default = cartan("A", 2)
    assert default.i0 == (2,)
    assert distinguished_word(default, 0) == (2, 1, 2)
    assert distinguished_word(default, 1) == (1, 2, 1)


ALL_TYPES_UP_TO_RANK_8 = ([("A", r) for r in range(1, 9)]
                          + [("B", r) for r in range(2, 9)]
                          + [("C", r) for r in range(3, 9)]
                          + [("D", r) for r in range(4, 9)]
                          + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _bipartite_word(classes, h):
    """The classes alternating h times, each in ascending order."""
    return sum((tuple(sorted(classes[l % 2])) for l in range(h)), ())


@pytest.mark.parametrize("label,rank", ALL_TYPES_UP_TO_RANK_8)
def test_the_only_labelings_are_the_default_and_its_swap(label, rank):
    # every node set S with S and its complement independent in the Dynkin
    # diagram, by brute force over all 2^rank subsets
    d = cartan(label, rank)
    nodes = range(1, rank + 1)

    def independent(cls):
        return all(d.commuting(i, j) for i in cls for j in cls)

    labelings = set()
    for mask in range(2 ** rank):
        s = frozenset(i for i in nodes if mask >> (i - 1) & 1)
        if independent(s) and independent(set(nodes) - s):
            labelings.add(s)
    assert labelings == {frozenset(d.i0), frozenset(d.i1)}
    # the swapped labeling's words for eps = 0 and 1 are the default's
    # words for eps = 1 and 0
    assert _bipartite_word((d.i1, d.i0), d.h) == distinguished_word(d, 1)
    assert _bipartite_word((d.i0, d.i1), d.h) == distinguished_word(d, 0)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_stabilizer_characterized_by_omitted_letter(label, rank):
    d = cartan(label, rank)
    dist = enumerate_weyl_group(d)
    for w in dist:
        words = all_reduced_words(w, d, dist)
        for i in range(1, d.rank + 1):
            om = d.fundamental_weight(i)
            fixes = w.apply(om) == om
            omits = any(i not in word for word in words)
            assert fixes == omits


def test_chart_weights_boundary_positions():
    d = cartan("A", 3)
    for eps in (0, 1):
        cw = chart_weights(d, eps)
        last = cw.word[-1]
        om = d.fundamental_weight(last)
        assert cw.gamma_tilde[d.nu] == om
        alpha = Weight(d.alpha_omega(last))
        assert cw.gamma[d.nu].coords == tuple(
            o - a for o, a in zip(om.coords, alpha.coords))
        # suffix weights on the first two blocks are w0-translates
        _, y_dprime, _ = weight_sets(d, eps)
        for k in (1, 2, 3):
            assert cw.gamma[k] in y_dprime


@pytest.mark.parametrize("label,rank", [("A", 5), ("B", 4), ("C", 3),
                                        ("D", 5), ("E", 6), ("F", 4), ("G", 2)])
def test_stage_weights_apply_the_stage_prefix_and_one_reflection(label, rank):
    # stage (l, i): l - 1 whole blocks of the word read from its end, then
    # s_i, applied to the fundamental weight at i, letter by letter
    d = cartan(label, rank)
    for eps in (0, 1):
        want, prefix = {}, []
        for l in range(1, d.h - 1):
            nodes = d.class_nodes(eps + d.h - l)
            for i in nodes:
                want[(l, i)] = weyl_apply(prefix + [i], d.fundamental_weight(i), d)
            prefix.extend(nodes)
        assert chart_weights(d, eps).stage == want


def test_weight_sets_sizes():
    d3 = cartan("A", 3)
    for eps in (0, 1):
        _, _, interior = weight_sets(d3, eps)
        assert len(interior) == d3.nu - d3.rank == 3
    d1 = cartan("A", 1)
    assert weight_sets(d1, 0)[2] == frozenset()
    d2 = cartan("A", 2)
    y_prime, y_dprime, interior = weight_sets(d2, 0)
    assert not interior & y_prime and not interior & y_dprime


def test_minimal_coset_rep_identity_and_brute_force():
    # minor_spec's witness is a minimal-length element carrying its
    # fundamental weight to the target
    d = cartan("A", 2)
    for i in (1, 2):
        spec = minor_spec(d.fundamental_weight(i), d)
        assert spec.i == i and spec.w_word == ()
    dist = enumerate_weyl_group(d)
    for elem, steps in dist.items():
        for i in (1, 2):
            target = elem.apply(d.fundamental_weight(i))
            best = min(s for w, s in dist.items()
                       if w.apply(d.fundamental_weight(i)) == target)
            spec = minor_spec(target, d)
            assert spec.i == i and len(spec.w_word) == best
            rep = weyl_from_word(spec.w_word, d)
            assert rep.apply(d.fundamental_weight(i)) == target


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_minimal_rep_descends_only_on_second_class(label, rank):
    # the minimal witness of an interior weight ascends on the first class
    d = cartan(label, rank)
    for eps in (0, 1):
        cw = chart_weights(d, eps)
        for (l, i), w in cw.stage.items():
            rep = weyl_from_word(minor_spec(w, d).w_word, d)
            for j in d.class_nodes(eps + d.h):
                assert length(d.simple(j) * rep, d) > length(rep, d)
            assert any(length(d.simple(j) * rep, d) < length(rep, d)
                       for j in d.class_nodes(eps + d.h + 1))


def test_fundamental_orbit_index_and_errors():
    d = cartan("A", 2)
    g = weyl_apply((1, 2), d.fundamental_weight(2), d)
    assert minor_spec(g, d).i == 2
    with pytest.raises(ValueError):
        minor_spec(Weight((2, 0)), d)


@pytest.mark.parametrize("label,rank", ALL_TYPES_UP_TO_RANK_8)
def test_verify_lemmas_pass(label, rank):
    report = verify_lemmas(cartan(label, rank))
    failed = [c.name for c in report.checks if not (c.passed or c.skipped)]
    assert report.all_passed, failed


_real_families = root_data._families


def _edited(edit):
    """root_data._families with ``edit(cw, mixed)`` applied to each fresh
    result, for both words."""
    def families(datum, eps):
        cw, sets, mixed = _real_families(datum, eps)
        edit(cw, mixed)
        return cw, sets, mixed
    return families


def _off_w0_translates(*positions):
    def edit(cw, mixed):
        for k in positions:
            cw.gamma[k] = Weight((0, 0, 0))
    return edit


def _escaping_mixed(cw, mixed):
    mixed[1] = {j: Weight((0, 0, 0)) for j in mixed[1]}


def _negative_stage(cw, mixed):
    cw.stage[min(cw.stage)] = Weight((-1, -1, -1))


def _fundamental_stage(cw, mixed):
    cw.stage[min(cw.stage)] = Weight((1, 0, 0))


def _repeated_stage(cw, mixed):
    first, second = sorted(cw.stage)[:2]
    cw.stage[second] = cw.stage[first]


# A3: each replacement breaks the named check (others may break as well)
_INJECTED = [
    ("bipartite-blocks-additive-length", "class_word", lambda datum, parity: ()),
    ("chart-weight-classification", "_families", _edited(_off_w0_translates(2))),
    ("noncommuting-pair-weights", "_families", _edited(_escaping_mixed)),
    ("pairing-nonneg-on-first-class", "_families", _edited(_negative_stage)),
    ("pairing-negative-on-second-class", "_families", _edited(_fundamental_stage)),
    ("interior-weights-distinct", "_families", _edited(_repeated_stage)),
    ("interior-weight-count", "_families", _edited(_repeated_stage)),
    ("interior-disjoint-from-extremes", "_families", _edited(_fundamental_stage)),
]


@pytest.mark.parametrize("check, target, replacement", _INJECTED,
                         ids=[case[0] for case in _INJECTED])
def test_each_lemma_check_can_fail(monkeypatch, check, target, replacement):
    monkeypatch.setattr(root_data, target, replacement)
    report = verify_lemmas(cartan("A", 3))
    assert not report.all_passed
    failed = report.check(check)
    assert not failed.passed and not failed.skipped
    assert failed.detail.startswith("eps=0")


def test_a_failing_check_reports_its_first_violation(monkeypatch):
    monkeypatch.setattr(root_data, "_families", _edited(_off_w0_translates(1, 2)))
    check = verify_lemmas(cartan("A", 3)).check("chart-weight-classification")
    assert not check.passed
    assert check.detail == "eps=0, gamma[1] not a w0-translate"


def test_verify_lemmas_a1_skips_disjointness():
    report = verify_lemmas(cartan("A", 1))
    check = report.check("interior-disjoint-from-extremes")
    assert check.skipped
    assert report.check("bipartite-blocks-additive-length").passed


def test_verification_report_check_raises_key_error_for_unknown_name():
    report = verify_lemmas(cartan("A", 2))
    with pytest.raises(KeyError, match="nope"):
        report.check("nope")


def test_weight_record_is_frozen_and_hashes_by_value():
    w = Weight((1, -2))
    assert repr(w) == "Weight(coords=(1, -2))"
    assert str(w) == "(1,-2)" and w.pairing(2) == -2
    assert w == Weight((1, -2)) and hash(w) == hash(Weight((1, -2)))
    with pytest.raises(AttributeError):
        w.coords = (0, 0)


def test_verify_lemmas_g2_negative_pairing_exists():
    report = verify_lemmas(cartan("G", 2))
    assert report.check("pairing-negative-on-second-class").passed
    # four interior weights per direction in this type
    _, _, interior = weight_sets(cartan("G", 2), 0)
    assert len(interior) == 4


def test_distinguished_word_is_memoised_per_datum():
    d = cartan("A", 4)
    first = distinguished_word(d, 1)
    assert distinguished_word(d, 1) is first
    assert first == distinguished_word(cartan("A", 4), 1)
    assert distinguished_word(d, 0) != first



@pytest.mark.parametrize("word, message", [
    ((0,), "node 0 out of range"),
    ((1, 3), "node 3 out of range"),
])
def test_weyl_from_word_range_checks_every_letter(word, message):
    with pytest.raises(ValueError) as err:
        weyl_from_word(word, cartan("A", 2))
    assert type(err.value) is ValueError and str(err.value) == message
