"""The verification runner and the bijection checks: one enumeration pass
per family and size feeds all six bijection checks, each still fails under
a fault in what it checks, and a failure inside a sweep is a FAIL line.
A fault table shows that each of the 18 ``verify all`` lines can FAIL, and
pins the exact counterexample each fault gives."""

import tracemalloc
from collections import Counter
from itertools import chain

import pytest

from treedegree import (
    MarkedKaryTree,
    MarkedPlaneTree,
    SubsetPair,
    TruncatedSeries,
    bar_delta_decode,
    composition_to_kary_pair,
    exact_math,
    kary_leaf,
    kary_trees,
    phi,
    plane_trees,
    series,
    verification,
)
from treedegree._limits import GuardError
from treedegree.cli import main

WORD_TRIP = "plane tree <-> outdegree word round trip"
MARKED_TRIP = "marked plane tree <-> cyclic word round trip"
COVER = "cyclic words cover all compositions exactly once"
COMPLETION = "k-ary completion round trip"
SUBSETS = "marked k-ary tree <-> word <-> subsets round trip"
CARDINALITY = "marked pairs per outdegree match subset counts"
NAMES = [WORD_TRIP, MARKED_TRIP, COVER, COMPLETION, SUBSETS, CARDINALITY]

MAX_EDGES = 5
CELLS = [(1, 4), (2, 3), (3, 2)]


def test_one_enumeration_per_family_and_size(monkeypatch):
    calls = Counter()

    def counting(family, enumerate_trees):
        def wrapper(*size):
            calls[(family, *size)] += 1
            return enumerate_trees(*size)

        return wrapper

    for family, attr in (("plane", "_plane_words"), ("kary", "enumerate_kary_trees")):
        monkeypatch.setattr(verification, attr, counting(family, getattr(verification, attr)))
    results = verification.check_bijections(MAX_EDGES, CELLS)
    assert [r.name for r in results] == NAMES and all(r.passed for r in results)
    expected = Counter({("plane", n): 1 for n in range(MAX_EDGES + 1)})
    expected.update(("kary", k, n) for k, n in CELLS)
    assert calls == expected


def _path_for_large(honest):
    # Decodes every word of 4 or more entries to the path of that size.
    return lambda word: honest(word if len(word) < 4 else (1,) * (len(word) - 1) + (0,))


def _reverse_encoding(honest):
    return lambda word, mark: honest(word, mark)[::-1]


def _zero_after_first_mark(honest):
    # Right count, still distinct, but mark 1's word is one part too long.
    return lambda word, mark: honest(word, mark) + (0,) * (mark == 1)


def _shift_mark(honest):
    def decode(encoded, i):
        word, mark = honest(encoded, i)
        return word, mark % len(word) + 1

    return decode


def _first_tree_twice(honest):
    def enumerate_words(n):
        words = list(honest(n))
        return [words[0], *words]

    return enumerate_words


def _first_prefix_twice(honest):
    # The prefix walk repeats its first prefix, and so every word it heads.
    def prefixes(*args):
        walk = honest(*args)
        first = next(walk)
        return chain((first, first), walk)

    return prefixes


def _extra_unary_vertex(honest):
    # Each suffix table's totals count one vertex of outdegree 1 too many.
    def totals(height, parts):
        size, counts = honest(height, parts)
        return size, counts + Counter({1: 1})

    return totals


def _leaf_for_all(honest):
    return lambda completed, k: kary_leaf(k)


def _mirror_y(honest):
    def compress(word, k):
        x, y = honest(word, k)
        top = len(word) - k  # kn, the length of beta
        return x, tuple(sorted(top + 1 - j for j in y))

    return compress


def _reverse_word(honest):
    return lambda k, x, y: honest(k, x, y)[::-1]


def _off_subset_count(honest):
    return lambda top, bottom: honest(top, bottom) + ((top, bottom) == (3, 1))


def _extra_root_slot(honest):
    def outdegrees(tree):
        root, *rest = honest(tree)
        return (root + 1, *rest)

    return outdegrees


# The sweeps run these seams where the ids name the public function: the
# private codec cores, and the word generator behind enumerate_plane_trees.
SEAMS = {
    "bar_delta_encode": "_bar_delta_encode",
    "bar_delta_decode": "_bar_delta_decode",
    "enumerate_plane_trees": "_plane_words",
}


@pytest.mark.parametrize(
    "step, fault, failing",
    [
        ("delta_decode", _path_for_large, {WORD_TRIP}),
        # The k-ary pass runs the plane encoder too, on the completion word.
        ("bar_delta_encode", _reverse_encoding, {MARKED_TRIP, SUBSETS}),
        ("bar_delta_decode", _shift_mark, {MARKED_TRIP}),
        ("enumerate_plane_trees", _first_tree_twice, {COVER}),
        ("uncomplete", _leaf_for_all, {COMPLETION}),
        ("_phi", _mirror_y, {SUBSETS}),
        ("_phi_inverse", _reverse_word, {SUBSETS}),
        ("binomial", _off_subset_count, {CARDINALITY}),
        ("bar_delta_encode", _zero_after_first_mark, {MARKED_TRIP, COVER, SUBSETS, CARDINALITY}),
        ("kary_preorder_outdegrees", _extra_root_slot, {SUBSETS}),
    ],
)
def test_each_check_fails_under_its_fault(monkeypatch, step, fault, failing):
    attr = SEAMS.get(step, step)
    monkeypatch.setattr(verification, attr, fault(getattr(verification, attr)))
    results = verification.check_bijections(MAX_EDGES, CELLS)
    assert [r.name for r in results] == NAMES
    assert {r.name for r in results if not r.passed} == failing
    assert all(r.detail for r in results if not r.passed)
    assert all(r.line().startswith("FAIL") for r in results if r.name in failing)


def test_encoded_i_is_compared_with_the_tree(monkeypatch):
    # The one per-pair tie between an encoded word and its tree: the word's
    # |X| against the marked vertex's filled slots, counted on the tree.
    honest = verification.kary_preorder_outdegrees
    monkeypatch.setattr(verification, "kary_preorder_outdegrees", _extra_root_slot(honest))
    results = verification.check_bijections(MAX_EDGES, CELLS)
    [subsets] = [r for r in results if not r.passed]
    assert subsets.detail == "k=1 n=4 mark=1: encoded i=1, tree i=2"


def test_plane_tree_count_is_counted(monkeypatch):
    # The histogram counts the words its prefixes head, so a repeated word shows.
    monkeypatch.setattr(plane_trees, "_prefixes", _first_prefix_twice(plane_trees._prefixes))
    result = verification.check_plane_counts(3)
    assert not result.passed
    assert result.detail == "n=1: enumerated 2 trees, expected 1"


def test_cached_suffix_totals_neither_hide_nor_keep_a_fault(monkeypatch):
    # The histogram looks its cached table totals up through the module, so a
    # fault there shows after the honest totals are cached, and no faulty
    # total is cached for a later call.
    assert all(r.passed for r in verification.run_checks("theorem1", 5, 1))
    faulty = _extra_unary_vertex(plane_trees._suffix_totals)
    with monkeypatch.context() as patch:
        patch.setattr(plane_trees, "_suffix_totals", faulty)
        assert verification.check_plane_counts(5).detail == "n=1 i=1: enumeration 2 != formula 1"
    assert all(r.passed for r in verification.run_checks("theorem1", 5, 1))


def test_inexact_division_is_a_fail_line(monkeypatch, capsys):
    honest = verification.binomial
    # C(6, 2) + 1 = 16 makes the k=2, n=2 tree count 16 / 3.
    off = lambda top, bottom: honest(top, bottom) + ((top, bottom) == (6, 2))  # noqa: E731
    monkeypatch.setattr(verification, "binomial", off)
    results = verification.run_checks("all", 3, 2)
    assert len(results) == 18
    [counts] = [r for r in results if r.name == "k-ary outdegree counts vs exhaustive enumeration"]
    assert not counts.passed
    assert counts.detail == "k-ary tree count: 16 is not divisible by 3"
    assert main(["verify", "all", "--max-edges", "3", "--max-arity", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 18 and f"FAIL {counts.name} [{counts.scope}]: {counts.detail}" in lines


def test_guard_still_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("TREEDEGREE_GUARD", "2")
    assert main(["verify", "fine", "--max-edges", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "plane-tree enumeration exceeds the enumeration guard (3 > 2)" in err


def test_guard_exits_2_before_any_theorem1_output(monkeypatch, capsys):
    monkeypatch.setenv("TREEDEGREE_GUARD", "2")
    assert main(["verify", "theorem1", "--max-edges", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "plane-tree enumeration exceeds the enumeration guard (3 > 2)" in err


@pytest.mark.parametrize(
    "argv, refused, sizes",
    [
        (["theorem1", "--max-edges", "15"], "plane-tree", "15 > 14"),
        (["fine", "--max-edges", "20"], "plane-tree", "15 > 14"),
        (["identity1", "--max-edges", "31"], "outdegree-type", "31 > 30"),
        (["all", "--max-arity", "25"], "k-ary tree", "25 > 24"),
    ],
    ids=["theorem1", "fine", "identity1", "all"],
)
def test_a_refused_run_does_no_work(monkeypatch, capsys, argv, refused, sizes):
    # Every guard is checked before any sweep runs, and the refusal names
    # the first size a sweep would have refused: nothing is enumerated.
    calls = Counter()

    def counting(owner, attr):
        honest = getattr(owner, attr)

        def wrapper(*args):
            calls[attr] += 1
            return honest(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    attrs = (
        "_plane_words", "_plane_histogram", "enumerate_kary_trees", "_kary_histogram",
        "check_plane_counts",
    )
    for attr in attrs:
        counting(verification, attr)
    counting(exact_math, "outdegree_type_sum")
    assert main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{refused} enumeration exceeds the enumeration guard ({sizes})" in err
    assert calls == {}


@pytest.mark.parametrize("guard, sizes", [(None, "25 > 24"), ("5", "6 > 5")])
def test_a_huge_arity_is_refused_without_listing_its_cells(monkeypatch, guard, sizes):
    # The cells stop at the first arity whose (k, 1) the guard refuses, so
    # the refusal costs the same at any larger arity.
    if guard is not None:
        monkeypatch.setenv("TREEDEGREE_GUARD", guard)
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match=f"k-ary tree enumeration .*\\({sizes}\\)"):
            verification.run_checks("theorem2", 8, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "what, guard, refused",
    [
        ("lagrange", None, "series arity exceeds the series guard (400000 > 100)"),
        ("all", None, "k-ary tree enumeration exceeds the enumeration guard (25 > 24)"),
        ("lagrange", "5", "series arity exceeds the series guard (400000 > 5)"),
    ],
    ids=["lagrange", "all-names-theorem2-first", "lagrange-env"],
)
def test_a_huge_series_arity_is_refused_before_any_series(monkeypatch, capsys, what, guard, refused):
    if guard is not None:
        monkeypatch.setenv("TREEDEGREE_GUARD", guard)
    seen = []
    monkeypatch.setattr(verification, "check_series_identities", lambda k: seen.append(k) or [])
    assert main(["verify", what, "--max-arity", "400000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and refused in err
    assert seen == []


def test_series_guard_admits_its_default(monkeypatch):
    # The default arity itself runs.
    seen = []
    monkeypatch.setattr(verification, "check_series_identities", lambda k: seen.append(k) or [])
    assert verification.run_checks("lagrange", 8, 100) == []
    assert seen == [100]


def test_assertion_in_a_shared_pass_fails_its_open_checks(monkeypatch):
    # An AssertionError outside the per-mark loops ends the k-ary pass: the
    # checks that had not failed yet cannot pass.
    def broken(k, n):
        raise AssertionError("enumeration self-check")

    monkeypatch.setattr(verification, "enumerate_kary_trees", broken)
    results = verification.check_bijections(MAX_EDGES, CELLS)
    assert [r.passed for r in results] == [True, True, True, False, False, False]
    assert {r.detail for r in results[3:]} == {"enumeration self-check"}


def test_marked_pairs_run_no_shape_validation(monkeypatch):
    # The sweep's words are rotations of enumerated tree words, so their
    # shape holds by construction and no core validates it.
    calls = Counter()

    def count(module, attr):
        honest = getattr(module, attr)

        def counting(*args):
            calls[attr] += 1
            return honest(*args)

        monkeypatch.setattr(module, attr, counting)

    count(kary_trees, "_kary_word_structure")
    count(kary_trees, "kary_preorder_outdegrees")
    count(verification, "kary_preorder_outdegrees")
    results = verification.check_bijections(MAX_EDGES, CELLS)
    assert all(r.passed for r in results)
    trees = [tree for k, n in CELLS for tree in kary_trees.enumerate_kary_trees(k, n)]
    assert calls == {"kary_preorder_outdegrees": len(trees)}


def test_a_library_value_error_is_a_fail_line(monkeypatch, capsys):
    def refuse(completed, k):
        raise ValueError("internal vertex has outdegree 1, expected 2")

    monkeypatch.setattr(verification, "uncomplete", refuse)
    assert main(["verify", "bijections", "--max-edges", "3", "--max-arity", "2"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 6
    assert [line.split(" ", 1)[0] for line in lines] == ["PASS"] * 3 + ["FAIL"] * 3
    detail = ": internal vertex has outdegree 1, expected 2"
    assert all(line.endswith(detail) for line in lines[3:])


def test_an_unknown_check_name_is_refused():
    with pytest.raises(ValueError) as excinfo:
        verification.run_checks("bogus")
    assert str(excinfo.value) == "unknown verification 'bogus'"


def test_malformed_guard_still_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("TREEDEGREE_GUARD", "lots")
    assert main(["verify", "fine"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "TREEDEGREE_GUARD must be an integer, got 'lots'" in err


def test_marked_pairs_build_no_tree_objects(monkeypatch):
    # The bijection passes compare words and marks: no marked tree and no
    # subset pair is built for any marked pair.
    built = Counter()

    def counting_new(cls):
        honest = cls.__new__

        def new(owner, *args, **kwargs):
            built[cls.__name__] += 1
            return honest(owner, *args, **kwargs)

        return staticmethod(new)

    for cls in (MarkedPlaneTree, MarkedKaryTree):
        monkeypatch.setattr(cls, "__new__", counting_new(cls))
    honest_init = SubsetPair.__init__

    def init(self, *args, **kwargs):
        built["SubsetPair"] += 1
        honest_init(self, *args, **kwargs)

    monkeypatch.setattr(SubsetPair, "__init__", init)
    # The counters see what the public codecs build.
    bar_delta_decode((0,), 1)
    composition_to_kary_pair((1, 0))
    phi((1, 0))
    assert built == {"MarkedPlaneTree": 1, "MarkedKaryTree": 1, "SubsetPair": 1}
    built.clear()
    results = verification.check_bijections(5, [(2, 3), (3, 2)])
    assert all(r.passed for r in results)
    assert built == {}


PLANE_COUNTS = "plane outdegree counts vs exhaustive enumeration"
PLANE_SUMS = "plane row and edge sums"
KARY_COUNTS = "k-ary outdegree counts vs exhaustive enumeration"
KARY_SUMS = "k-ary row and edge sums"
IDENTITY = "outdegree-type identity vs closed form"
FINE = "odd-outdegree counts vs fine-number relation and enumeration"
RESIDUALS = "defining-equation residuals"
CATALAN_POWERS = "catalan power-coefficient law"
KARY_POWERS = "k-ary power-coefficient law (corrected)"
NAIVE = "naive k-ary power law rejected"
PLANE_DERIVATIVE = "plane vertex-marking derivative series vs closed form"
KARY_DERIVATIVE = "k-ary vertex-marking derivative series vs closed form"
ALL_NAMES = [
    PLANE_COUNTS, PLANE_SUMS, KARY_COUNTS, KARY_SUMS, IDENTITY, FINE,
    RESIDUALS, CATALAN_POWERS, KARY_POWERS, NAIVE, PLANE_DERIVATIVE, KARY_DERIVATIVE,
    *NAMES,
]
ALL_BOUNDS = (5, 3)


def _off_at(cell):
    # One more than the honest value when the arguments equal ``cell``.
    def fault(honest):
        return lambda *args: honest(*args) + (args == cell)

    fault.__name__ = "off_at_" + "_".join(map(str, cell))
    return fault


def _set_at(cell, value):
    def fault(honest):
        return lambda *args: value if args == cell else honest(*args)

    fault.__name__ = "_".join(["set", *map(str, cell), "to", str(value)])
    return fault


def _first_kary_entry_twice(honest):
    def table(*args):
        entries = honest(*args)
        return [entries[0], *entries]

    return table


def _drop_last_vector(honest):
    return lambda n, i: list(honest(n, i))[:-1]


def _shift_one_more(honest):
    return lambda self, m: honest(self, m + 1)


def _off_third_term(honest):
    # Term 3 of the returned coefficient list is one too large.
    def wrong(*args):
        terms = list(honest(*args))
        if len(terms) > 3:
            terms[3] += 1
        return terms

    return wrong


def _off_third_coefficient(honest):
    off = _off_third_term(lambda *args: honest(*args).coefficients)
    return lambda *args: TruncatedSeries(off(*args))


# One fault per seam, run through every ``verify all`` line at ALL_BOUNDS,
# with the exact FAIL detail of each line it fails (its counterexample);
# together they fail every line.
ALL_FAULTS = [
    (
        verification,
        "_plane_words",
        _first_tree_twice,
        {COVER: "n=1 i=0: 2 marked pairs, formula 1"},
    ),
    (
        plane_trees,
        "_suffix_totals",
        _extra_unary_vertex,
        {
            PLANE_COUNTS: "n=1 i=1: enumeration 2 != formula 1",
            FINE: "n=1: enumeration 2 != formula 1",
        },
    ),
    (
        verification,
        "catalan",
        _off_at((3,)),
        {
            PLANE_COUNTS: "n=3: enumerated 5 trees, expected 6",
            PLANE_SUMS: "n=3: row sum 20 != (n+1)*c_n=24",
        },
    ),
    # The bijection pass reads the table too, but it checks each tree on its
    # own and counts distinct subset pairs, so only the counts line fails.
    (
        kary_trees,
        "_kary_table",
        _first_kary_entry_twice,
        {KARY_COUNTS: "k=1 n=1: enumerated 2 trees, expected 1"},
    ),
    (
        verification,
        "count_kary_outdegree",
        _off_at((2, 2, 1)),
        {
            KARY_COUNTS: "k=2 n=2 i=1: enumeration 8 != formula 9",
            KARY_SUMS: "k=2 n=2: row sum 16 != C(kn+k,n)=15",
            KARY_DERIVATIVE: "k=2 i=1 n=2: series 8 != formula 9",
        },
    ),
    (
        exact_math,
        "_outdegree_type_vectors",
        _drop_last_vector,
        {IDENTITY: "n=1 i=0: type-vector sum 0 != formula 1"},
    ),
    (
        exact_math,
        "count_plane_outdegree",
        _off_at((2, 1)),
        {FINE: "n=2: 3*3 != 2*C(2n-1,n) + F(n-1) = 6"},
    ),
    (
        exact_math,
        "fine_number",
        _off_at((3,)),
        {FINE: "n=4: 3*24 != 2*C(2n-1,n) + F(n-1) = 73"},
    ),
    (TruncatedSeries, "shift", _shift_one_more, {RESIDUALS: "C - 1 - z*C^2 does not vanish"}),
    (
        exact_math,
        "catalan_power_coeff",
        _off_at((3, 2)),
        {CATALAN_POWERS: "n=3 l=2: series 14 != closed form 15"},
    ),
    (
        exact_math,
        "kary_power_coeff",
        _off_at((2, 2, 1)),
        {KARY_POWERS: "k=2 n=2 l=1: series 5 != closed form 6"},
    ),
    # C(4, 2) = 10 makes the naive law 10/2 match [z^2] B_2 = 5.
    (
        verification,
        "binomial",
        _set_at((4, 2), 10),
        {
            PLANE_SUMS: "n=2: row sum 6 != C(2n,n)=10",
            NAIVE: "naive law unexpectedly matches the series coefficient",
            CARDINALITY: "k=2 n=2 i=0: 6 pairs, subset count 10",
        },
    ),
    (
        series,
        "catalan_series",
        _off_third_coefficient,
        {PLANE_DERIVATIVE: "i=0 n=3: series 11 != formula 10"},
    ),
    (
        series,
        "kary_series",
        _off_third_coefficient,
        {KARY_DERIVATIVE: "k=1 i=0 n=4: series 2 != formula 1"},
    ),
    (
        series,
        "_quotient",
        _off_third_term,
        {
            PLANE_DERIVATIVE: "i=0 n=3: series 11 != formula 10",
            KARY_DERIVATIVE: "k=1 i=0 n=3: series 2 != formula 1",
        },
    ),
    (
        verification,
        "delta_decode",
        _path_for_large,
        {WORD_TRIP: "decode(encode) changed a tree at n=3"},
    ),
    (
        verification,
        "_bar_delta_decode",
        _shift_mark,
        {MARKED_TRIP: "round trip failed at n=1, mark=1"},
    ),
    (
        verification,
        "uncomplete",
        _leaf_for_all,
        {COMPLETION: "k=1 n=1: uncomplete(complete) changed a tree"},
    ),
    (
        verification,
        "_phi",
        _mirror_y,
        {SUBSETS: "k=1 n=2 mark=1: subset round trip mismatch"},
    ),
    (
        verification,
        "binomial",
        _off_subset_count,
        {CARDINALITY: "k=3 n=1 i=0: 3 pairs, subset count 4"},
    ),
]
ALL_FAULT_IDS = [
    f"{getattr(owner, '__name__', '').rsplit('.', 1)[-1]}.{attr}-{fault.__name__}"
    for owner, attr, fault, _ in ALL_FAULTS
]


def test_the_fault_table_fails_every_line():
    assert [r.name for r in verification.run_checks("all", *ALL_BOUNDS)] == ALL_NAMES
    assert set().union(*(failing for *_, failing in ALL_FAULTS)) == set(ALL_NAMES)


@pytest.mark.parametrize("owner, attr, fault, failing", ALL_FAULTS, ids=ALL_FAULT_IDS)
def test_each_verify_line_fails_under_its_fault(monkeypatch, owner, attr, fault, failing):
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    results = verification.run_checks("all", *ALL_BOUNDS)
    assert [r.name for r in results] == ALL_NAMES
    assert {r.name: r.detail for r in results if not r.passed} == failing


def test_a_wrong_quotient_term_names_its_cell(monkeypatch):
    monkeypatch.setattr(series, "_quotient", _off_third_term(series._quotient))
    plane, kary = verification.run_checks("lagrange", 1, 2)[4:]
    assert plane.line() == (
        f"FAIL {PLANE_DERIVATIVE} [i=0..10, coefficients 1..12]: "
        "i=0 n=3: series 11 != formula 10"
    )
    assert kary.line() == (
        f"FAIL {KARY_DERIVATIVE} [k=1..2, i=0..k, coefficients 1..12]: "
        "k=1 i=0 n=3: series 2 != formula 1"
    )


def test_each_row_sum_condition_names_itself(monkeypatch):
    # A row sum can miss either closed form; the detail shows the one it missed.
    monkeypatch.setattr(verification, "catalan", _off_at((3,))(verification.catalan))
    assert verification.check_plane_sums(4).detail == "n=3: row sum 20 != (n+1)*c_n=24"
    off_b = _off_third_coefficient(verification.kary_series)  # b_2(3) = 14 becomes 15
    monkeypatch.setattr(verification, "kary_series", off_b)
    detail = verification.check_kary_sums([(2, 3)]).detail
    assert detail == "k=2 n=3: row sum 56 != (n+1)*b_k(n)=60"


def test_kary_sums_build_one_series_per_arity(monkeypatch):
    # One B_k per arity, to that arity's top n, built when the sweep reaches it.
    calls = []
    honest = verification.kary_series
    counting = lambda k, n: calls.append((k, n)) or honest(k, n)  # noqa: E731
    monkeypatch.setattr(verification, "kary_series", counting)
    cells = verification.SIZES["theorem2"](8, 3).cells
    assert verification.check_kary_sums(cells).passed
    assert calls == [(1, 8), (2, 6), (3, 4)]


def test_fine_catches_a_wrong_odd_column_start(monkeypatch):
    # count_odd_outdegree starts its ratio steps from count_plane_outdegree(n, i)
    # at the largest odd i <= n, which is i = 1 at n = 2, and returns what they
    # give; the fine line compares it with the Fine relation and with enumeration.
    real = exact_math.count_plane_outdegree
    monkeypatch.setattr(exact_math, "count_plane_outdegree", lambda n, i: real(n, i) + (n == 2))
    assert exact_math.count_odd_outdegree(2) == 3 and exact_math.count_odd_outdegree(3) == 7
    [result] = verification.run_checks("fine", 4, 1)
    assert not result.passed
    assert result.detail == "n=2: 3*3 != 2*C(2n-1,n) + F(n-1) = 6"


def test_an_inexact_odd_column_step_fails_loudly(monkeypatch, capsys):
    # At n = 6 the walk starts from C(6, 5) = 6 at i = 5. Starting from 7
    # instead makes the step to i = 3, 7 * (8 * 7) / (3 * 2), inexact.
    off = _off_at((6, 5))(exact_math.count_plane_outdegree)
    monkeypatch.setattr(exact_math, "count_plane_outdegree", off)
    message = "odd-column ratio step: 392 is not divisible by 6"
    with pytest.raises(AssertionError) as raised:
        exact_math.count_odd_outdegree(6)
    assert str(raised.value) == message
    assert main(["verify", "fine"]) == 1
    assert capsys.readouterr().out == f"FAIL {FINE} [n=1..8]: {message}\n"
