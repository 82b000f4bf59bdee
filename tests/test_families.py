import dataclasses

import pytest

from alphaspectra.digraph import (
    canonical_key,
    is_strongly_connected,
    out_degrees,
)
from alphaspectra.errors import InfeasibleError, InvalidSpecError, ParseError
from alphaspectra.families import (
    FamilySpec,
    format_spec,
    generate,
    list_bicyclic,
    list_compositions,
    parse_spec,
)
from oracles import bipartition, contains_bidirected_kpq


def all_small_specs():
    """A spread of every family kind at small sizes."""
    specs = [
        FamilySpec.cycle(2),
        FamilySpec.cycle(6),
        FamilySpec.complete(4),
        FamilySpec.kpq(1, 1),
        FamilySpec.kpq(3, 2),
        FamilySpec.gprime(5),
        FamilySpec.gprime(8),
        FamilySpec.g1(5),
        FamilySpec.g1(7),
        FamilySpec.g2(5),
        FamilySpec.g2(7),
        FamilySpec.bip(1, 5, 2, 2),
        FamilySpec.bip(2, 8, 3, 2),
        FamilySpec.bip(3, 5, 2, 2),
        FamilySpec.bip(4, 7, 2, 2),
        FamilySpec.bip(5, 6, 2, 2),
        FamilySpec.bip(6, 7, 3, 2),
    ]
    for n, s in [(5, 2), (6, 3), (7, 4)]:
        specs.extend(list_compositions("infty", n, s))
        specs.extend(list_compositions("theta", n, s))
    return specs


#: both arcs between the parts {0, 1, 2} and {3, 4} of the bip rows' K_{3,2}
K32 = [(0, 3), (3, 0), (0, 4), (4, 0), (1, 3), (3, 1), (1, 4), (4, 1), (2, 3), (3, 2), (2, 4), (4, 2)]

#: one member of every kind with its arcs written out from the module
#: docstring's labelings: cores first, then each path through fresh vertices
LABELED = [
    ("cycle:4", [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ("complete:3", [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]),
    ("kpq:2,1", [(0, 2), (2, 0), (1, 2), (2, 1)]),
    ("infty:1,1", [(0, 1), (1, 0), (0, 2), (2, 0)]),
    ("infty:1,1,2", [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
    ("theta:0,1;0", [(0, 1), (0, 2), (2, 1), (1, 0)]),
    ("theta:0,1,2;2", [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 0)]),
    ("bip1:8,3,2", K32 + [(0, 5), (5, 6), (6, 7), (7, 2)]),
    ("bip2:8,3,2", K32 + [(3, 5), (5, 6), (6, 7), (7, 4)]),
    ("bip3:8,3,2", K32 + [(0, 5), (5, 6), (6, 7), (7, 0)]),
    ("bip4:8,3,2", K32 + [(3, 5), (5, 6), (6, 7), (7, 3)]),
    ("bip5:6,2,2", [(0, 2), (2, 0), (0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1), (0, 4), (4, 5), (5, 2)]),
    ("bip5:9,3,2", K32 + [(0, 5), (5, 6), (6, 7), (7, 8), (8, 3)]),
    ("bip6:9,3,2", K32 + [(3, 5), (5, 6), (6, 7), (7, 8), (8, 0)]),
    ("gprime:6", [(0, 2), (0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 0)]),
    ("g1:6", [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2), (3, 4), (4, 5), (5, 0)]),
    ("g2:6", [(0, 1), (1, 3), (0, 2), (2, 3), (2, 1), (3, 4), (4, 5), (5, 0)]),
]


class TestGenerate:
    @pytest.mark.parametrize("text, arcs", LABELED, ids=[text for text, _ in LABELED])
    def test_labels(self, text, arcs):
        d = generate(parse_spec(text))
        assert d.n == 1 + max(max(arc) for arc in arcs)
        assert len(d.arcs) == len(arcs)
        assert frozenset(d.arcs) == frozenset(arcs)

    def test_all_strongly_connected(self):
        for spec in all_small_specs():
            assert is_strongly_connected(generate(spec)), format_spec(spec)

    def test_deterministic(self):
        for spec in all_small_specs():
            assert generate(spec) == generate(spec)

    def test_infty_arc_count_and_hub(self):
        for n, s in [(5, 2), (7, 3), (9, 4)]:
            for spec in list_compositions("infty", n, s):
                d = generate(spec)
                assert len(d.arcs) == n - 1 + s
                assert sorted(out_degrees(d), reverse=True)[:2] == [s, 1]

    def test_theta_arc_count_and_hub(self):
        # each forward path contributes k_i + 1 arcs, the return path l1 + 1
        for n, s in [(5, 2), (7, 3), (9, 4)]:
            for spec in list_compositions("theta", n, s):
                d = generate(spec)
                assert len(d.arcs) == n + s - 1
                assert sorted(out_degrees(d), reverse=True)[:2] == [s, 1]

    def test_bip_bipartite_and_contains_kpq(self):
        for kind in range(1, 7):
            for n, p, q in [(6, 2, 2), (7, 2, 2), (7, 3, 2), (8, 3, 2), (8, 2, 2), (9, 3, 3)]:
                rem = n - p - q
                ok = rem % 2 == (1 if kind <= 4 else 0)
                if not ok:
                    with pytest.raises(InvalidSpecError):
                        FamilySpec.bip(kind, n, p, q)
                    continue
                d = generate(FamilySpec.bip(kind, n, p, q))
                assert bipartition(d) is not None
                assert contains_bidirected_kpq(d, p, q)

    def test_s2_matches_plain_bicyclic(self):
        # the two-cycle hub and two-path theta specialize the definitions
        inf = generate(FamilySpec.infty(2, 3))
        assert inf.n == 6 and len(inf.arcs) == 7
        th = generate(FamilySpec.theta((1, 2), 1))
        assert th.n == 6 and len(th.arcs) == 7


class TestInvalidSpecs:
    # each case is a (kind, params) pair, built inside the test
    @pytest.mark.parametrize(
        "bad",
        [
            ("cycle", (1,)),
            ("complete", (1,)),
            ("kpq", (0, 2)),
            ("infty", (1,)),
            ("infty", (0, 1)),
            ("infty", (2, 1)),
            ("theta", (0, 0, 1)),  # duplicate u->v arc
            ("theta", (1, 0)),
            ("bip1", (8, 2, 2)),  # even remainder
            ("bip5", (7, 2, 2)),  # odd remainder
            ("bip1", (6, 2, 1)),
            ("bip1", (5, 3, 2)),
            ("gprime", (4,)),
            ("g1", (4,)),
            ("nope", (3,)),
            ("theta", (-1, 1, 0)),
            ("theta", (2, 1, 0)),
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(InvalidSpecError):
            FamilySpec(*bad)

    def test_no_invalid_spec_can_be_made(self):
        # every route to a spec checks it, so consumers never re-check
        with pytest.raises(InvalidSpecError, match="bip1 needs n - p - q odd, got 4"):
            FamilySpec.bip(1, 8, 2, 2)
        with pytest.raises(InvalidSpecError, match="cycle needs a single n >= 2"):
            dataclasses.replace(FamilySpec.cycle(3), params=(1,))


class TestCompositions:
    def test_infty_5_2(self):
        got = {spec.ks for spec in list_compositions("infty", 5, 2)}
        assert got == {(1, 3), (2, 2)}

    def test_theta_5_2_matches_bruteforce(self):
        got = {(spec.ks, spec.l1) for spec in list_compositions("theta", 5, 2)}
        expected = set()
        for k1 in range(0, 4):
            for k2 in range(k1, 4):
                for l1 in range(0, 4):
                    if k1 + k2 + l1 == 3 and not (k1 == 0 and k2 == 0):
                        expected.add(((k1, k2), l1))
        assert got == expected

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            list_compositions("infty", 3, 3)
        with pytest.raises(InfeasibleError):
            list_compositions("theta", 3, 3)

    def test_unknown_family(self):
        with pytest.raises(InvalidSpecError, match="supports infty/theta, got 'cycle'"):
            list_compositions("cycle", 5, 2)

    def test_theta_minimal_n(self):
        # the one-member domain at n = s + 1
        specs = list_compositions("theta", 4, 3)
        assert [(s.ks, s.l1) for s in specs] == [((0, 1, 1), 0)]

    def test_complete_and_duplicate_free(self):
        for n, s in [(8, 2), (9, 3), (10, 4)]:
            for fam in ("infty", "theta"):
                specs = list_compositions(fam, n, s)
                assert len(specs) == len(set(specs))
                for spec in specs:
                    assert spec.n_vertices == n
                    assert spec.s == s


class TestBicyclic:
    def test_n3(self):
        got = {format_spec(s) for s in list_bicyclic(3)}
        assert got == {"infty:1,1", "theta:0,1;0"}

    def test_n4(self):
        got = {format_spec(s) for s in list_bicyclic(4)}
        assert got == {"infty:1,2", "theta:0,1;1", "theta:0,2;0", "theta:1,1;0"}

    def test_too_small(self):
        with pytest.raises(InfeasibleError):
            list_bicyclic(2)

    def test_classes_distinct_and_bicyclic(self):
        for n in (5, 6, 7):
            specs = list_bicyclic(n)
            keys = set()
            for spec in specs:
                d = generate(spec)
                assert d.n == n
                assert len(d.arcs) == n + 1  # bicyclic: |E| = |V| + 1
                keys.add(canonical_key(d))
            assert len(keys) == len(specs)


class TestSpecSyntax:
    @pytest.mark.parametrize(
        "text,kind,n",
        [
            ("cycle:5", "cycle", 5),
            ("complete:4", "complete", 4),
            ("kpq:3,2", "kpq", 5),
            ("infty:1,2,3", "infty", 7),
            ("theta:0,1;2", "theta", 5),
            ("bip5:8,2,2", "bip5", 8),
            ("gprime:6", "gprime", 6),
            ("g1:6", "g1", 6),
            ("g2:6", "g2", 6),
        ],
    )
    def test_parse(self, text, kind, n):
        spec = parse_spec(text)
        assert spec.kind == kind
        assert spec.n_vertices == n

    def test_round_trip(self):
        for spec in all_small_specs():
            assert parse_spec(format_spec(spec)) == spec

    def test_theta_example(self):
        spec = parse_spec("theta:0,1;2")
        assert spec.ks == (0, 1) and spec.l1 == 2

    def test_bip1_parity_rejected(self):
        with pytest.raises(InvalidSpecError):
            parse_spec("bip1:8,2,2")

    @pytest.mark.parametrize(
        "text",
        ["", "cycle", "cycle:", "nope:3", "theta:0,1", "kpq:2", "cycle:2,3", "infty:1,a", "bip1:8,2",
         "theta:0,1;2,3"],
    )
    def test_parse_errors(self, text):
        with pytest.raises((ParseError, InvalidSpecError)):
            parse_spec(text)

    @pytest.mark.parametrize("attr", ["ks", "l1", "npq"])
    def test_accessor_of_another_kind(self, attr):
        with pytest.raises(InvalidSpecError, match="^cycle has no "):
            getattr(FamilySpec.cycle(3), attr)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_spec("nope:3")
        # the unknown kind is caught at position 0, before any spec is made
        assert err.value.pos == 0 and err.value.expected is not None
