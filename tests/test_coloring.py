import pytest
from hypothesis import given

from ramseykit.coloring import (
    EdgeColoring,
    dumps_coloring,
    loads_coloring,
    pair_iter,
    pair_rank,
)
from ramseykit.constructions import g2_coloring, g3_coloring, witness_t_path
from ramseykit.errors import DomainError, ParseError

from strategies import colorings


def test_pair_rank_is_lexicographic():
    for n in range(2, 10):
        ranks = [pair_rank(u, v, n) for u, v in pair_iter(n)]
        assert ranks == list(range(n * (n - 1) // 2))


def test_construction_validation():
    with pytest.raises(DomainError):
        EdgeColoring(4, 2, [1, 1, 1, 1, 1])  # five colors for six edges
    with pytest.raises(DomainError):
        EdgeColoring(4, 2, [1, 1, 1, 1, 1, 3])  # color out of range
    with pytest.raises(DomainError):
        EdgeColoring(3, 2, [1, 1, 1], exact_flag=True)  # color 2 unused
    with pytest.raises(DomainError):
        EdgeColoring(0, 1, [])
    with pytest.raises(DomainError):
        EdgeColoring(33, 1, [1] * (33 * 32 // 2))


def test_colors_used_examples():
    all_red = EdgeColoring.constant(4, 1, n_colors=3)
    assert all_red.colors_used() == {1}
    assert sorted(g2_coloring(6).colors_used()) == [1, 2, 3, 4]
    k2 = EdgeColoring(2, 5, [5])
    assert k2.colors_used() == {5}


def test_color_class_examples():
    all_red = EdgeColoring.constant(4, 1, n_colors=2)
    assert all_red.color_class(1).edge_count() == 6
    assert all_red.color_class(2).edge_count() == 0
    assert all_red.color_class(2).n_vertices == 4
    g3 = g3_coloring(5)
    assert g3.color_class(2).edges() == [(0, 1)]
    with pytest.raises(DomainError):
        all_red.color_class(3)
    with pytest.raises(DomainError):
        all_red.color_class(0)


@given(colorings())
def test_partition_property(coloring):
    total = sum(
        coloring.color_class(c).edge_count() for c in range(1, coloring.n_colors + 1)
    )
    assert total == coloring.edge_count()


@given(colorings())
def test_round_trip_identity(coloring):
    again = loads_coloring(dumps_coloring(coloring))
    assert again == coloring
    # writer output is canonical: reading and re-writing is the identity
    text = dumps_coloring(coloring)
    assert dumps_coloring(loads_coloring(text)) == text


def test_serialization_is_deterministic():
    a = witness_t_path(5)
    b = witness_t_path(5)
    assert a == b
    assert dumps_coloring(a) == dumps_coloring(b)


def test_reader_accepts_any_order_and_comments():
    text = "\n".join(
        [
            "# a triangle, all one color",
            "ecg 1",
            "3 1 1",
            "1 2 1",
            "",
            "0 2 1",
            "# interleaved comment",
            "0 1 1",
        ]
    )
    coloring = loads_coloring(text)
    assert coloring.n_vertices == 3
    assert coloring.colors == (1, 1, 1)
    assert coloring.exact_flag


def test_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 1"):
        loads_coloring("egg 1\n2 1 0\n0 1 1\n")
    with pytest.raises(ParseError, match="missing edge \\(0, 2\\)"):
        loads_coloring("ecg 1\n3 1 0\n0 1 1\n1 2 1\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        loads_coloring("ecg 1\n3 1 0\n0 1 1\n0 1 1\n1 2 1\n")
    with pytest.raises(ParseError, match="color 2 outside"):
        loads_coloring("ecg 1\n3 1 0\n0 1 1\n0 2 2\n1 2 1\n")
    with pytest.raises(ParseError, match="exact flag"):
        loads_coloring("ecg 1\n3 1 7\n0 1 1\n0 2 1\n1 2 1\n")
    with pytest.raises(ParseError, match="non-integer"):
        loads_coloring("ecg 1\n3 1 0\n0 1 x\n0 2 1\n1 2 1\n")


def test_exactness_must_hold_on_read():
    # declares two colors, uses one, asserts exactness
    with pytest.raises(ParseError):
        loads_coloring("ecg 1\n3 2 1\n0 1 1\n0 2 1\n1 2 1\n")


def test_triangle_file_example():
    coloring = loads_coloring("ecg 1\n3 1 1\n0 1 1\n0 2 1\n1 2 1\n")
    assert coloring.color_class(1).edge_count() == 3
