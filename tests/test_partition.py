from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbound.circuit import (
    ConnectivityGraph,
    Embedding,
    boundary,
    grid_graph,
    validate_embedding,
)
from locbound.files import ParseError, parse_embedded_graph_lines, read_embedded_graph_file
from locbound.partition import (
    boundary_budget,
    cell_side,
    check_guarantees,
    grid_partition,
    kappa_default,
)


def test_four_by_four():
    g, e = grid_graph((4, 4))
    p = grid_partition(e, g, 4)
    assert p.count == 4
    assert p.sizes == (4, 4, 4, 4)
    assert sorted(int(r) for b in p.blocks for r in b) == list(range(g.m))
    # rows map back to labels through the graph's vertex order
    assert [g.vertices[r] for r in p.blocks[0]] == ["0", "4", "8", "12"]


def test_lam_at_least_m_single_block():
    g, e = grid_graph((4, 4))
    p = grid_partition(e, g, 16)
    assert p.count == 1
    assert p.boundary_sizes == (0,)


def test_single_vertex():
    g, e = grid_graph((1,))
    p = grid_partition(e, g, 3)
    assert [b.tolist() for b in p.blocks] == [[0]]
    assert p.blocks[0].dtype == np.int64


def test_disjoint_cover_and_size_bound():
    rng = np.random.default_rng(0)
    g, e = grid_graph((7, 5))
    for lam in (1, 2, 3, 5, 8, 20, 35):
        p = grid_partition(e, g, lam)
        flat = [int(r) for b in p.blocks for r in b]
        assert sorted(flat) == list(range(g.m))
        assert all((np.diff(b) > 0).all() for b in p.blocks)  # ascending rows
        assert len(set(flat)) == len(flat)
        assert max(p.sizes) <= lam


def test_boundary_sizes_consistent_with_graph():
    g, e = grid_graph((5, 5))
    p = grid_partition(e, g, 4)
    for block, size in zip(p.blocks, p.boundary_sizes):
        assert size == len(boundary(g, [g.vertices[r] for r in block]))


def test_lam_one_singletons():
    g, e = grid_graph((3, 3))
    p = grid_partition(e, g, 1)
    assert all(len(b) == 1 for b in p.blocks)
    deg = Counter(v for edge in g.edges for v in edge)
    budget = kappa_default(1.0, 2) * 1.0
    for block, size in zip(p.blocks, p.boundary_sizes):
        v = g.vertices[block[0]]
        assert size == (1 + deg[v] if deg[v] else 0)
        assert size <= budget


def test_check_guarantees_dense_grid():
    g, e = grid_graph((32, 32))
    gu = check_guarantees(grid_partition(e, g, 16), e, 16, dense=True)
    assert gu.ok
    assert gu.size_ok and gu.boundary_ok and gu.count_ok
    # the count budget 2 ceil(m / lam) takes m from the partition itself
    assert gu.count_note == f"{gu.count} <= 128"


def test_check_guarantees_sparse():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 60, size=(150, 2))
    # enforce unit spacing by rounding onto a coarse lattice and dropping dups
    pts = np.unique(np.round(pts / 1.5) * 1.5, axis=0)
    labels = [str(i) for i in range(len(pts))]
    edges = [
        (labels[i], labels[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if np.linalg.norm(pts[i] - pts[j]) <= 1.6
    ]
    g = ConnectivityGraph(labels, edges)
    emb = Embedding(pts, c=1.6)
    p = grid_partition(emb, g, 16)
    gu = check_guarantees(p, emb, 16, dense=False)
    assert gu.size_ok and gu.boundary_ok
    assert gu.count_ok is None
    assert "sparse" in gu.count_note


def test_grid_sweep_small():
    for shape in ((64,), (8, 8), (4, 4, 4)):
        g, e = grid_graph(shape)
        lam = 1
        while lam <= g.m:
            p = grid_partition(e, g, lam)
            gu = check_guarantees(p, e, lam, dense=True)
            assert gu.ok, (shape, lam, gu)
            lam *= 2


def _reference_blocks(points, lam, merge=True):
    """Cells in row-major order (first axis fastest) by a Python sort on
    per-axis cell tuples, greedily merged while a block stays within lam
    (each cell its own block when merge is False); each block as its
    sorted rows."""
    side = cell_side(lam, points.shape[1])
    cells = np.floor((points - points.min(axis=0)) / side).astype(np.int64)
    groups: dict = {}
    for row in sorted(range(len(points)), key=lambda r: (tuple(cells[r][::-1]), r)):
        groups.setdefault(tuple(cells[row][::-1]), []).append(row)
    if not merge:
        return [sorted(grp) for grp in groups.values()]
    blocks, acc = [], []
    for grp in groups.values():
        if acc and len(acc) + len(grp) > lam:
            blocks.append(sorted(acc))
            acc = []
        acc += grp
    return blocks + [sorted(acc)]


def _boundary_of(g, block):
    return len(boundary(g, [g.vertices[r] for r in block]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_partition_matches_reference(dim):
    rng = np.random.default_rng(dim)
    c = 1.5
    rollbacks = 0
    for trial in range(20):
        # distinct lattice points at spacing >= 1, with a huge offset on one
        # axis so a combined cell key would not fit in int64 at lam = 1 (nor
        # a per-axis key in 16 bits)
        pts = np.unique(rng.integers(0, 12, size=(40, dim)), axis=0).astype(float)
        pts[:, -1] *= 2.0 ** 40 if trial % 4 == 0 else 1.0
        rng.shuffle(pts)
        labels = [str(i) for i in range(len(pts))]
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        g = ConnectivityGraph(labels, [(labels[i], labels[j])
                                       for i, j in np.argwhere(np.triu(dist <= c, 1))])
        emb = Embedding(pts, c=c)
        kappa = 2.0 if trial % 2 else None  # a tight budget on odd trials forces rollbacks
        for lam in (1, 2, 5, 16, 64):
            p = grid_partition(emb, g, lam, kappa=kappa)
            blocks = [b.tolist() for b in p.blocks]
            merged = _reference_blocks(pts, lam)
            cells = _reference_blocks(pts, lam, merge=False)
            # the rollback rule: keep the cells when merging merged some and
            # a merged block breaks the boundary budget
            roll_back = (len(merged) < len(cells) and max(_boundary_of(g, b) for b in merged)
                         > boundary_budget(lam, c, dim, kappa))
            rollbacks += roll_back
            assert p.merged is not roll_back
            assert blocks == (cells if roll_back else merged)
            assert p.boundary_sizes == tuple(_boundary_of(g, b) for b in blocks)
            assert p.sizes == tuple(map(len, blocks))
            assert p.count == len(blocks)
    assert 0 < rollbacks < 100  # both the merged and the rolled-back path ran


def test_rollback_keeps_cells():
    g, e = grid_graph((8, 8))
    lam = 4  # cells are single points, merged four to a row segment
    p = grid_partition(e, g, lam, kappa=0.5)  # budget 0.5 * 4^(1/2) = 1
    assert not p.merged
    assert p.note == "merging disabled: merged blocks would break the boundary bound"
    assert [b.tolist() for b in p.blocks] == _reference_blocks(e.points, lam, merge=False)
    assert len(_reference_blocks(e.points, lam)) < p.count
    gu = check_guarantees(p, e, lam, kappa=0.5, dense=True)
    assert gu.count_note == "not applicable (merging disabled)"
    assert p.boundary_sizes == tuple(_boundary_of(g, b) for b in p.blocks)


def test_blocks_built_on_first_read():
    g, e = grid_graph((6, 6))
    p = grid_partition(e, g, 4)
    assert p.count == 9 and "blocks" not in vars(p)  # count reads the sizes
    assert p.blocks is p.blocks  # built once, then cached
    assert tuple(map(len, p.blocks)) == p.sizes


def test_coordinate_magnitude_bound():
    ok = parse_embedded_graph_lines(["dim 1", f"point a {2 ** 52}", f"point b -{2 ** 52}"])
    assert ok[1].points[:, 0].tolist() == [2.0 ** 52, -(2.0 ** 52)]
    with pytest.raises(ParseError, match="line 3: coordinate .* exceeds 2\\^52"):
        parse_embedded_graph_lines(["dim 2", "point a 0 0", f"point b 0 {2 ** 52 + 2}"])


def test_overfull_cell_raises():
    # two points closer than unit spacing sneak past lam = 1 cells
    g = ConnectivityGraph(["0", "1"], [])
    emb = Embedding(np.array([[0.1, 0.1], [0.6, 0.1]]), c=1.0)
    with pytest.raises(ValueError, match="cell with"):
        grid_partition(emb, g, 1)


def test_embedded_graph_file(tmp_path):
    text = "\n".join([
        "dim 2",
        "c 1.5",
        "point a 0 0",
        "point b 1 0",
        "point c 0 1",
        "edge a b",
        "edge a c",
    ]) + "\n"
    path = tmp_path / "g.graph"
    path.write_text(text)
    graph, emb = read_embedded_graph_file(path)
    assert graph.m == 3
    assert emb.dimension == 2
    assert emb.c == 1.5
    # row i of the points is the i-th point line
    assert graph.vertices == ("a", "b", "c")
    assert emb.points.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    with pytest.raises(ParseError) as err:
        parse_embedded_graph_lines(["dim 2", "point a 0"])
    assert "line 2" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_embedded_graph_lines(["dim 2", "point a 0 0", "edge a zz"])
    assert "line 3" in str(err.value)

    with pytest.raises(ParseError):
        parse_embedded_graph_lines(["point a 0 0"])


def test_point_count_must_match_graph():
    g, e = grid_graph((2, 2))
    short = Embedding(e.points[:3], e.c)
    with pytest.raises(ValueError, match="3 points for 4 vertices"):
        grid_partition(short, g, 2)
    with pytest.raises(ValueError, match="3 points for 4 vertices"):
        validate_embedding(short, g)
    with pytest.raises(ValueError):
        Embedding(np.zeros(4))  # a flat array is not (m, D)


@pytest.mark.parametrize("c, nan_at, match", [
    (float("nan"), None, "c must be positive and finite, got nan"),
    (float("inf"), None, "c must be positive and finite, got inf"),
    (0.0, None, "c must be positive and finite, got 0.0"),
    (-1.0, None, "c must be positive and finite, got -1.0"),
    (1.0, (2, 1), r"point 2 is not finite: \[1.0, nan\]"),
])
def test_embedding_refuses_a_nan_point_or_a_bad_c(c, nan_at, match):
    _, e = grid_graph((2, 2))
    points = e.points.copy()
    if nan_at is not None:
        points[nan_at] = np.nan
    with pytest.raises(ValueError, match=match):
        Embedding(points, c)


def _words(*parts):
    return st.tuples(*parts).map(
        lambda ws: " ".join(w if isinstance(w, str) else " ".join(w) for w in ws))


_LABEL = st.sampled_from(["a", "b", "c"])
_GRAPH_LINE = st.one_of(
    _words(st.just("dim"), st.sampled_from(["1", "2", "0", "-1", "\u00b2"])),
    _words(st.just("c"), st.sampled_from(["1", "1.5", "-1", "nan", "inf", "x"])),
    _words(st.just("point"), _LABEL,
           st.lists(st.sampled_from(["0", "1", "2", "0.5", "nan", "1e999"]), max_size=3)),
    _words(st.just("edge"), _LABEL, _LABEL),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["dim 1", "dim 2", "dim \u00b2", ""]), st.lists(_GRAPH_LINE, max_size=6))
def test_parse_embedded_graph_lines_accepts_or_reports(head, lines):
    # any line list is a (graph, embedding) pair or a ParseError, never
    # another exception; the head line makes well-formed files common
    try:
        graph, emb = parse_embedded_graph_lines([head, *lines])
    except ParseError:
        return
    assert emb.points.shape == (graph.m, emb.dimension)
    assert np.isfinite(emb.points).all() and np.isfinite(emb.c) and emb.c > 0
