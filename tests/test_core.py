import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgram.core import (
    DependencyTree,
    NodeType,
    SceneGraph,
    SGAttribute,
    SGObject,
    SGRelationship,
    Token,
    second_order_arcs,
    tree_to_instances,
    validate_tree,
)


def brute_projective(heads):
    """Projectivity check by explicit descendant enumeration."""
    n = len(heads)
    children = {h: [] for h in range(n + 1)}
    for d, h in enumerate(heads, start=1):
        children.setdefault(h, []).append(d)

    def descendants(h):
        out = set()
        stack = list(children.get(h, []))
        while stack:
            x = stack.pop()
            out.add(x)
            stack.extend(children.get(x, []))
        return out

    for d, h in enumerate(heads, start=1):
        if h == 0:
            continue
        desc = descendants(h)
        for m in range(min(h, d) + 1, max(h, d)):
            if m not in desc:
                return False
    return True


def brute_valid(heads):
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return False
    for d, h in enumerate(heads, start=1):
        if not 0 <= h <= n or h == d:
            return False
    for start in range(1, n + 1):
        seen, cur = set(), start
        while cur != 0:
            if cur in seen:
                return False
            seen.add(cur)
            cur = heads[cur - 1]
    return brute_projective(heads)


class TestValidateTree:
    def test_single_token(self):
        assert validate_tree([0]) is None

    def test_two_tokens(self):
        assert validate_tree([2, 0]) is None
        assert "cycle" in validate_tree([2, 1])

    def test_nested_ok_and_crossing(self):
        assert validate_tree([0, 3, 1]) is None
        assert "crosses" in validate_tree([2, 0, 1])

    def test_multiple_roots(self):
        assert "root" in validate_tree([0, 0])

    def test_out_of_range(self):
        assert "range" in validate_tree([5, 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_brute_force(self, n):
        for heads in itertools.product(range(n + 1), repeat=n):
            assert (validate_tree(list(heads)) is None) == brute_valid(list(heads))


def _toy_tree(heads, words=None):
    n = len(heads)
    words = words or [f"w{i}" for i in range(1, n + 1)]
    toks = tuple(Token(i, w, 0, w) for i, w in enumerate(words, start=1))
    return DependencyTree(tokens=toks, heads=tuple(heads))


class TestInstances:
    def test_single_token(self):
        inst = tree_to_instances(_toy_tree([0]))
        assert inst.zero == (1,)
        assert inst.first == ()
        assert inst.second == ()

    def test_chain(self):
        inst = tree_to_instances(_toy_tree([0, 1, 2]))
        assert set(inst.first) == {(1, 2), (2, 3)}
        assert inst.second == ((1, 2, 3),)

    def test_siblings(self):
        inst = tree_to_instances(_toy_tree([0, 1, 1]))
        assert set(inst.first) == {(1, 2), (1, 3)}
        assert inst.second == ((2, 1, 3),)

    def test_first_count_property(self):
        for heads in ([0, 1, 2, 2], [2, 0, 2, 3], [0, 1, 1, 1]):
            inst = tree_to_instances(_toy_tree(heads))
            assert len(inst.first) == len(heads) - 1

    def test_second_oracle_small_trees(self):
        # oracle: enumerate triples directly from the adjacency relation
        for heads in ([0, 1, 2, 2], [2, 0, 2, 3], [0, 1, 1, 1], [0, 1, 2, 3]):
            n = len(heads)
            arcs = {(heads[d - 1], d) for d in range(1, n + 1) if heads[d - 1] != 0}
            chains = {(g, h, d) for (g, h) in arcs for (h2, d) in arcs if h2 == h}
            sibs = {(a, h, b) for (h, a) in arcs for (h2, b) in arcs
                    if h2 == h and a < b}
            inst = tree_to_instances(_toy_tree(heads))
            assert set(inst.second) == chains | sibs

    def test_second_order_arcs(self):
        heads = [0, 1, 2, 2]
        assert second_order_arcs(heads, (1, 2, 3)) == ((1, 2), (2, 3))
        assert second_order_arcs(heads, (3, 2, 4)) == ((2, 3), (2, 4))

    def test_invalid_tree_rejected(self):
        with pytest.raises(ValueError):
            tree_to_instances([1, 2])


def _toy_sg():
    objs = (
        SGObject("o0", bbox=(0, 0, 10, 10), label="dog"),
        SGObject("o1", bbox=(20, 0, 30, 10), label="table"),
    )
    attrs = (
        SGAttribute("a0", owner="o0", label="brown"),
        SGAttribute("a1", owner="o1", label="plain"),
    )
    rels = (SGRelationship("r0", src="o0", dst="o1", label="near"),)
    return SceneGraph("img0", objs, attrs, rels)


class TestSceneGraph:
    def test_validate_ok(self):
        _toy_sg().validate()

    def test_one_attribute_per_object(self):
        sg = SceneGraph("img", (SGObject("o0", bbox=(0, 0, 1, 1)),), ())
        with pytest.raises(ValueError):
            sg.validate()

    def test_duplicate_pair_rejected(self):
        sg = _toy_sg()
        bad = SceneGraph(sg.image_id, sg.objects, sg.attributes,
                         sg.relationships + (SGRelationship("r1", "o0", "o1"),))
        with pytest.raises(ValueError):
            bad.validate()

    def test_node_types(self):
        sg = _toy_sg()
        assert sg.node_type("o0") is NodeType.OBJECT
        assert sg.node_type("a0") is NodeType.ATTRIBUTE
        assert sg.node_type("r0") is NodeType.RELATIONSHIP

    def test_adjacency(self):
        sg = _toy_sg()
        assert sg.adjacent("o0", "r0")
        assert sg.adjacent("r0", "o1")
        assert sg.adjacent("o0", "o1")  # through r0
        assert sg.adjacent("a0", "o0")
        assert not sg.adjacent("a0", "o1")
        assert not sg.adjacent("a0", "r0")


@st.composite
def loose_graphs(draw):
    """Unvalidated graphs: duplicate pairs and self loops included."""
    k = draw(st.integers(1, 5))
    objects = tuple(SGObject(f"o{i}") for i in range(k))
    attributes = tuple(SGAttribute(f"a{i}", owner=f"o{i}") for i in range(k))
    ends = st.integers(0, k - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=8))
    rels = tuple(SGRelationship(f"r{n}", src=f"o{i}", dst=f"o{j}")
                 for n, (i, j) in enumerate(pairs))
    return SceneGraph("img", objects, attributes, rels)


def scan_adjacent(sg, a, b):
    na, nb = sg.node(a), sg.node(b)
    if na is None or nb is None or a == b:
        return False
    for x, y in ((na, nb), (nb, na)):
        if isinstance(x, SGRelationship) and isinstance(y, SGObject) \
                and y.id in (x.src, x.dst):
            return True
        if isinstance(x, SGAttribute) and isinstance(y, SGObject) and x.owner == y.id:
            return True
    if isinstance(na, SGObject) and isinstance(nb, SGObject):
        return any({r.src, r.dst} == {a, b} for r in sg.relationships)
    return False


@settings(max_examples=80, deadline=None)
@given(loose_graphs())
def test_relationship_indexes_agree_with_a_scan(sg):
    ids = [n.id for n in sg.nodes()] + ["missing"]
    for a in ids:
        assert sg.incident(a) == tuple(r for r in sg.relationships if a in (r.src, r.dst))
        for b in ids:
            assert sg.adjacent(a, b) == scan_adjacent(sg, a, b)
            assert sg.relationship(a, b) is next(
                (r for r in sg.relationships if (r.src, r.dst) == (a, b)), None)
