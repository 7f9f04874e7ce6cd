import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vgram
from vgram.core import (
    DependencyTree,
    NodeType,
    ProposalNodes,
    SceneGraph,
    SGAttribute,
    SGObject,
    SGRelationship,
    Token,
    VisualNode,
    image_node,
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

    def test_visual_node(self):
        sg = _toy_sg()
        box0, box1 = (0, 0, 10, 10), (20, 0, 30, 10)
        assert sg.visual_node("o0") == VisualNode("o0", NodeType.OBJECT, box=box0)
        assert sg.visual_node("a1") == VisualNode("a1", NodeType.ATTRIBUTE, box=box1,
                                                  owner="o1")
        assert sg.visual_node("r0") == VisualNode("r0", NodeType.RELATIONSHIP,
                                                  endpoints=(box0, box1), src="o0", dst="o1")
        assert [sg.visual_node(n.id).type for n in sg.nodes()] == [
            NodeType.OBJECT, NodeType.OBJECT, NodeType.ATTRIBUTE, NodeType.ATTRIBUTE,
            NodeType.RELATIONSHIP]
        for unknown in ("o9", "img", "obj:0", ""):
            assert sg.visual_node(unknown) is None

    def test_adjacency(self):
        sg = _toy_sg()
        assert sg.adjacent("o0", "r0")
        assert sg.adjacent("r0", "o1")
        assert sg.adjacent("o0", "o1")  # through r0
        assert sg.adjacent("a0", "o0")
        assert not sg.adjacent("a0", "o1")
        assert not sg.adjacent("a0", "r0")


def _boxes(m):
    return [(float(k), 0.0, float(10 + 2 * k), float(10 + k)) for k in range(m)]


class TestProposalNodes:
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_every_node_finds_itself(self, m):
        nodes = ProposalNodes(_boxes(m))
        assert len(nodes) == m * m + m + 1
        for node in nodes:
            assert nodes.find(node.id) == node, node.id
        assert nodes.find("img") == image_node(_boxes(m))

    @pytest.mark.parametrize("node_id", [
        "rel:2:2", "obj:01", "attr:0002", "obj:\u0661", "obj:-1", "rel:1:0:0", "obj:",
        "obj:3", "attr:3", "rel:0:3", "rel:3:0", "obj:+1", "obj: 1", "attr:1_0",
        "obj:0:1", "rel:1", "img:0", "obj", "o1", ""])
    def test_ids_outside_the_grammar_resolve_to_none(self, node_id):
        assert ProposalNodes(_boxes(3)).find(node_id) is None

    def test_no_boxes_no_nodes(self):
        nodes = ProposalNodes([])
        assert len(nodes) == 0 and list(nodes) == []
        assert nodes.find("img") is None and nodes.find("obj:0") is None


def _node_id_literals(path):
    """String constants of a module that spell a visual-node id: f-string
    parts included, docstrings skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
                  and n.body and isinstance(n.body[0], ast.Expr)
                  and isinstance(n.body[0].value, ast.Constant)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            and (node.value == "img" or node.value.startswith(("obj:", "attr:", "rel:")))]


def test_node_ids_are_spelled_only_in_core():
    src = Path(vgram.__file__).parent
    found = [f"{path.name}:{line}: {value!r}" for path in sorted(src.glob("*.py"))
             if path.name != "core.py" for line, value in _node_id_literals(path)]
    assert found == []
    # the scan sees the vocabulary where it lives
    in_core = {value for _, value in _node_id_literals(src / "core.py")}
    assert in_core >= {"obj:", "attr:", "rel:", "img"}


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
