"""Domain types for the joint vision-language structure.

Dependency trees are stored as head arrays (index 0 is the artificial
ROOT, tokens are 1-based). Scene graphs are typed node sets (OBJECT,
ATTRIBUTE, RELATIONSHIP) over image regions. Alignments map tree
instances (tokens, arcs, token triples) onto scene-graph nodes.

This module owns the visual-node vocabulary: the ids of proposal nodes
(``ProposalNodes``), the image node, and every node's geometry, gold
(``SceneGraph.visual_node``) or proposal. The model grounds onto these
nodes and the metrics score them; neither names or parses a node id.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np


class NodeType(Enum):
    OBJECT = "OBJECT"
    ATTRIBUTE = "ATTRIBUTE"
    RELATIONSHIP = "RELATIONSHIP"


@dataclass(frozen=True)
class Token:
    """One token of a caption; ``index`` is 1-based sentence position."""

    index: int
    surface: str
    pos: int
    lemma: str = ""

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if self.pos < 0:
            raise ValueError(f"pos tag id must be >= 0, got {self.pos}")


def validate_tree(heads: Sequence[int], n: Optional[int] = None) -> Optional[str]:
    """Check a head array for dependency-tree well-formedness.

    Returns None when ``heads`` encodes a valid single-root projective
    tree, otherwise a short report naming the first violated property.
    ``heads[i]`` is the head of token i+1; 0 means ROOT.
    """
    heads = list(heads)
    if n is None:
        n = len(heads)
    if len(heads) != n:
        return f"expected {n} head entries, got {len(heads)}"
    if n == 0:
        return "empty sentence"
    for i, h in enumerate(heads):
        if not 0 <= h <= n:
            return f"head of token {i + 1} out of range: {h}"
        if h == i + 1:
            return f"token {i + 1} is its own head"
    # Cycle check: every token must reach ROOT by following heads.
    for start in range(1, n + 1):
        seen = set()
        cur = start
        while cur != 0:
            if cur in seen:
                return f"cycle through token {start}"
            seen.add(cur)
            cur = heads[cur - 1]
    roots = [i + 1 for i, h in enumerate(heads) if h == 0]
    if len(roots) != 1:
        return f"expected exactly one root, found {len(roots)}"
    # Projectivity: all tokens strictly between h and d must descend from h.
    for d in range(1, n + 1):
        h = heads[d - 1]
        if h == 0:
            continue
        lo, hi = min(h, d), max(h, d)
        for m in range(lo + 1, hi):
            cur = m
            while cur != 0 and cur != h:
                cur = heads[cur - 1]
            if cur != h:
                return f"arc {h}->{d} crosses token {m}"
    return None


@dataclass(frozen=True, slots=True)
class DependencyTree:
    """A projective dependency tree over a tokenized caption.

    ``heads`` has one entry per token (0 = ROOT). ``types`` carries the
    per-token node type once assigned. ``labels`` holds typed dependency
    labels when the corpus provides silver trees.
    """

    tokens: tuple[Token, ...]
    heads: tuple[int, ...]
    types: Optional[tuple[NodeType, ...]] = None
    labels: Optional[tuple[str, ...]] = None
    sentence_id: str = ""

    def __post_init__(self):
        report = validate_tree(self.heads, len(self.tokens))
        if report is not None:
            raise ValueError(f"invalid tree ({self.sentence_id or '?'}): {report}")
        for name, extra in (("types", self.types), ("labels", self.labels)):
            if extra is not None and len(extra) != len(self.tokens):
                raise ValueError(f"{name} length does not match token count")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def root(self) -> int:
        return self.heads.index(0) + 1


@dataclass(frozen=True)
class Instances:
    """Zero/first/second-order instances of a tree.

    ``second`` triples are canonical ``(x, m, y)`` with m the shared
    token: chains have an arc x->m->y, siblings have x and y both
    headed by m (x < y).
    """

    zero: tuple[int, ...]
    first: tuple[tuple[int, int], ...]
    second: tuple[tuple[int, int, int], ...]


def tree_to_instances(tree: DependencyTree | Sequence[int]) -> Instances:
    """Enumerate zero-order tokens, first-order arcs, second-order triples.

    ROOT arcs are excluded from ``first``. Second-order patterns cover
    grandparent chains g->h->d and sibling pairs d1<-h->d2, deduplicated.
    A ``DependencyTree`` was validated when it was built; a head sequence
    is validated here.
    """
    if isinstance(tree, DependencyTree):
        tree = tree.heads
    elif (report := validate_tree(tree)) is not None:
        raise ValueError(f"invalid tree: {report}")
    heads = list(tree)
    n = len(heads)
    zero = tuple(range(1, n + 1))
    first = tuple((heads[d - 1], d) for d in range(1, n + 1) if heads[d - 1] != 0)
    second = set()
    for (h, d) in first:
        g = heads[h - 1]
        if g != 0:
            second.add((g, h, d))
    by_head: dict[int, list[int]] = {}
    for (h, d) in first:
        by_head.setdefault(h, []).append(d)
    for h, deps in by_head.items():
        deps = sorted(deps)
        for i in range(len(deps)):
            for j in range(i + 1, len(deps)):
                second.add((deps[i], h, deps[j]))
    return Instances(zero=zero, first=first, second=tuple(sorted(second)))


def second_order_arcs(heads: Sequence[int], triple: tuple[int, int, int]
                      ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two tree arcs realizing a canonical second-order triple."""
    x, m, y = triple
    if heads[m - 1] == x:
        return (x, m), (m, y)
    if heads[x - 1] == m and heads[y - 1] == m:
        return (m, x), (m, y)
    raise ValueError(f"triple {triple} is not a chain or sibling pattern")


# ---------------------------------------------------------------------------
# Scene graphs


Box = tuple[float, float, float, float]


def union_box(boxes: Iterable[Optional[Box]]) -> Optional[Box]:
    """The smallest box holding every given box; None when none is given."""
    boxes = [b for b in boxes if b is not None]
    if not boxes:
        return None
    arr = np.asarray(boxes, dtype=float)
    return (float(arr[:, 0].min()), float(arr[:, 1].min()),
            float(arr[:, 2].max()), float(arr[:, 3].max()))


class Regions(NamedTuple):
    """One image's M region proposals: M corner boxes and one C-contiguous
    (M, d) float64 matrix whose row k is the feature of box k."""

    boxes: Sequence[Box]
    feats: np.ndarray


@dataclass(frozen=True)
class VisualNode:
    """One typed visual node with enough geometry to evaluate grounding:
    an object's or attribute's box (an attribute's is its owner's), a
    relationship's (src box, dst box)."""

    id: str
    type: NodeType
    box: Optional[Box] = None
    endpoints: Optional[tuple[Optional[Box], Optional[Box]]] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    owner: Optional[str] = None


# the id of the whole-image node, in proposal and gold node sets alike
IMAGE_ID = "img"


def image_node(boxes: Iterable[Optional[Box]]) -> VisualNode:
    """The whole-image node ``img``: an object over the union of ``boxes``."""
    return VisualNode(IMAGE_ID, NodeType.OBJECT, box=union_box(boxes))


class ProposalNodes(Sequence):
    """The canonical nodes over M proposal boxes as a read-only sequence:
    M objects ``obj:K``, M attributes ``attr:K``, the M(M-1) ordered-pair
    relationships ``rel:I:J`` (row-major, I != J), then the image node
    ``img``; no boxes, no nodes. Node k is computed from k and the boxes
    when it is read; only the image node is kept once built."""

    def __init__(self, boxes: Sequence[Box]):
        self._boxes = boxes
        self._image: Optional[VisualNode] = None

    def __len__(self) -> int:
        m = len(self._boxes)
        return m * m + m + 1 if m else 0

    @property
    def relationships(self) -> range:
        """The indices of the relationship nodes."""
        return range(2 * len(self._boxes), len(self) - 1)

    def __getitem__(self, k) -> VisualNode:
        boxes, size = self._boxes, len(self)
        k = operator.index(k)
        if not -size <= k < size:
            raise IndexError(f"node index {k} out of range for {size} nodes")
        k %= size
        m = len(boxes)
        if k < m:
            return VisualNode(f"obj:{k}", NodeType.OBJECT, box=boxes[k])
        if k < 2 * m:
            k -= m
            return VisualNode(f"attr:{k}", NodeType.ATTRIBUTE, box=boxes[k], owner=f"obj:{k}")
        if k < size - 1:
            i, j = divmod(k - 2 * m, m - 1)
            j += j >= i     # skip the diagonal pair (i, i)
            return VisualNode(f"rel:{i}:{j}", NodeType.RELATIONSHIP,
                              endpoints=(boxes[i], boxes[j]), src=f"obj:{i}", dst=f"obj:{j}")
        if self._image is None:
            self._image = image_node(boxes)
        return self._image

    def find(self, node_id: str) -> Optional[VisualNode]:
        """The node whose id is ``node_id``, or None; the inverse of
        indexing. The id is read as the index it would have, and that
        node is returned only if its id is ``node_id``, so exactly the
        ids that indexing produces resolve."""
        m, size = len(self._boxes), len(self)
        kind, *parts = node_id.split(":")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            return None
        if node_id == IMAGE_ID:
            k = size - 1
        elif kind in ("obj", "attr") and len(nums) == 1:
            k = nums[0] + (m if kind == "attr" else 0)
        elif kind == "rel" and len(nums) == 2:
            i, j = nums
            k = 2 * m + i * (m - 1) + j - (j > i)
        else:
            return None
        if not 0 <= k < size:
            return None
        node = self[k]
        return node if node.id == node_id else None


@dataclass(frozen=True)
class SGObject:
    id: str
    bbox: Optional[Box] = None
    label: Optional[str] = None


@dataclass(frozen=True)
class SGAttribute:
    id: str
    owner: str
    label: Optional[str] = None


@dataclass(frozen=True)
class SGRelationship:
    id: str
    src: str
    dst: str
    label: Optional[str] = None


@dataclass(frozen=True)
class SceneGraph:
    """Typed scene-graph node set for one image.

    Gold graphs carry labels and boxes, which ``data.load_scene_graphs``
    checks when it reads them. Every object owns exactly one
    attribute node and each ordered object pair has at most one
    relationship node. The relationships are indexed by ordered
    endpoint pair and by incident object, each index built once, when
    it is first read, so loading a graph builds neither.
    """

    image_id: str
    objects: tuple[SGObject, ...]
    attributes: tuple[SGAttribute, ...] = ()
    relationships: tuple[SGRelationship, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {n.id: n for n in self.nodes()})

    @cached_property
    def _by_pair(self) -> dict[tuple[str, str], SGRelationship]:
        by_pair: dict[tuple[str, str], SGRelationship] = {}
        for r in self.relationships:
            by_pair.setdefault((r.src, r.dst), r)
        return by_pair

    @cached_property
    def _incident(self) -> dict[str, tuple[SGRelationship, ...]]:
        incident: dict[str, list[SGRelationship]] = {}
        for r in self.relationships:
            incident.setdefault(r.src, []).append(r)
            if r.dst != r.src:
                incident.setdefault(r.dst, []).append(r)
        return {node: tuple(rels) for node, rels in incident.items()}

    def validate(self) -> None:
        ids = [n.id for n in self.nodes()]
        if len(ids) != len(set(ids)):
            raise ValueError(f"{self.image_id}: duplicate node ids")
        obj_ids = {o.id for o in self.objects}
        owners = [a.owner for a in self.attributes]
        if sorted(owners) != sorted(obj_ids):
            raise ValueError(f"{self.image_id}: need exactly one attribute per object")
        pairs = set()
        for r in self.relationships:
            if r.src not in obj_ids or r.dst not in obj_ids:
                raise ValueError(f"{self.image_id}: relationship {r.id} has dangling endpoint")
            if r.src == r.dst:
                raise ValueError(f"{self.image_id}: relationship {r.id} is a self loop")
            if (r.src, r.dst) in pairs:
                raise ValueError(f"{self.image_id}: duplicate relationship for pair {(r.src, r.dst)}")
            pairs.add((r.src, r.dst))

    def nodes(self) -> Iterable[SGObject | SGAttribute | SGRelationship]:
        yield from self.objects
        yield from self.attributes
        yield from self.relationships

    def node(self, node_id: str):
        return self._by_id.get(node_id)

    def relationship(self, src: str, dst: str) -> Optional[SGRelationship]:
        """The first relationship from ``src`` to ``dst``, if any."""
        return self._by_pair.get((src, dst))

    def incident(self, node_id: str) -> tuple[SGRelationship, ...]:
        """Relationships with ``node_id`` as an endpoint, in graph order."""
        return self._incident.get(node_id, ())

    def visual_node(self, node_id: str) -> Optional[VisualNode]:
        """Node ``node_id`` with its geometry, or None: an attribute takes
        its owner's box, a relationship its endpoints' boxes; a box is
        None where the graph gives none or the id names no object."""
        n = self.node(node_id)
        if isinstance(n, SGObject):
            return VisualNode(n.id, NodeType.OBJECT, box=n.bbox)
        if isinstance(n, SGAttribute):
            return VisualNode(n.id, NodeType.ATTRIBUTE, box=self._box(n.owner), owner=n.owner)
        if isinstance(n, SGRelationship):
            return VisualNode(n.id, NodeType.RELATIONSHIP, src=n.src, dst=n.dst,
                              endpoints=(self._box(n.src), self._box(n.dst)))
        return None

    def _box(self, node_id: str) -> Optional[Box]:
        n = self.node(node_id)
        return n.bbox if isinstance(n, SGObject) else None

    def adjacent(self, a: str, b: str) -> bool:
        """Structural adjacency between two nodes.

        Holds when one node is a relationship incident to the other,
        when an attribute meets its owner object, or when two objects
        are connected through one relationship node.
        """
        na, nb = self.node(a), self.node(b)
        if na is None or nb is None or a == b:
            return False
        for x, y in ((na, nb), (nb, na)):
            if isinstance(x, SGRelationship) and isinstance(y, SGObject):
                if y.id in (x.src, x.dst):
                    return True
            if isinstance(x, SGAttribute) and isinstance(y, SGObject):
                if x.owner == y.id:
                    return True
        if isinstance(na, SGObject) and isinstance(nb, SGObject):
            return (a, b) in self._by_pair or (b, a) in self._by_pair
        return False


# ---------------------------------------------------------------------------
# Alignments


@dataclass(frozen=True)
class FirstAlignment:
    """A tree arc grounded to a relationship node and its endpoints."""

    relationship: str
    endpoints: tuple[str, str]


@dataclass(frozen=True)
class VLAlignment:
    """Zero/first/second-order grounding of one sentence onto one scene graph."""

    sentence_id: str
    zero: dict[int, str] = field(default_factory=dict)
    first: dict[tuple[int, int], FirstAlignment] = field(default_factory=dict)
    second: dict[tuple[int, int, int], tuple[str, str, str]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def validate(self, tree: DependencyTree, sg: SceneGraph) -> None:
        n = len(tree)
        inst = tree_to_instances(tree)
        arcs, triples = set(inst.first), set(inst.second)
        for t, node in self.zero.items():
            if not 1 <= t <= n:
                raise ValueError(f"{self.sentence_id}: zero entry for missing token {t}")
            if sg.node(node) is None:
                raise ValueError(f"{self.sentence_id}: zero entry maps to unknown node {node}")
        for arc, fa in self.first.items():
            if arc not in arcs:
                raise ValueError(f"{self.sentence_id}: first entry {arc} is not a tree arc")
            rel = sg.node(fa.relationship)
            if not isinstance(rel, SGRelationship):
                raise ValueError(f"{self.sentence_id}: first entry {arc} maps to non-relationship")
            for node in fa.endpoints:
                if sg.node(node) is None:
                    raise ValueError(f"{self.sentence_id}: first endpoint {node} unknown")
        for triple in self.second:
            if triple not in triples:
                raise ValueError(f"{self.sentence_id}: second entry {triple} not in tree")
