"""Dependency accuracy, alignment accuracy, and diagnostics.

Tree metrics compare head arrays; grounding metrics judge a predicted
node against the gold node by box overlap (IoU at 0.5) plus node-type
agreement, with relationship nodes judged on both endpoint boxes.
First/second-order accuracy asks whether the zero-order groundings of
an instance's tokens stay adjacent in the gold scene graph.

``vgram.core`` owns node ids and node geometry: a node id resolves
through ``SceneGraph.visual_node`` or ``ProposalNodes.find``, and this
module only scores the ``VisualNode`` it gets back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from vgram.core import IMAGE_ID, Box, NodeType, ProposalNodes, SceneGraph, VisualNode
from vgram.core import DependencyTree, VLAlignment, image_node, tree_to_instances

IOU_THRESHOLD = 0.5


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two corner-format boxes."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def dda_uda(pred: Sequence[Sequence[int]], gold: Sequence[Sequence[int]],
            root_as_undirected_pair: bool = True,
            exclude: Optional[Sequence[set[int]]] = None) -> tuple[float, float]:
    """Directed and undirected dependency accuracy over token counts.

    A ROOT attachment is directed-correct iff gold also roots the
    token; for UDA the ROOT arc is treated as the unordered pair
    (ROOT, token) unless ``root_as_undirected_pair`` is off, in which
    case ROOT arcs count only when directed-correct. ``exclude`` lists
    1-based token indices (e.g. punctuation) to skip per sentence.
    """
    if len(pred) != len(gold):
        raise ValueError(f"{len(pred)} predicted vs {len(gold)} gold sentences")
    correct_d = correct_u = total = 0
    for k, (p, g) in enumerate(zip(pred, gold)):
        if len(p) != len(g):
            raise ValueError(f"sentence {k}: length mismatch {len(p)} vs {len(g)}")
        skip = exclude[k] if exclude is not None else set()
        gold_pairs = {frozenset((g[d - 1], d)) for d in range(1, len(g) + 1)}
        for d in range(1, len(g) + 1):
            if d in skip:
                continue
            total += 1
            if p[d - 1] == g[d - 1]:
                correct_d += 1
            if root_as_undirected_pair or p[d - 1] != 0:
                if frozenset((p[d - 1], d)) in gold_pairs:
                    correct_u += 1
            elif p[d - 1] == 0 and g[d - 1] == 0:
                correct_u += 1
    if total == 0:
        raise ValueError("no tokens to evaluate")
    return correct_d / total, correct_u / total


def resolve_node(node_id: str, sg: Optional[SceneGraph],
                 regions: Optional[Sequence[Box]] = None) -> Optional[VisualNode]:
    """The node a grounding names: a gold scene-graph id, the graph's
    image node (``img`` over its object boxes, as a gold node set builds
    it) where the graph has no node of that id, or else a proposal id
    over the region list; None for any other id."""
    node = sg.visual_node(node_id) if sg is not None else None
    if node is None and sg is not None and node_id == IMAGE_ID:
        node = image_node(o.bbox for o in sg.objects)
    if node is None and regions is not None:
        node = ProposalNodes(regions).find(node_id)
    return node


def _overlap(a: VisualNode, b: VisualNode) -> float:
    """IoU of two nodes' boxes, for relationships the smaller IoU of the
    two endpoint pairs; 0 where a box is missing."""
    pairs = zip(a.endpoints, b.endpoints) if a.type is NodeType.RELATIONSHIP \
        else ((a.box, b.box),)
    return min(iou(x, y) if x is not None and y is not None else 0.0 for x, y in pairs)


def _grounding_correct(pred: VisualNode, gold: VisualNode) -> bool:
    return pred.type is gold.type and _overlap(pred, gold) >= IOU_THRESHOLD


@dataclass
class ZeroResult:
    accuracy: float
    evaluated: int
    excluded: list[tuple[str, int]]
    by_type: dict[str, tuple[int, int]]


def zero_aa(pred: dict[str, VLAlignment], gold: dict[str, VLAlignment],
            scene_graphs: dict[str, SceneGraph],
            sentence_images: dict[str, str],
            regions: Optional[dict[str, Sequence[Box]]] = None) -> ZeroResult:
    """Zero-order alignment accuracy.

    A token is correct when the predicted node overlaps the gold node
    (both endpoint boxes for relationships) at IoU >= 0.5 and the
    predicted node type matches the gold type; objects and attributes
    share a region, so the type is what separates them. Tokens missing
    from the gold alignment are excluded and reported.
    """
    correct = evaluated = 0
    excluded: list[tuple[str, int]] = []
    by_type: dict[str, list[int]] = {t.value: [0, 0] for t in NodeType}
    for sid, gold_align in gold.items():
        if sid not in sentence_images:
            continue  # not part of the evaluated sentence set
        pred_align = pred.get(sid)
        image = sentence_images.get(sid)
        sg = scene_graphs.get(image)
        boxes = regions.get(image) if regions is not None else None
        for t, gold_node in sorted(gold_align.zero.items()):
            gref = resolve_node(gold_node, sg)
            if gref is None:
                excluded.append((sid, t))
                continue
            evaluated += 1
            by_type[gref.type.value][1] += 1
            pid = pred_align.zero.get(t) if pred_align else None
            pref = resolve_node(pid, sg, boxes) if pid else None
            if pref is not None and _grounding_correct(pref, gref):
                correct += 1
                by_type[gref.type.value][0] += 1
    acc = correct / evaluated if evaluated else 0.0
    return ZeroResult(accuracy=acc, evaluated=evaluated, excluded=excluded,
                      by_type={k: (v[0], v[1]) for k, v in by_type.items()})


def _match_gold_node(node_id: str, sg: SceneGraph,
                     regions: Optional[Sequence[Box]]) -> Optional[str]:
    """Identify a predicted node with a gold node: directly by id, or by
    best box overlap at the threshold among same-type gold nodes, the
    first in graph order on ties."""
    if sg.node(node_id) is not None:
        return node_id
    ref = resolve_node(node_id, sg, regions)
    if ref is None:
        return None
    gold = (sg.visual_node(n.id) for n in sg.nodes())
    scored = [(_overlap(ref, g), g.id) for g in gold if g.type is ref.type]
    best_val, best = max(scored, key=lambda s: s[0], default=(0.0, None))
    return best if best_val >= IOU_THRESHOLD else None


def first_second_aa(pred: dict[str, VLAlignment],
                    trees: dict[str, DependencyTree | Sequence[int]],
                    scene_graphs: dict[str, SceneGraph],
                    sentence_images: dict[str, str],
                    regions: Optional[dict[str, Sequence[Box]]] = None
                    ) -> tuple[float, float]:
    """First and second-order alignment accuracy from zero groundings.

    A first-order instance is correct when the groundings of its two
    tokens are adjacent in the gold graph (one relationship hop); a
    second-order instance is correct when the middle token's grounding
    is adjacent to both outer groundings, either orientation. A
    ``DependencyTree`` was checked when it was built; head sequences
    are checked here.
    """
    first_correct = first_total = second_correct = second_total = 0
    for sid, tree in trees.items():
        align = pred.get(sid)
        image = sentence_images.get(sid)
        sg = scene_graphs.get(image)
        if sg is None:
            continue
        boxes = regions.get(image) if regions is not None else None
        inst = tree_to_instances(tree)

        def gold_node_of(token: int) -> Optional[str]:
            if align is None or token not in align.zero:
                return None
            return _match_gold_node(align.zero[token], sg, boxes)

        for (h, d) in inst.first:
            first_total += 1
            a, b = gold_node_of(h), gold_node_of(d)
            if a is not None and b is not None and sg.adjacent(a, b):
                first_correct += 1
        for (x, m, y) in inst.second:
            second_total += 1
            a, b, c = gold_node_of(x), gold_node_of(m), gold_node_of(y)
            if None not in (a, b, c) and sg.adjacent(a, b) and sg.adjacent(b, c):
                second_correct += 1
    first = first_correct / first_total if first_total else 0.0
    second = second_correct / second_total if second_total else 0.0
    return first, second


def arc_length_breakdown(pred: Sequence[Sequence[int]],
                         gold: Sequence[Sequence[int]]) -> dict[int, tuple[int, int]]:
    """Recall of gold non-ROOT arcs bucketed by arc length |h - d|."""
    if len(pred) != len(gold):
        raise ValueError(f"{len(pred)} predicted vs {len(gold)} gold sentences")
    buckets: dict[int, list[int]] = {}
    for p, g in zip(pred, gold):
        for d in range(1, len(g) + 1):
            h = g[d - 1]
            if h == 0:
                continue
            b = buckets.setdefault(abs(h - d), [0, 0])
            b[1] += 1
            if p[d - 1] == h:
                b[0] += 1
    return {k: (v[0], v[1]) for k, v in sorted(buckets.items())}


# -- baselines and reports ---------------------------------------------


def right_branching_heads(n: int) -> list[int]:
    return list(range(n))


def left_branching_heads(n: int) -> list[int]:
    return [i + 2 for i in range(n - 1)] + [0]


def expected_random_dda(gold: Sequence[Sequence[int]]) -> float:
    """Expected DDA of uniform random head choice per token."""
    terms = [1.0 / len(g) for g in gold for _ in g]
    return float(np.mean(terms))


def format_report(values: dict[str, float]) -> str:
    return "".join(f"{name}\t{value}\n" for name, value in values.items())


def save_report(path: str, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(values, f, indent=2, sort_keys=True)
        f.write("\n")
