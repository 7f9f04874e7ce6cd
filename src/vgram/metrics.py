"""Dependency accuracy, alignment accuracy, and diagnostics.

Tree metrics compare head arrays; grounding metrics judge a predicted
node against the gold node by box overlap (IoU at 0.5) plus node-type
agreement, with relationship nodes judged on both endpoint boxes.
First/second-order accuracy asks whether the zero-order groundings of
an instance's tokens stay adjacent in the gold scene graph.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from vgram.core import Box, NodeType, SceneGraph, SGAttribute, SGObject, SGRelationship
from vgram.core import DependencyTree, VLAlignment, tree_to_instances, union_box

IOU_THRESHOLD = 0.5

_PROPOSAL_OBJ = re.compile(r"^obj:(\d+)$")
_PROPOSAL_ATTR = re.compile(r"^attr:(\d+)$")
_PROPOSAL_REL = re.compile(r"^rel:(\d+):(\d+)$")


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


@dataclass(frozen=True)
class NodeRef:
    """Geometry and type of a grounded node, however it is referenced."""

    type: NodeType
    box: Optional[Box] = None
    endpoints: Optional[tuple[Box, Box]] = None


def resolve_node(node_id: str, sg: Optional[SceneGraph],
                 regions: Optional[Sequence[Box]] = None) -> Optional[NodeRef]:
    """Geometry for a node id: a gold scene-graph id, or a proposal id
    of the form obj:K / attr:K / rel:I:J / img over the region list."""
    if sg is not None:
        node = sg.node(node_id)
        if isinstance(node, SGObject):
            return NodeRef(NodeType.OBJECT, box=node.bbox)
        if isinstance(node, SGAttribute):
            owner = sg.node(node.owner)
            return NodeRef(NodeType.ATTRIBUTE, box=owner.bbox if owner else None)
        if isinstance(node, SGRelationship):
            src, dst = sg.node(node.src), sg.node(node.dst)
            if src is None or dst is None:
                return None
            return NodeRef(NodeType.RELATIONSHIP, endpoints=(src.bbox, dst.bbox))
    if regions is not None:
        m = _PROPOSAL_OBJ.match(node_id)
        if m and int(m.group(1)) < len(regions):
            return NodeRef(NodeType.OBJECT, box=regions[int(m.group(1))])
        m = _PROPOSAL_ATTR.match(node_id)
        if m and int(m.group(1)) < len(regions):
            return NodeRef(NodeType.ATTRIBUTE, box=regions[int(m.group(1))])
        m = _PROPOSAL_REL.match(node_id)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if i < len(regions) and j < len(regions):
                return NodeRef(NodeType.RELATIONSHIP,
                               endpoints=(regions[i], regions[j]))
        if node_id == "img" and regions:
            return NodeRef(NodeType.OBJECT, box=union_box(regions))
    return None


def _grounding_correct(pred: NodeRef, gold: NodeRef) -> bool:
    if pred.type is not gold.type:
        return False
    if gold.type is NodeType.RELATIONSHIP:
        if pred.endpoints is None or gold.endpoints is None:
            return False
        return all(
            a is not None and b is not None and iou(a, b) >= IOU_THRESHOLD
            for a, b in zip(pred.endpoints, gold.endpoints))
    if pred.box is None or gold.box is None:
        return False
    return iou(pred.box, gold.box) >= IOU_THRESHOLD


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
    best box overlap at the threshold among same-type gold nodes."""
    if sg.node(node_id) is not None:
        return node_id
    ref = resolve_node(node_id, None, regions)
    if ref is None:
        return None
    best: Optional[str] = None
    best_val = 0.0

    def consider(cand_id: str, val: float) -> None:
        nonlocal best, best_val
        if val >= IOU_THRESHOLD and (best is None or val > best_val):
            best, best_val = cand_id, val

    if ref.type is NodeType.OBJECT and ref.box is not None:
        for o in sg.objects:
            if o.bbox is not None:
                consider(o.id, iou(ref.box, o.bbox))
    elif ref.type is NodeType.ATTRIBUTE and ref.box is not None:
        for a in sg.attributes:
            owner = sg.node(a.owner)
            if owner is not None and owner.bbox is not None:
                consider(a.id, iou(ref.box, owner.bbox))
    elif ref.type is NodeType.RELATIONSHIP and ref.endpoints is not None:
        for r in sg.relationships:
            src, dst = sg.node(r.src), sg.node(r.dst)
            if None in (src, dst) or src.bbox is None or dst.bbox is None:
                continue
            if None in ref.endpoints:
                continue
            consider(r.id, min(iou(a, b) for a, b in
                               zip(ref.endpoints, (src.bbox, dst.bbox))))
    return best


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
