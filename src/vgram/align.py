"""Rule-based tree rewriting and tree-to-scene-graph alignment.

Two stages. Rewriting assigns every token a node type and a content
parent from a declarative first-match-wins rule file over (dependency
label, head POS, dependent POS), so attributes and function words share
their noun head's grounding area. A ``RuleSet`` scans its rules in file
order once per distinct key and looks the answer up after that, so the
first match is the same as a scan per token. Alignment then scores
lemmas against scene-graph labels (exact lemma match first, embedding
cosine second; each ``Similarity`` scores a pair once), resolves
attributes inside their parent object's subtree, relationships among
edges incident to already-aligned objects, and maps each tree arc to
the relationship node its endpoints induce, reading the scene graph's
relationship indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import cache
from importlib import resources
from typing import Iterable, Optional, Sequence

import numpy as np

from vgram.core import (
    FirstAlignment,
    NodeType,
    SceneGraph,
    SGObject,
    VLAlignment,
    tree_to_instances,
)
from vgram.data import Sentence

CATEGORIES = ("OBJ-ATTR", "REL-OBJ", "OBJ-OBJ", "OBJ-REL", "FUNCTION")
PARENT_DIRECTIVES = ("self", "head", "subject")
NOUN_POS_PATTERNS = ("NN*", "PRP*")
SUBJECT_LABELS = ("nsubj", "nsubjpass", "xsubj", "csubj")
SIM_THRESHOLD = 0.4
NEIGHBOR_BONUS = 0.1


@dataclass(frozen=True)
class RewriteRule:
    id: str
    category: str
    label_glob: str
    head_pos_glob: str
    dep_pos_glob: str
    node_type: Optional[NodeType]
    parent: str  # one of PARENT_DIRECTIVES

    def matches(self, label: str, head_pos: str, dep_pos: str) -> bool:
        return (_glob(self.label_glob, label)
                and _glob(self.head_pos_glob, head_pos)
                and _glob(self.dep_pos_glob, dep_pos))


def _glob(patterns: str, value: str) -> bool:
    return any(fnmatchcase(value, p) for p in patterns.split(","))


class RuleSet(tuple):
    """Rewrite rules in file order that answer each key once.

    ``match(label, head_pos, dep_pos)`` gives the first matching rule
    (None when no rule matches) and whether any rule's label glob knows
    the label. The first time a key is seen the rules are scanned in
    order; the answer is kept and looked up after that.
    """

    def __new__(cls, rules: Iterable[RewriteRule]):
        self = super().__new__(cls, rules)
        self._memo: dict[tuple[str, str, str], tuple[Optional[RewriteRule], bool]] = {}
        return self

    def match(self, label: str, head_pos: str, dep_pos: str
              ) -> tuple[Optional[RewriteRule], bool]:
        key = (label, head_pos, dep_pos)
        answer = self._memo.get(key)
        if answer is None:
            rule = next((r for r in self if r.matches(label, head_pos, dep_pos)), None)
            known = rule is not None or any(_glob(r.label_glob, label) for r in self)
            answer = self._memo[key] = (rule, known)
        return answer


def _globs(field: str, lineno: int) -> str:
    """A comma-separated glob list with the spaces around each glob removed."""
    patterns = [p.strip() for p in field.split(",")]
    if not all(patterns):
        raise ValueError(f"rules:{lineno}: empty glob in {field!r}")
    return ",".join(patterns)


def parse_rules(text: str) -> RuleSet:
    rules = []
    counts: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 5:
            raise ValueError(f"rules:{lineno}: expected 5 fields, got {len(parts)}")
        category, label_glob, head_glob, dep_glob, action = parts
        if category not in CATEGORIES:
            raise ValueError(f"rules:{lineno}: unknown category {category!r}")
        node_type: Optional[NodeType] = None
        parent = "head"
        for clause in action.split(","):
            key, _, value = clause.partition("=")
            key, value = key.strip(), value.strip()
            if key == "type":
                node_type = NodeType(value)
            elif key == "parent":
                if value not in PARENT_DIRECTIVES:
                    raise ValueError(f"rules:{lineno}: bad parent directive {value!r}")
                parent = value
            else:
                raise ValueError(f"rules:{lineno}: unknown action key {key!r}")
        counts[category] = counts.get(category, 0) + 1
        rules.append(RewriteRule(
            id=f"{category.lower()}-{counts[category]}", category=category,
            label_glob=_globs(label_glob, lineno),
            head_pos_glob=_globs(head_glob, lineno),
            dep_pos_glob=_globs(dep_glob, lineno), node_type=node_type, parent=parent))
    if not rules:
        raise ValueError("empty rule file")
    return RuleSet(rules)


@cache
def _default_rules() -> RuleSet:
    return parse_rules(
        resources.files("vgram.resources").joinpath("default.rules").read_text())


def load_rules(path: Optional[str] = None) -> RuleSet:
    """The rules of ``path``; without one, the packaged default set,
    read once per process and shared, memo included."""
    if path is None:
        return _default_rules()
    with open(path, encoding="utf-8") as f:
        return parse_rules(f.read())


def _is_noun(pos: str) -> bool:
    return any(fnmatchcase(pos, p) for p in NOUN_POS_PATTERNS)


@dataclass
class Rewritten:
    """Rewriting output: types, resolved content parents, diagnostics."""

    types: tuple[NodeType, ...]
    parent_of: tuple[int, ...]
    warnings: tuple[str, ...]


def classify_types(sentence: Sentence, rules: RuleSet
                   ) -> tuple[list[NodeType], list[str], list[str]]:
    """Per-token node types and parent directives by first matching rule.

    Tokens no rule covers fall to the default: nouns become OBJECT
    heads, everything else shares its head's grounding like a function
    word; labels absent from the rule file are reported.
    """
    if sentence.heads is None or sentence.dep_labels is None:
        raise ValueError(f"{sentence.id}: rewriting needs heads and dependency labels")
    n = len(sentence)
    types: list[NodeType] = []
    directives: list[str] = []
    warnings: list[str] = []
    for d in range(1, n + 1):
        label = sentence.dep_labels[d - 1]
        head = sentence.heads[d - 1]
        head_pos = sentence.pos_tags[head - 1] if head else "ROOT"
        dep_pos = sentence.pos_tags[d - 1]
        rule, known = rules.match(label, head_pos, dep_pos)
        if rule is not None:
            types.append(rule.node_type or NodeType.OBJECT)
            directives.append(rule.parent)
            continue
        if not known:
            warnings.append(f"{sentence.id}: unknown dependency label {label!r} "
                            f"on token {d}, using default rule")
        types.append(NodeType.OBJECT)
        directives.append("self" if _is_noun(dep_pos) else "head")
    return types, directives, warnings


def identify_parents(sentence: Sentence, directives: Sequence[str]) -> list[int]:
    """Resolve parent directives to token indices.

    Self-parented tokens are the noun-phrase heads; every other token
    points directly at the nearest self-parented ancestor, so chasing a
    parent pointer is idempotent after one hop.
    """
    n = len(sentence)
    heads = sentence.heads
    self_parented = {d for d in range(1, n + 1) if directives[d - 1] == "self"}

    def climb(start: int) -> Optional[int]:
        cur, hops = start, 0
        while cur != 0:
            if cur in self_parented:
                return cur
            cur = heads[cur - 1]
            hops += 1
            if hops > n:
                raise ValueError(f"{sentence.id}: cyclic head chain at token {start}")
        return None

    parents = []
    for d in range(1, n + 1):
        directive = directives[d - 1]
        if directive == "subject":
            head = heads[d - 1]
            subject = next(
                (x for x in range(1, n + 1)
                 if heads[x - 1] == head and sentence.dep_labels
                 and sentence.dep_labels[x - 1] in SUBJECT_LABELS), None)
            target = climb(subject) if subject is not None else None
            if target is None:
                target = climb(heads[d - 1])
        elif directive == "self":
            target = d
        else:
            target = climb(heads[d - 1])
        parents.append(target if target is not None else d)
    return parents


def rewrite(sentence: Sentence, rules: Optional[RuleSet] = None) -> Rewritten:
    """Full rewriting stage: type classification + parent identification."""
    rules = load_rules() if rules is None else rules
    types, directives, warnings = classify_types(sentence, rules)
    parents = identify_parents(sentence, directives)
    return Rewritten(types=tuple(types), parent_of=tuple(parents),
                     warnings=tuple(warnings))


class Similarity:
    """Exact lemma match scores 1.0, otherwise embedding cosine; each
    pair is scored once and its score kept."""

    def __init__(self, vocab: Sequence[str], vectors: np.ndarray):
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self._rows = {w: vectors[i] / norms[i] for i, w in enumerate(vocab)}
        self._memo: dict[tuple[Optional[str], Optional[str]], float] = {}

    def __call__(self, a: Optional[str], b: Optional[str]) -> float:
        score = self._memo.get((a, b))
        if score is None:
            score = self._memo[(a, b)] = self._score(a, b)
        return score

    def _score(self, a: Optional[str], b: Optional[str]) -> float:
        if not a or not b:
            return 0.0
        a, b = a.casefold(), b.casefold()
        if a == b:
            return 1.0
        va, vb = self._rows.get(a), self._rows.get(b)
        if va is None or vb is None:
            return 0.0
        return float(va @ vb)


@dataclass
class AlignResult:
    alignment: VLAlignment
    unaligned: list[int]
    warnings: list[str]


def align_dt_sg(sentence: Sentence, rewritten: Rewritten, sg: SceneGraph,
                sim: Similarity) -> AlignResult:
    """Ground a rewritten tree onto a labeled scene graph.

    Object heads are scored against object labels with a neighborhood
    bonus for relationship labels matching adjacent tokens; dependents
    inherit their content parent's object; attributes match inside the
    parent object's subtree; relationship tokens match relationship
    labels incident to already-aligned objects; arcs map onto the
    relationship node their endpoint alignments induce.
    """
    if not any(o.label for o in sg.objects):
        raise ValueError(f"{sg.image_id}: scene graph has no labels, alignment impossible")
    if sentence.heads is None:
        raise ValueError(f"{sentence.id}: alignment needs a tree")
    n = len(sentence)
    heads = sentence.heads
    lemma = {d: sentence.tokens[d - 1].lemma or sentence.tokens[d - 1].surface
             for d in range(1, n + 1)}
    neighbors = {d: [x for x in range(1, n + 1)
                     if x != d and (heads[x - 1] == d or heads[d - 1] == x)]
                 for d in range(1, n + 1)}
    zero: dict[int, str] = {}
    unaligned: list[int] = []
    warnings: list[str] = []

    def assign(d: int, cands: list[tuple[str, float]]) -> None:
        """Ground token d on its highest usable candidate, the smaller id
        on ties, or list it unaligned."""
        usable = [(-s, node_id) for node_id, s in cands if s >= SIM_THRESHOLD]
        if usable:
            zero[d] = min(usable)[1]
        else:
            unaligned.append(d)

    # object heads first: everything else resolves through them
    order = sorted(range(1, n + 1),
                   key=lambda d: (rewritten.parent_of[d - 1] != d, d))
    for d in order:
        ntype = rewritten.types[d - 1]
        parent = rewritten.parent_of[d - 1]
        if ntype is NodeType.OBJECT:
            if parent != d:
                if parent in zero:
                    zero[d] = zero[parent]
                else:
                    unaligned.append(d)
                continue
            cands = []
            for o in sg.objects:
                score = sim(lemma[d], o.label)
                if score >= SIM_THRESHOLD:  # only a usable score gets the bonus
                    bonus = 0.0
                    for r in sg.incident(o.id):
                        for nb in neighbors[d]:
                            bonus = max(bonus, NEIGHBOR_BONUS * sim(lemma[nb], r.label))
                    score += bonus
                cands.append((o.id, score))
            assign(d, cands)
        elif ntype is NodeType.ATTRIBUTE:
            owner = zero.get(parent)
            if owner is None:
                unaligned.append(d)
                continue
            cands = [(a.id, sim(lemma[d], a.label))
                     for a in sg.attributes if a.owner == owner]
            assign(d, cands)

    aligned_objects = {node for node in zero.values()
                       if isinstance(sg.node(node), SGObject)}
    for d in range(1, n + 1):
        if rewritten.types[d - 1] is not NodeType.RELATIONSHIP:
            continue
        cands = [(r.id, sim(lemma[d], r.label)) for r in sg.relationships
                 if r.src in aligned_objects or r.dst in aligned_objects]
        assign(d, cands)

    first: dict[tuple[int, int], FirstAlignment] = {}
    inst = tree_to_instances(sentence.tree())
    for (h, d) in inst.first:
        zh, zd = zero.get(h), zero.get(d)
        if zh is None or zd is None:
            continue
        rel = sg.joining(zh, zd)
        if rel is not None:
            first[(h, d)] = FirstAlignment(relationship=rel.id,
                                           endpoints=(rel.src, rel.dst))

    second = {}
    for triple in inst.second:
        nodes = tuple(zero.get(t) for t in triple)
        if None not in nodes:
            second[triple] = nodes

    alignment = VLAlignment(
        sentence_id=sentence.id, zero=zero, first=first, second=second,
        meta={"source": "rule-based", "ruleset": "reconstructed-defaults"})
    return AlignResult(alignment=alignment, unaligned=sorted(set(unaligned)),
                       warnings=warnings)


def align_sentence(sentence: Sentence, sg: SceneGraph, sim: Similarity,
                   rules: Optional[RuleSet] = None) -> tuple[Rewritten, AlignResult]:
    rewritten = rewrite(sentence, rules)
    result = align_dt_sg(sentence, rewritten, sg, sim)
    result.warnings.extend(rewritten.warnings)
    return rewritten, result
