"""File formats, validating loaders, and the synthetic data generator.

All files are UTF-8 line-delimited JSON, one record per line; see
FORMATS.md at the repository root for the byte-level field contracts.
Loaders reject malformed records with line-numbered diagnostics and
cross-check references (image ids, feature dimensions) eagerly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from vgram import chart
from vgram.core import (
    Box,
    DependencyTree,
    FirstAlignment,
    NodeType,
    Regions,
    SceneGraph,
    SGAttribute,
    SGObject,
    SGRelationship,
    Token,
    VLAlignment,
    tree_to_instances,
)


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class Sentence:
    """One corpus record; heads/types/labels are present only when the
    corpus carries silver or gold annotation."""

    id: str
    image_id: str
    tokens: tuple[Token, ...]
    pos_tags: tuple[str, ...]
    heads: Optional[tuple[int, ...]] = None
    types: Optional[tuple[NodeType, ...]] = None
    dep_labels: Optional[tuple[str, ...]] = None

    def __len__(self) -> int:
        return len(self.tokens)

    def tree(self) -> DependencyTree:
        """The annotated tree, checked when it is first built and kept."""
        tree = self.__dict__.get("_tree")
        if tree is None:
            if self.heads is None:
                raise DataError(f"{self.id}: no tree annotation")
            tree = DependencyTree(tokens=self.tokens, heads=self.heads,
                                  types=self.types, labels=self.dep_labels,
                                  sentence_id=self.id)
            object.__setattr__(self, "_tree", tree)
        return tree


def _read_lines(path: str) -> Iterable[tuple[str, object]]:
    """Each record with its ``path:line``."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{where}: bad JSON ({e})") from None
            yield where, rec


# -- field tables ------------------------------------------------------
#
# A kind is (accepts, problem, convert): ``accepts(values)`` tells whether
# a whole column of values is of the kind, ``problem(key, value)`` says why
# one value is not, and ``convert(values, key, where)``, where given, turns
# the column into what the loader keeps (or raises for itself).


def _of(*types: type) -> Callable[[Iterable], bool]:
    # exact types: true/false are no JSON integers, though Python's bools are ints
    allowed = frozenset(types)
    return lambda values: allowed.issuperset(map(type, values))


def _list_of(noun: str, items: Callable[[Iterable], bool], size: Optional[int] = None,
             problem: Optional[Callable[[str, object], str]] = None) -> tuple:
    """A list of ``size`` (or any number of) values that ``items`` accepts."""
    lists = _of(list)

    def accepts(values: list) -> bool:
        if not lists(values) or not items(chain.from_iterable(values)):
            return False
        return size is None or set(map(len, values)) <= {size}

    def list_problem(key: str, v) -> str:
        if type(v) is not list or size is None:
            return f"{key!r} must be a list of {noun}"
        if len(v) != size:
            return f"{key!r} must list {size} {noun}, got {len(v)}"
        bad = next(x for x in v if not items([x]))
        return f"{key!r} takes JSON {noun} only, got {bad!r}"

    return accepts, problem or list_problem, None


def _one_of(*choices: str) -> tuple:
    return (lambda values: all(map(choices.__contains__, values)),
            lambda k, v: f"{k!r} must be one of {', '.join(choices)}, got {v!r}", None)


_NUMBERS = _of(int, float)


def _box(what: str) -> tuple:
    return _list_of("numbers", _NUMBERS, 4, lambda k, v: (
        f"bad {what} box (need a list of 4 numbers, got {v!r})"))


def _number_rows(rows: list, key: str, where: str) -> np.ndarray:
    """``rows``, each a flat list of at least one finite JSON number, all
    of one length, as one float array: one conversion for a whole chunk."""
    try:
        arr = np.asarray(rows)
    except ValueError:   # rows of different lengths or depths
        arr = np.empty(0, dtype=object)
    # null, strings and objects leave no numeric dtype, nor do rows of
    # true/false alone; true/false among numbers convert, so are looked for
    if (arr.ndim != 2 or arr.dtype.kind not in "iuf" or arr.shape[1] < 1
            or not _NUMBERS(chain.from_iterable(rows))):
        raise DataError(f"{where}: every {key!r} must be a flat list of "
                        f"numbers, all of one length")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise DataError(f"{where}: {key!r} holds NaN or Infinity")
    return arr


def _objects(table) -> tuple:
    """A list of JSON objects checked against ``table``: the objects of
    every record in one column per table row, split back per record."""
    def convert(values: list, key: str, where: str) -> list:
        ends = list(accumulate(map(len, values)))
        columns = list(_columns(list(chain.from_iterable(values)), table, where))
        return [[column[start:end] for column in columns]
                for start, end in zip([0, *ends], ends)]
    return _of(list), lambda k, v: f"{k!r} must be a list", convert


def _columns(entries: Sequence, table, where: str) -> Iterator[list]:
    """Check every entry, a JSON object, against ``table``: one column of
    values per row. A row is ``(key, kind)``, or ``(key, kind, default)``
    where the key may be absent, or null if the default is None."""
    for key, (accepts, problem, convert), *default in table:
        try:
            if default:
                values = [e.get(key, default[0]) for e in entries]
            else:
                values = [e[key] for e in entries]
        except (KeyError, TypeError, AttributeError):   # name the first entry at fault
            bad = next(e for e in entries
                       if type(e) is not dict or not default and key not in e)
            if type(bad) is not dict:
                raise DataError(f"{where}: expected a JSON object") from None
            raise DataError(f"{where}: missing field {key!r}") from None
        checked = [v for v in values if v is not None] if default == [None] else values
        if accepts and not accepts(checked):
            bad = next(v for v in checked if not accepts([v]))
            raise DataError(f"{where}: {problem(key, bad)}")
        if convert and entries:
            values = convert(values, key, where)
        yield values


# Records checked together by _records. A chunk's decoded JSON lives
# until its last record is built, and the heap keeps room for it: on a
# 2-core x86-64 host, loading a default world's training corpus, features
# and embeddings left RSS at 45.0 MB one record at a time, 45.1-45.3 MB
# with 16 and 46.3 MB with 64, and 16 loads each file as fast as 64.
_CHUNK = 16


def _records(lines: Iterable[tuple[str, object]], table) -> Iterator[tuple[str, tuple]]:
    """Each ``(path:line, record)`` of ``lines`` with the record's values
    in ``table`` order.

    Records are checked ``_CHUNK`` at a time, as one column per table row.
    A chunk at fault is checked again one record at a time, and a fault
    in ``lines`` (bad JSON) ends its chunk and is raised after the records
    before it. So the records before the first one at fault are yielded
    first, and the error names that record and, within it, the first
    field at fault in table order, as a one-record check would.
    """
    lines = iter(lines)
    while True:
        chunk: list[tuple[str, object]] = []
        fault: Optional[DataError] = None
        try:
            for line in lines:
                chunk.append(line)
                if len(chunk) == _CHUNK:
                    break
        except DataError as e:
            fault = e
        if chunk:
            wheres, recs = zip(*chunk)
            try:
                columns = list(_columns(recs, table, wheres[0]))
            except DataError:   # the one-record checks name the first record at fault
                for where, rec in chunk:
                    (values,) = zip(*_columns([rec], table, where))
                    yield where, values
            else:
                yield from zip(wheres, zip(*columns))
        if fault is not None:
            raise fault
        if len(chunk) < _CHUNK:
            return


_STRING = (_of(str), lambda k, v: f"{k!r} must be a string, got {v!r}", None)
_INTEGER = (_of(int), lambda k, v: f"{k!r} takes JSON integers only, got {v!r}", None)
_OBJECT = (_of(dict), lambda k, v: f"{k!r} must be a JSON object, got {v!r}", None)
_STRINGS = _list_of("strings", _of(str))
_ROWS = (None, None, _number_rows)
_NODE_TYPE = {t.value: t for t in NodeType}
_BBOX_FORMAT = ("bbox_format", _one_of("xyxy", "xywh"), "xyxy")


# -- corpus ------------------------------------------------------------

TAGSET_FIELDS = (("tagset", _STRINGS),)
SENTENCE_FIELDS = (
    ("id", _STRING),
    ("tokens", _STRINGS),
    ("pos", _STRINGS),
    ("lemmas", _STRINGS, None),   # none: the tokens, lowercased
    ("heads", _list_of("integers", _of(int)), None),
    ("types", _list_of("node types", _one_of(*_NODE_TYPE)[0]), None),
    ("dep_labels", _STRINGS, None),
    ("image_id", _STRING))


def load_corpus(path: str) -> tuple[list[Sentence], list[str]]:
    """Sentences plus the tag vocabulary.

    The optional first record ``{"tagset": [...]}`` pins the tag order;
    otherwise the sorted set of tags found in the file is used.
    """
    lines: list[tuple[str, object]] = []
    tagset: Optional[list[str]] = None
    for where, rec in _read_lines(path):
        if type(rec) is dict and "tagset" in rec and "id" not in rec:
            if tagset is not None:
                raise DataError(f"{where}: duplicate tagset header")
            ((tagset,),) = _columns([rec], TAGSET_FIELDS, where)
        else:
            lines.append((where, rec))
    records = list(_records(lines, SENTENCE_FIELDS))
    if tagset is None:
        tagset = sorted({p for _, fields in records for p in fields[2]})
    tag_id = {t: i for i, t in enumerate(tagset)}
    sentences: list[Sentence] = []
    ids = set()
    for where, (sid, words, pos, lemmas, heads, types, labels, image_id) in records:
        if sid in ids:
            raise DataError(f"{where}: duplicate sentence id {sid!r}")
        ids.add(sid)
        if len(words) != len(pos) or not words:
            raise DataError(f"{where}: tokens/pos length mismatch or empty")
        for p in pos:
            if p not in tag_id:
                raise DataError(f"{where}: tag {p!r} not in tagset")
        if lemmas is None:
            lemmas = [w.lower() for w in words]
        elif len(lemmas) != len(words):
            raise DataError(f"{where}: {len(lemmas)} lemmas for {len(words)} tokens")
        for name, extra in (("types", types), ("dep_labels", labels)):
            if extra is not None and len(extra) != len(words):
                raise DataError(f"{where}: {len(extra)} {name} for {len(words)} tokens")
        tokens = tuple(Token(i + 1, w, tag_id[p], lemma)
                       for i, (w, p, lemma) in enumerate(zip(words, pos, lemmas)))
        sentence = Sentence(
            id=sid, image_id=image_id, tokens=tokens, pos_tags=tuple(pos),
            heads=None if heads is None else tuple(heads),
            types=None if types is None else tuple(map(_NODE_TYPE.__getitem__, types)),
            dep_labels=None if labels is None else tuple(labels))
        if heads is not None:
            try:
                sentence.tree()  # checks the heads once; later users read it
            except ValueError as e:
                raise DataError(f"{where}: {e}") from None
        sentences.append(sentence)
    return sentences, tagset


def save_corpus(path: str, sentences: Sequence[Sentence], tagset: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"tagset": list(tagset)}) + "\n")
        for s in sentences:
            rec = {"id": s.id, "image_id": s.image_id,
                   "tokens": [t.surface for t in s.tokens],
                   "pos": list(s.pos_tags),
                   "lemmas": [t.lemma for t in s.tokens]}
            if s.heads is not None:
                rec["heads"] = list(s.heads)
            if s.types is not None:
                rec["types"] = [t.value for t in s.types]
            if s.dep_labels is not None:
                rec["dep_labels"] = list(s.dep_labels)
            f.write(json.dumps(rec) + "\n")


# -- region features ----------------------------------------------------


def _corner_boxes(raw: Sequence[list], fmt: str, what: str, where: str) -> list[Box]:
    """Boxes, each a list of 4 finite JSON numbers, as corner tuples of floats."""
    try:
        corners = np.array(raw, dtype=np.float64).reshape(-1, 4)
    except OverflowError:   # an integer past the float range
        bad = next(box for box in raw if max(map(abs, box)) > sys.float_info.max)
        raise DataError(f"{where}: bad {what} box "
                        f"(need a list of 4 numbers, got {bad!r})") from None
    if fmt == "xywh":
        with np.errstate(over="ignore"):
            corners[:, 2:] += corners[:, :2]
    boxes = list(map(tuple, corners.tolist()))
    for box, given in zip(boxes, raw):
        if math.inf in box or -math.inf in box:   # no JSON number; NaN fails below
            raise DataError(f"{where}: bad {what} box "
                            f"(need a list of 4 numbers, got {given!r})")
        x1, y1, x2, y2 = box
        if not (x1 < x2 and y1 < y2):
            raise DataError(f"{where}: bad {what} box (degenerate box {given}: "
                            f"need x1 < x2 and y1 < y2)")
    return boxes


REGION_FIELDS = (("bbox", _box("region")), ("feat", _ROWS))
FEATURES_FIELDS = (
    ("image_id", _STRING),
    ("regions", _objects(REGION_FIELDS)),
    _BBOX_FORMAT)


def load_features(path: str) -> dict[str, Regions]:
    """Each image id's ``Regions``: its M corner boxes and the one (M, d)
    float64 matrix of its ``feat`` rows, checked here and nowhere after."""
    out: dict[str, Regions] = {}
    dim: Optional[int] = None
    for where, (image_id, (raw_boxes, feats), fmt) in _records(_read_lines(path), FEATURES_FIELDS):
        if image_id in out:
            raise DataError(f"{where}: duplicate image id {image_id!r}")
        if not raw_boxes:
            raise DataError(f"{where}: image {image_id!r} has no regions")
        boxes = _corner_boxes(raw_boxes, fmt, "region", where)
        dim = dim or feats.shape[1]
        if feats.shape[1] != dim:
            raise DataError(f"{where}: feature dim {feats.shape[1]} != {dim}")
        out[image_id] = Regions(boxes, feats)
    if not out:
        raise DataError(f"{path}: empty features file")
    return out


def save_features(path: str, features: dict[str, Regions]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for image_id, (boxes, feats) in features.items():
            rec = {"image_id": image_id,
                   "regions": [{"bbox": list(b), "feat": v}
                               for b, v in zip(boxes, feats.tolist())]}
            f.write(json.dumps(rec) + "\n")


# -- scene graphs --------------------------------------------------------

EDGE_ATTR = "attr"
EDGE_SRC = "src"
EDGE_DST = "dst"

NODE_FIELDS = (
    ("id", _STRING),
    ("type", _one_of(*_NODE_TYPE)),
    ("bbox", _box("node"), None),
    ("label", _STRING, None))
EDGE_FIELDS = (
    ("src", _STRING),
    ("dst", _STRING),
    ("label", _one_of(EDGE_ATTR, EDGE_SRC, EDGE_DST)))
SCENE_GRAPH_FIELDS = (
    ("image_id", _STRING),
    ("nodes", _objects(NODE_FIELDS)),
    ("edges", _objects(EDGE_FIELDS), []),
    _BBOX_FORMAT)


def load_scene_graphs(path: str) -> dict[str, SceneGraph]:
    out: dict[str, SceneGraph] = {}
    for where, (image_id, nodes, edges, fmt) in _records(_read_lines(path), SCENE_GRAPH_FIELDS):
        if image_id in out:
            raise DataError(f"{where}: duplicate image id {image_id!r}")
        ids, types, bboxes, labels = nodes
        if len(set(ids)) != len(ids):
            dup = next(nid for k, nid in enumerate(ids) if nid in ids[:k])
            raise DataError(f"{where}: duplicate node id {dup!r}")
        edges = list(zip(*edges))
        owners = {dst: src for src, dst, label in edges if label == EDGE_ATTR}
        srcs = {dst: src for src, dst, label in edges if label == EDGE_SRC}
        dsts = {src: dst for src, dst, label in edges if label == EDGE_DST}
        given = [b for b in bboxes if b is not None]
        boxes = iter(_corner_boxes(given, fmt, "node", where))
        objects, attributes, relationships = [], [], []
        for nid, ntype, bbox, label in zip(ids, types, bboxes, labels):
            bbox = None if bbox is None else next(boxes)
            if _NODE_TYPE[ntype] is NodeType.OBJECT:
                objects.append(SGObject(nid, bbox=bbox, label=label))
            elif _NODE_TYPE[ntype] is NodeType.ATTRIBUTE:
                if nid not in owners:
                    raise DataError(f"{where}: attribute {nid!r} has no owner edge")
                attributes.append(SGAttribute(nid, owner=owners[nid], label=label))
            else:
                if nid not in srcs or nid not in dsts:
                    raise DataError(f"{where}: relationship {nid!r} missing endpoints")
                relationships.append(SGRelationship(nid, srcs[nid], dsts[nid], label=label))
        sg = SceneGraph(image_id, tuple(objects), tuple(attributes), tuple(relationships))
        try:
            sg.validate()
        except ValueError as e:
            raise DataError(f"{where}: {e}") from None
        out[image_id] = sg
    return out


def save_scene_graphs(path: str, graphs: dict[str, SceneGraph]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for image_id, sg in graphs.items():
            nodes, edges = [], []
            for o in sg.objects:
                nodes.append({"id": o.id, "type": "OBJECT",
                              "bbox": list(o.bbox) if o.bbox else None,
                              "label": o.label})
            for a in sg.attributes:
                nodes.append({"id": a.id, "type": "ATTRIBUTE", "label": a.label})
                edges.append({"src": a.owner, "dst": a.id, "label": EDGE_ATTR})
            for r in sg.relationships:
                nodes.append({"id": r.id, "type": "RELATIONSHIP", "label": r.label})
                edges.append({"src": r.src, "dst": r.id, "label": EDGE_SRC})
                edges.append({"src": r.id, "dst": r.dst, "label": EDGE_DST})
            f.write(json.dumps({"image_id": image_id, "nodes": nodes,
                                "edges": edges}) + "\n")


# -- alignments -----------------------------------------------------------

ZERO_FIELDS = (("t", _INTEGER), ("node", _STRING))
FIRST_FIELDS = (("arc", _list_of("integers", _of(int), 2)),
                ("endpoints", _list_of("strings", _of(str), 2)), ("rel", _STRING))
SECOND_FIELDS = (("tokens", _list_of("integers", _of(int), 3)),
                 ("nodes", _list_of("strings", _of(str), 3)))
ALIGNMENT_FIELDS = (
    ("sentence_id", _STRING),
    ("zero", _objects(ZERO_FIELDS), []),
    ("first", _objects(FIRST_FIELDS), []),
    ("second", _objects(SECOND_FIELDS), []),
    ("meta", _OBJECT, None))


def load_alignments(path: str) -> dict[str, VLAlignment]:
    out: dict[str, VLAlignment] = {}
    for where, (sid, zero, first, second, meta) in _records(_read_lines(path), ALIGNMENT_FIELDS):
        if sid in out:
            raise DataError(f"{where}: duplicate sentence id {sid!r}")
        a = VLAlignment(
            sentence_id=sid, zero=dict(zip(*zero)), meta=meta or {},
            first={tuple(arc): FirstAlignment(rel, tuple(ends))
                   for arc, ends, rel in zip(*first)},
            second={tuple(tokens): tuple(nodes) for tokens, nodes in zip(*second)})
        for (entries, *_), kept, what in ((zero, a.zero, "token in 'zero'"),
                                          (first, a.first, "arc in 'first'"),
                                          (second, a.second, "triple in 'second'")):
            if len(kept) != len(entries):
                raise DataError(f"{where}: duplicate {what}")
        out[sid] = a
    return out


def save_alignments(path: str, alignments: Sequence[VLAlignment]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for a in alignments:
            rec = {"sentence_id": a.sentence_id,
                   "zero": [{"t": t, "node": n} for t, n in sorted(a.zero.items())],
                   "first": [{"arc": list(arc), "rel": fa.relationship,
                              "endpoints": list(fa.endpoints)}
                             for arc, fa in sorted(a.first.items())],
                   "second": [{"tokens": list(k), "nodes": list(v)}
                              for k, v in sorted(a.second.items())]}
            if a.meta:
                rec["meta"] = a.meta
            f.write(json.dumps(rec) + "\n")


# -- embeddings ------------------------------------------------------------

EMBEDDING_FIELDS = (("word", _STRING), ("vec", _ROWS))


def load_embeddings(path: str) -> tuple[list[str], np.ndarray]:
    words, rows = [], []
    for where, (word, vec) in _records(_read_lines(path), EMBEDDING_FIELDS):
        if rows and vec.size != rows[0].size:
            raise DataError(f"{where}: embedding dim {vec.size} != {rows[0].size}")
        words.append(word)
        rows.append(vec)
    if not words:
        raise DataError(f"{path}: empty embeddings file")
    return words, np.stack(rows)


def save_embeddings(path: str, words: Sequence[str], matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for w, row in zip(words, matrix):
            f.write(json.dumps({"word": w, "vec": [float(x) for x in row]}) + "\n")


def cross_reference(sentences: Sequence[Sentence],
                    features: Optional[dict] = None,
                    scene_graphs: Optional[dict] = None) -> None:
    """Every sentence's image id must resolve in each provided table."""
    for s in sentences:
        if features is not None and s.image_id not in features:
            raise DataError(f"sentence {s.id}: image {s.image_id!r} missing from features")
        if scene_graphs is not None and s.image_id not in scene_graphs:
            raise DataError(f"sentence {s.id}: image {s.image_id!r} missing from scene graphs")


# -- synthetic data ----------------------------------------------------------


@dataclass
class SynthConfig:
    """Knobs for the synthetic world; defaults are the desk-scale set, and
    those of the config keys ``synth_`` + field name or, for ``seed``,
    ``tag_count`` and ``*_sentences``, the keys in ``config._RENAMED``."""

    tag_count: int = 8
    concentration: float = 0.05
    sentences: int = 2000
    dev_sentences: int = 200
    test_sentences: int = 200
    max_len: int = 10
    min_len: int = 3
    dim: int = 32
    sigma: float = 0.1
    distractors: int = 2
    words_per_tag: int = 30
    seed: int = 0

    def validate(self) -> None:
        if self.tag_count < 1 or self.max_len < 1 or self.dim < 1:
            raise ValueError("tag_count, max_len and dim must be positive")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if self.sentences < 1 or self.sigma < 0 or self.distractors < 0:
            raise ValueError("bad synthetic-data configuration")


@dataclass
class SynthGrammar:
    """Ground-truth generative grammar over the tag vocabulary."""

    attach: np.ndarray   # (T, 2, T): P(dep tag | head tag, direction)
    stop: np.ndarray     # (T, 2, 2): P(stop | tag, direction, valence)
    root: np.ndarray     # (T,): P(root tag)
    tagset: list[str] = field(default_factory=list)

    def scores_for(self, tag_ids: Sequence[int]) -> chart.DmvScores:
        """Log-probability score tables for one tag sequence."""
        def safe_log(p):
            return np.where(p > 0, np.log(np.maximum(p, 1e-300)), chart.NEG)

        n = len(tag_ids)
        attach = np.full((n + 1, n + 1), chart.NEG)
        for h in range(1, n + 1):
            for d in range(1, n + 1):
                if h != d:
                    direction = chart.RIGHT if d > h else chart.LEFT
                    attach[h][d] = safe_log(
                        self.attach[tag_ids[h - 1], direction, tag_ids[d - 1]])
        stop = np.zeros((n + 1, 2, 2))
        cont = np.zeros((n + 1, 2, 2))
        stop[1:] = safe_log(self.stop[list(tag_ids)])
        cont[1:] = safe_log(1.0 - self.stop[list(tag_ids)])
        root = np.full(n + 1, chart.NEG)
        root[1:] = safe_log(self.root[list(tag_ids)])
        return chart.DmvScores(attach=attach, stop=stop, cont=cont, root=root)


@dataclass
class SynthData:
    train: list[Sentence]
    dev: list[Sentence]
    test: list[Sentence]
    features: dict[str, Regions]
    scene_graphs: dict[str, SceneGraph]
    alignments: dict[str, VLAlignment]
    vocab: list[str]
    embeddings: np.ndarray
    tagset: list[str]
    grammar: SynthGrammar


def _sample_grammar(cfg: SynthConfig, rng: np.random.Generator) -> SynthGrammar:
    t = cfg.tag_count
    alpha = np.full(t, cfg.concentration)
    attach = np.stack([[rng.dirichlet(alpha) for _ in range(2)] for _ in range(t)])
    stop = np.empty((t, 2, 2))
    stop[:, :, 0] = rng.beta(4.0, 3.0, (t, 2))   # adjacent
    stop[:, :, 1] = rng.beta(5.0, 2.0, (t, 2))   # non-adjacent
    root = rng.dirichlet(alpha)
    tagset = [f"NN{i}" for i in range(t)]
    return SynthGrammar(attach=attach, stop=stop, root=root, tagset=tagset)


def _sample_tree(grammar: SynthGrammar, rng: np.random.Generator,
                 max_len: int) -> Optional[tuple[list[int], list[int]]]:
    """One head-outward sample; None when the size budget is blown."""
    budget = [max_len]

    def expand(tag: int):
        if budget[0] <= 0:
            raise OverflowError
        budget[0] -= 1
        node = {"tag": tag, "left": [], "right": []}
        for direction, side in ((chart.LEFT, "left"), (chart.RIGHT, "right")):
            valence = 0
            while rng.random() >= grammar.stop[tag, direction, valence]:
                dep_tag = int(rng.choice(len(grammar.root),
                                         p=grammar.attach[tag, direction]))
                node[side].append(expand(dep_tag))
                valence = 1
        return node

    try:
        root_tag = int(rng.choice(len(grammar.root), p=grammar.root))
        tree = expand(root_tag)
    except OverflowError:
        return None

    # linearize: left dependents were generated nearest-first, so the
    # outermost left subtree sits leftmost in the string
    order: list[tuple[dict, Optional[dict]]] = []

    def seq(node, parent):
        for child in reversed(node["left"]):
            seq(child, node)
        order.append((node, parent))
        for child in node["right"]:
            seq(child, node)

    seq(tree, None)
    pos_of = {id(node): i + 1 for i, (node, _) in enumerate(order)}
    tags = [node["tag"] for node, _ in order]
    heads = [pos_of[id(parent)] if parent is not None else 0
             for _, parent in order]
    return tags, heads


def _grid_box(index: int) -> Box:
    return (100.0 * index, 0.0, 100.0 * index + 90.0, 90.0)


def synth_generate(cfg: SynthConfig,
                   grammar: Optional[SynthGrammar] = None) -> SynthData:
    """Sample a grammar, a corpus with gold trees, and the visual side.

    Every token becomes an OBJECT node whose feature is the (optionally
    noised) embedding of its word; each tree arc becomes a RELATIONSHIP
    node between the two objects; every object carries one ATTRIBUTE
    node, keeping the scene-graph topology invariants. Gold alignments
    follow by construction, so at sigma 0 they are recoverable by
    nearest neighbor over features.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    if grammar is None:
        grammar = _sample_grammar(cfg, rng)
    if len(grammar.root) != cfg.tag_count:
        raise ValueError("supplied grammar does not match tag_count")
    # one global word vocabulary, sampled independently of the tags:
    # words carry grounding concepts while tags carry the grammar, so
    # the pooled summary cannot leak the tag sequence to the decoder
    vocab = [f"w{k}" for k in range(cfg.tag_count * cfg.words_per_tag)]
    vocab += ["plain", "near"]
    emb = rng.normal(size=(len(vocab), cfg.dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    word_row = {w: i for i, w in enumerate(vocab)}

    features: dict[str, Regions] = {}
    graphs: dict[str, SceneGraph] = {}
    alignments: dict[str, VLAlignment] = {}

    def make_sentence(split: str, index: int) -> Sentence:
        while True:
            sample = _sample_tree(grammar, rng, cfg.max_len)
            if sample is not None and len(sample[0]) >= cfg.min_len:
                break
        tag_ids, heads = sample
        n = len(tag_ids)
        sid = f"{split}_{index}"
        image_id = f"img_{sid}"
        total_words = cfg.tag_count * cfg.words_per_tag
        picks = rng.choice(total_words, size=n, replace=False)
        words = [f"w{k}" for k in picks]
        tokens = tuple(Token(i + 1, w, tag_ids[i], w)
                       for i, w in enumerate(words))
        sent = Sentence(
            id=sid, image_id=image_id, tokens=tokens,
            pos_tags=tuple(grammar.tagset[t] for t in tag_ids),
            heads=tuple(heads),
            types=tuple(NodeType.OBJECT for _ in tokens),
            dep_labels=tuple("root" if h == 0 else "conj" for h in heads))

        objects = tuple(SGObject(f"o{i}", bbox=_grid_box(i - 1), label=words[i - 1])
                        for i in range(1, n + 1))
        attributes = tuple(SGAttribute(f"a{i}", owner=f"o{i}", label="plain")
                           for i in range(1, n + 1))
        rels = []
        inst = tree_to_instances(heads)
        for (h, d) in inst.first:
            rels.append(SGRelationship(f"r{h}_{d}", src=f"o{h}", dst=f"o{d}",
                                       label="near"))
        sg = SceneGraph(image_id, objects, attributes, tuple(rels))
        graphs[image_id] = sg

        feats = emb[[word_row[w] for w in words]]
        if cfg.sigma > 0:
            feats += rng.normal(0.0, cfg.sigma, (n, cfg.dim))
        distractors = rng.normal(size=(cfg.distractors, cfg.dim))
        for feat in distractors:
            feat /= np.linalg.norm(feat)
        features[image_id] = Regions([_grid_box(k) for k in range(n + cfg.distractors)],
                                     np.concatenate([feats, distractors]))

        zero = {i: f"o{i}" for i in range(1, n + 1)}
        first = {(h, d): FirstAlignment(relationship=f"r{h}_{d}",
                                        endpoints=(f"o{h}", f"o{d}"))
                 for (h, d) in inst.first}
        second = {trip: (f"o{trip[0]}", f"o{trip[1]}", f"o{trip[2]}")
                  for trip in inst.second}
        alignments[sid] = VLAlignment(sentence_id=sid, zero=zero, first=first,
                                      second=second,
                                      meta={"source": "synthetic"})
        return sent

    train = [make_sentence("train", i) for i in range(cfg.sentences)]
    dev = [make_sentence("dev", i) for i in range(cfg.dev_sentences)]
    test = [make_sentence("test", i) for i in range(cfg.test_sentences)]
    return SynthData(train=train, dev=dev, test=test, features=features,
                     scene_graphs=graphs, alignments=alignments, vocab=vocab,
                     embeddings=emb, tagset=grammar.tagset, grammar=grammar)
