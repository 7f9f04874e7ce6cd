"""File formats, validating loaders, and the synthetic data generator.

All files are UTF-8 line-delimited JSON, one record per line; see
FORMATS.md at the repository root for the byte-level field contracts.
Loaders reject malformed records with line-numbered diagnostics and
cross-check references (image ids, feature dimensions) eagerly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from vgram import chart
from vgram.core import (
    Box,
    DependencyTree,
    FirstAlignment,
    NodeType,
    SceneGraph,
    SGAttribute,
    SGObject,
    SGRelationship,
    Token,
    VLAlignment,
    check_box,
    tree_to_instances,
    validate_tree,
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
        if self.heads is None:
            raise DataError(f"{self.id}: no tree annotation")
        return DependencyTree(tokens=self.tokens, heads=self.heads,
                              types=self.types, labels=self.dep_labels,
                              sentence_id=self.id)


def _read_lines(path: str) -> Iterable[tuple[int, dict]]:
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: bad JSON ({e})") from None
            yield lineno, _object(rec, path, lineno)


def _object(rec, path: str, lineno: int) -> dict:
    if not isinstance(rec, dict):
        raise DataError(f"{path}:{lineno}: expected a JSON object")
    return rec


def _require(rec: dict, key: str, path: str, lineno: int):
    if key not in _object(rec, path, lineno):
        raise DataError(f"{path}:{lineno}: missing field {key!r}")
    return rec[key]


def _list(rec: dict, key: str, path: str, lineno: int, optional: bool = False) -> list:
    """A list-valued field; an optional one reads as empty when absent."""
    value = (_object(rec, path, lineno).get(key, []) if optional
             else _require(rec, key, path, lineno))
    if not isinstance(value, list):
        raise DataError(f"{path}:{lineno}: {key!r} must be a list")
    return value


def _int(value, key: str, path: str, lineno: int) -> int:
    # `type(x) is int` also turns away true/false, which are ints in Python
    if type(value) is not int:
        raise DataError(f"{path}:{lineno}: {key!r} takes JSON integers only, got {value!r}")
    return value


def _int_tuple(rec: dict, key: str, size: int, path: str, lineno: int) -> tuple[int, ...]:
    value = _list(rec, key, path, lineno)
    if len(value) != size:
        raise DataError(f"{path}:{lineno}: {key!r} must list {size} integers, "
                        f"got {len(value)}")
    return tuple(_int(x, key, path, lineno) for x in value)


def _field_of_each(entries: list, key: str, path: str, lineno: int) -> list:
    """``entry[key]`` of every entry, each a JSON object holding ``key``."""
    try:
        return [e[key] for e in entries]
    except (KeyError, TypeError):   # name the first entry at fault
        return [_require(e, key, path, lineno) for e in entries]


def _number_rows(rows: list, key: str, path: str, lineno: int) -> np.ndarray:
    """``rows``, each a flat list of at least one finite JSON number, all
    of one length, as one float array: one conversion for a whole record."""
    try:
        arr = np.asarray(rows)
    except ValueError:   # rows of different lengths or depths
        arr = np.empty(0, dtype=object)
    # null, strings, objects and true/false leave no numeric dtype
    if arr.ndim != 2 or arr.dtype.kind not in "iuf" or arr.shape[1] < 1:
        raise DataError(f"{path}:{lineno}: every {key!r} must be a flat list of "
                        f"numbers, all of one length")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise DataError(f"{path}:{lineno}: {key!r} holds NaN or Infinity")
    return arr


def _strings(rec: dict, key: str, path: str, lineno: int) -> list[str]:
    value = _require(rec, key, path, lineno)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DataError(f"{path}:{lineno}: {key!r} must be a list of strings")
    return value


# -- corpus ------------------------------------------------------------


def load_corpus(path: str) -> tuple[list[Sentence], list[str]]:
    """Sentences plus the tag vocabulary.

    The optional first record ``{"tagset": [...]}`` pins the tag order;
    otherwise the sorted set of tags found in the file is used.
    """
    sentences: list[Sentence] = []
    raw: list[tuple[int, dict]] = []
    tagset: Optional[list[str]] = None
    for lineno, rec in _read_lines(path):
        if "tagset" in rec and "id" not in rec:
            if tagset is not None:
                raise DataError(f"{path}:{lineno}: duplicate tagset header")
            tagset = _strings(rec, "tagset", path, lineno)
            continue
        raw.append((lineno, rec))
    if tagset is None:
        seen = set()
        for lineno, rec in raw:
            seen.update(_strings(rec, "pos", path, lineno))
        tagset = sorted(seen)
    tag_id = {t: i for i, t in enumerate(tagset)}
    ids = set()
    for lineno, rec in raw:
        sid = str(_require(rec, "id", path, lineno))
        if sid in ids:
            raise DataError(f"{path}:{lineno}: duplicate sentence id {sid!r}")
        ids.add(sid)
        words = _strings(rec, "tokens", path, lineno)
        pos = _strings(rec, "pos", path, lineno)
        if len(words) != len(pos) or not words:
            raise DataError(f"{path}:{lineno}: tokens/pos length mismatch or empty")
        for p in pos:
            if p not in tag_id:
                raise DataError(f"{path}:{lineno}: tag {p!r} not in tagset")
        lemmas = (_strings(rec, "lemmas", path, lineno) if "lemmas" in rec
                  else [w.lower() for w in words])
        if len(lemmas) != len(words):
            raise DataError(f"{path}:{lineno}: {len(lemmas)} lemmas for "
                            f"{len(words)} tokens")
        tokens = tuple(Token(i + 1, w, tag_id[p], lemma)
                       for i, (w, p, lemma) in enumerate(zip(words, pos, lemmas)))
        heads = rec.get("heads")
        if heads is not None:
            # `type(h) is int` also turns away true/false, which are ints in Python
            if not isinstance(heads, list) or not all(type(h) is int for h in heads):
                raise DataError(f"{path}:{lineno}: 'heads' must be a list of integers")
            heads = tuple(heads)
            report = validate_tree(heads, len(tokens))
            if report is not None:
                raise DataError(f"{path}:{lineno}: invalid tree: {report}")
        types = rec.get("types")
        if types is not None:
            try:
                types = tuple(NodeType(t) for t in _list(rec, "types", path, lineno))
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
        labels = rec.get("dep_labels")
        if labels is not None:
            labels = tuple(str(x) for x in _list(rec, "dep_labels", path, lineno))
        sentences.append(Sentence(
            id=sid, image_id=str(_require(rec, "image_id", path, lineno)),
            tokens=tokens, pos_tags=tuple(pos), heads=heads, types=types,
            dep_labels=labels))
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


def _ingest_box(raw, fmt: str) -> Box:
    """Corner boxes pass through; width/height boxes are converted.
    Anything but a list of 4 numbers raises ``ValueError``."""
    if type(raw) is not list or len(raw) != 4:
        raise ValueError(f"need a list of 4 numbers, got {raw!r}")
    try:
        if fmt == "xywh":
            x, y, w, h = (float(v) for v in raw)
            raw = (x, y, x + w, y + h)
        elif fmt != "xyxy":
            raise ValueError(f"unknown bbox_format {fmt!r}")
        return check_box(raw)
    except (TypeError, OverflowError):   # null, a list or an object; a huge integer
        raise ValueError(f"need a list of 4 numbers, got {raw!r}") from None


def load_features(path: str) -> dict[str, list[tuple[Box, np.ndarray]]]:
    out: dict[str, list[tuple[Box, np.ndarray]]] = {}
    dim: Optional[int] = None
    for lineno, rec in _read_lines(path):
        image_id = str(_require(rec, "image_id", path, lineno))
        if image_id in out:
            raise DataError(f"{path}:{lineno}: duplicate image id {image_id!r}")
        regions = _list(rec, "regions", path, lineno)
        if not regions:
            raise DataError(f"{path}:{lineno}: image {image_id!r} has no regions")
        fmt = rec.get("bbox_format", "xyxy")
        try:
            boxes = [_ingest_box(b, fmt) for b in _field_of_each(regions, "bbox", path, lineno)]
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad region box ({e})") from None
        feats = _number_rows(_field_of_each(regions, "feat", path, lineno), "feat", path, lineno)
        if dim is None:
            dim = feats.shape[1]
        elif feats.shape[1] != dim:
            raise DataError(f"{path}:{lineno}: feature dim {feats.shape[1]} != {dim}")
        out[image_id] = list(zip(boxes, feats))
    return out


def save_features(path: str, feats: dict[str, list[tuple[Box, np.ndarray]]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for image_id, regions in feats.items():
            rec = {"image_id": image_id,
                   "regions": [{"bbox": list(b), "feat": [float(x) for x in v]}
                               for b, v in regions]}
            f.write(json.dumps(rec) + "\n")


# -- scene graphs --------------------------------------------------------

EDGE_ATTR = "attr"
EDGE_SRC = "src"
EDGE_DST = "dst"


def load_scene_graphs(path: str) -> dict[str, SceneGraph]:
    out: dict[str, SceneGraph] = {}
    for lineno, rec in _read_lines(path):
        image_id = str(_require(rec, "image_id", path, lineno))
        if image_id in out:
            raise DataError(f"{path}:{lineno}: duplicate image id {image_id!r}")
        fmt = rec.get("bbox_format", "xyxy")
        kinds: dict[str, dict] = {}
        for node in _list(rec, "nodes", path, lineno):
            nid = str(_require(node, "id", path, lineno))
            if nid in kinds:
                raise DataError(f"{path}:{lineno}: duplicate node id {nid!r}")
            kinds[nid] = node
        owners: dict[str, str] = {}
        endpoints: dict[str, dict[str, str]] = {}
        for edge in _list(rec, "edges", path, lineno, optional=True):
            label = _object(edge, path, lineno).get("label")
            src, dst = str(edge.get("src")), str(edge.get("dst"))
            if label == EDGE_ATTR:
                owners[dst] = src
            elif label == EDGE_SRC:
                endpoints.setdefault(dst, {})[EDGE_SRC] = src
            elif label == EDGE_DST:
                endpoints.setdefault(src, {})[EDGE_DST] = dst
            else:
                raise DataError(f"{path}:{lineno}: unknown edge label {label!r}")
        objects, attributes, relationships = [], [], []
        for nid, node in kinds.items():
            ntype = str(_require(node, "type", path, lineno))
            try:
                bbox = _ingest_box(node["bbox"], fmt) if node.get("bbox") else None
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: bad node box ({e})") from None
            label = node.get("label")
            if ntype == NodeType.OBJECT.value:
                objects.append(SGObject(nid, bbox=bbox, label=label))
            elif ntype == NodeType.ATTRIBUTE.value:
                if nid not in owners:
                    raise DataError(f"{path}:{lineno}: attribute {nid!r} has no owner edge")
                attributes.append(SGAttribute(nid, owner=owners[nid],
                                              label=label))
            elif ntype == NodeType.RELATIONSHIP.value:
                ep = endpoints.get(nid, {})
                if EDGE_SRC not in ep or EDGE_DST not in ep:
                    raise DataError(f"{path}:{lineno}: relationship {nid!r} missing endpoints")
                relationships.append(SGRelationship(
                    nid, src=ep[EDGE_SRC], dst=ep[EDGE_DST], label=label))
            else:
                raise DataError(f"{path}:{lineno}: unknown node type {ntype!r}")
        sg = SceneGraph(image_id, tuple(objects), tuple(attributes),
                        tuple(relationships))
        try:
            sg.validate()
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
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


def load_alignments(path: str) -> dict[str, VLAlignment]:
    out: dict[str, VLAlignment] = {}
    for lineno, rec in _read_lines(path):
        sid = str(_require(rec, "sentence_id", path, lineno))
        if sid in out:
            raise DataError(f"{path}:{lineno}: duplicate sentence id {sid!r}")
        zero = {_int(_require(e, "t", path, lineno), "t", path, lineno):
                str(_require(e, "node", path, lineno))
                for e in _list(rec, "zero", path, lineno, optional=True)}
        first = {}
        for e in _list(rec, "first", path, lineno, optional=True):
            arc = _int_tuple(e, "arc", 2, path, lineno)
            first[arc] = FirstAlignment(
                relationship=str(e.get("rel")),
                endpoints=tuple(str(x) for x in (_list(e, "endpoints", path, lineno)
                                                 if "endpoints" in e else (None, None))))
        second = {}
        for e in _list(rec, "second", path, lineno, optional=True):
            second[_int_tuple(e, "tokens", 3, path, lineno)] = tuple(
                str(x) for x in _list(e, "nodes", path, lineno))
        out[sid] = VLAlignment(sentence_id=sid, zero=zero, first=first,
                               second=second, meta=rec.get("meta", {}))
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


def load_embeddings(path: str) -> tuple[list[str], np.ndarray]:
    words, rows = [], []
    dim: Optional[int] = None
    for lineno, rec in _read_lines(path):
        word = str(_require(rec, "word", path, lineno))
        vec = _number_rows([_require(rec, "vec", path, lineno)], "vec", path, lineno)[0]
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DataError(f"{path}:{lineno}: embedding dim {vec.size} != {dim}")
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
    """Knobs for the synthetic world; defaults are the desk-scale set."""

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
    features: dict[str, list[tuple[Box, np.ndarray]]]
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

    features: dict[str, list[tuple[Box, np.ndarray]]] = {}
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

        regions = []
        for i in range(1, n + 1):
            feat = emb[word_row[words[i - 1]]].copy()
            if cfg.sigma > 0:
                feat = feat + rng.normal(0.0, cfg.sigma, cfg.dim)
            regions.append((_grid_box(i - 1), feat))
        for k in range(cfg.distractors):
            feat = rng.normal(size=cfg.dim)
            feat /= np.linalg.norm(feat)
            regions.append((_grid_box(n + k), feat))
        features[image_id] = regions

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
