"""The joint vision-language structure model.

Pipeline per image-caption pair: assemble typed visual nodes from
region features, fuse token embeddings with visual context through
cross-attention, condition a neural valence-grammar decoder on the
pooled summary, and match language contexts (tokens, arcs, triples)
against visual nodes with posterior-weighted similarity scores. The
training objective mixes the tree marginal likelihood with an in-batch
contrastive matching loss.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

import vgram.tensor as T
from vgram import chart
from vgram.core import (
    DependencyTree,
    FirstAlignment,
    NodeType,
    ProposalNodes,
    Regions,
    SceneGraph,
    Token,
    VisualNode,
    VLAlignment,
    image_node,
    second_order_arcs,
    tree_to_instances,
)
from vgram.dmv_graph import BatchCharts, inside_outside
from vgram.tensor import ParameterStore, Tensor

ATTENTION_MASK = -1.0e30


@dataclass
class ModelConfig:
    """Hyperparameters; every field has a flat config-file key."""

    tag_count: int = 8
    word_dim: int = 32
    tag_dim: int = 16
    hidden_dim: int = 32
    feat_dim: int = 32
    match_dim: int = 32
    arc_hidden: int = 32
    second_hidden: int = 32
    dec_tag_dim: int = 16
    dec_hidden: int = 32
    normalize_sim: bool = True
    identity_init: bool = False
    finetune_word_emb: bool = False
    second_order: bool = True
    max_parse_len: int = 60
    seed: int = 0

    def validate(self) -> None:
        if self.identity_init:
            dims = {self.word_dim, self.hidden_dim, self.feat_dim, self.match_dim}
            if len(dims) != 1:
                raise ValueError(
                    "identity_init needs word_dim == hidden_dim == feat_dim == match_dim")


@dataclass
class VisualNodeSet:
    """Canonically ordered nodes plus the fixed input rows their features
    come from; ties in any argmax resolve to the earlier node in this
    order. It holds no tape tensor, so one set serves a whole run.

    A proposal set over M regions keeps the M region features and their
    mean, the image node's row (``regions`` = M), and the M boxes; its
    attribute and relationship rows are learned and ``Model._pad_nodes``
    computes them per batch. Its ``nodes`` is a ``ProposalNodes`` view
    over the boxes: a node is computed from its index only when read, so
    a parse reads O(n) of the M² + M + 1 nodes and training none. A gold
    set keeps every node in a list and every node's fixed row
    (``regions`` = 0).
    """

    image_id: str
    rows: np.ndarray       # (M + 1, feat_dim) proposals, (V, feat_dim) gold
    nodes: Sequence[VisualNode]
    regions: int = 0

    def __len__(self) -> int:
        m = self.regions
        return m * m + m + 1 if m else len(self.nodes)

    def relationship_indices(self) -> np.ndarray:
        m = self.regions
        if m:
            return np.arange(2 * m, m * m + m)
        return np.array([k for k, nd in enumerate(self.nodes)
                         if nd.type is NodeType.RELATIONSHIP], dtype=int)


@dataclass
class SentenceBatch:
    """One same-length group ready for the forward pass: token and tag
    ids plus one parameter-free ``VisualNodeSet`` per sentence."""

    word_ids: np.ndarray   # (B, n)
    tag_ids: np.ndarray    # (B, n)
    node_sets: list[VisualNodeSet]
    sentence_ids: list[str]


def arc_index(n: int) -> np.ndarray:
    """Candidate arcs (P, 2) as 1-based (head, dependent), head-major."""
    h, d = np.divmod(np.arange(n * n), n)
    keep = h != d
    return np.stack([h[keep], d[keep]], axis=1) + 1


def pattern_index(n: int) -> np.ndarray:
    """Candidate second-order patterns (T, 2, 2) as their two 1-based
    arcs: chains g->h->d first, then sibling pairs d1<-h->d2 (d1 < d2)."""
    # (a, b, c) reads (g, h, d) for a chain and (h, d1, d2) for siblings
    a, b, c = np.unravel_index(np.arange(n ** 3), (n, n, n))
    chains = (a != b) & (c != a) & (c != b)
    siblings = (b != a) & (c != a) & (b < c)
    arcs = np.concatenate([
        np.stack([np.stack([a, b], 1), np.stack([b, c], 1)], axis=1)[chains],
        np.stack([np.stack([a, b], 1), np.stack([a, c], 1)], axis=1)[siblings]])
    return arcs + 1


class Model:
    """Parameters plus the forward computations over them."""

    def __init__(self, config: ModelConfig, vocab: Sequence[str],
                 word_vectors: np.ndarray):
        config.validate()
        if word_vectors.shape != (len(vocab), config.word_dim):
            raise ValueError(
                f"word vectors {word_vectors.shape} do not match vocab size "
                f"{len(vocab)} and word_dim {config.word_dim}")
        self.config = config
        self.vocab = {w: i + 1 for i, w in enumerate(vocab)}  # row 0 = UNK
        self.store = ParameterStore()
        self._rng = np.random.default_rng(config.seed)
        self._build(word_vectors)

    # -- parameter construction ----------------------------------------

    def _init_normal(self, scale=0.01):
        rng = self._rng
        return lambda shape: rng.normal(0.0, scale, shape)

    def _init_fan_in(self):
        rng = self._rng
        return lambda shape: T.fan_in_uniform(rng, shape)

    def _init_zeros(self):
        return lambda shape: np.zeros(shape)

    def _build(self, word_vectors: np.ndarray) -> None:
        cfg = self.config
        unk = word_vectors.mean(axis=0, keepdims=True) if len(word_vectors) else \
            np.zeros((1, cfg.word_dim))
        table = np.concatenate([unk, word_vectors], axis=0)
        get = self.store.get
        get("embed.word", table.shape, lambda s: table,
            trainable=cfg.finetune_word_emb)
        get("embed.tag", (cfg.tag_count, cfg.tag_dim), self._init_normal())

        din = cfg.word_dim + cfg.tag_dim
        if cfg.identity_init:
            eye_block = np.concatenate(
                [np.eye(cfg.word_dim), np.zeros((cfg.tag_dim, cfg.hidden_dim))])
            get("enc.in.w", (din, cfg.hidden_dim), lambda s: eye_block)
            get("enc.in.b", (cfg.hidden_dim,), self._init_zeros())
            get("enc.attn.q", (cfg.hidden_dim, cfg.hidden_dim), self._init_fan_in())
            get("enc.attn.k", (cfg.feat_dim, cfg.hidden_dim), self._init_fan_in())
            get("enc.attn.v", (cfg.feat_dim, cfg.hidden_dim), self._init_zeros())
            get("match.ctx", (cfg.hidden_dim, cfg.match_dim), lambda s: np.eye(cfg.hidden_dim))
            get("match.vis", (cfg.feat_dim, cfg.match_dim), lambda s: np.eye(cfg.feat_dim))
        else:
            get("enc.in.w", (din, cfg.hidden_dim), self._init_fan_in())
            get("enc.in.b", (cfg.hidden_dim,), self._init_zeros())
            get("enc.attn.q", (cfg.hidden_dim, cfg.hidden_dim), self._init_fan_in())
            get("enc.attn.k", (cfg.feat_dim, cfg.hidden_dim), self._init_fan_in())
            get("enc.attn.v", (cfg.feat_dim, cfg.hidden_dim), self._init_fan_in())
            get("match.ctx", (cfg.hidden_dim, cfg.match_dim), self._init_fan_in())
            get("match.vis", (cfg.feat_dim, cfg.match_dim), self._init_fan_in())

        get("vis.attr.w1", (cfg.feat_dim, cfg.feat_dim), self._init_fan_in())
        get("vis.attr.b1", (cfg.feat_dim,), self._init_zeros())
        get("vis.attr.w2", (cfg.feat_dim, cfg.feat_dim), self._init_fan_in())
        get("vis.attr.b2", (cfg.feat_dim,), self._init_zeros())
        get("vis.rel.w1", (cfg.feat_dim, cfg.feat_dim, cfg.feat_dim), self._init_normal(0.1))
        get("vis.rel.w2", (cfg.feat_dim, cfg.feat_dim), self._init_fan_in())
        get("vis.rel.b", (cfg.feat_dim,), self._init_zeros())

        get("arc.parent.w", (cfg.hidden_dim, cfg.arc_hidden), self._init_fan_in())
        get("arc.parent.b", (cfg.arc_hidden,), self._init_zeros())
        get("arc.child.w", (cfg.hidden_dim, cfg.arc_hidden), self._init_fan_in())
        get("arc.child.b", (cfg.arc_hidden,), self._init_zeros())
        get("arc.bi.w1", (cfg.arc_hidden, cfg.match_dim, cfg.arc_hidden), self._init_normal(0.1))
        get("arc.bi.w2", (cfg.arc_hidden, cfg.match_dim), self._init_fan_in())
        get("arc.bi.b", (cfg.match_dim,), self._init_zeros())

        get("second.w1", (2 * cfg.match_dim, cfg.second_hidden), self._init_fan_in())
        get("second.b1", (cfg.second_hidden,), self._init_zeros())
        get("second.w2", (cfg.second_hidden, cfg.match_dim), self._init_fan_in())
        get("second.b2", (cfg.match_dim,), self._init_zeros())

        get("dec.tag", (cfg.tag_count, cfg.dec_tag_dim), self._init_normal())
        child_in = cfg.dec_tag_dim + 2 + cfg.hidden_dim
        get("dec.child.w1", (child_in, cfg.dec_hidden), self._init_fan_in())
        get("dec.child.b1", (cfg.dec_hidden,), self._init_zeros())
        get("dec.child.w2", (cfg.dec_hidden, cfg.tag_count), self._init_fan_in())
        get("dec.child.b2", (cfg.tag_count,), self._init_zeros())
        stop_in = cfg.dec_tag_dim + 2 + 2 + cfg.hidden_dim
        get("dec.stop.w1", (stop_in, cfg.dec_hidden), self._init_fan_in())
        get("dec.stop.b1", (cfg.dec_hidden,), self._init_zeros())
        get("dec.stop.w2", (cfg.dec_hidden, 2), self._init_fan_in())
        get("dec.stop.b2", (2,), self._init_zeros())
        get("dec.root.w1", (cfg.hidden_dim, cfg.dec_hidden), self._init_fan_in())
        get("dec.root.b1", (cfg.dec_hidden,), self._init_zeros())
        get("dec.root.w2", (cfg.dec_hidden, cfg.tag_count), self._init_fan_in())
        get("dec.root.b2", (cfg.tag_count,), self._init_zeros())

    # -- vocabulary ----------------------------------------------------

    def word_id(self, word: str) -> int:
        return self.vocab.get(word, 0)

    def word_ids(self, tokens: Sequence[Token]) -> np.ndarray:
        return np.array([self.word_id(t.surface) for t in tokens], dtype=int)

    def embed_label(self, label: str) -> np.ndarray:
        return self.store["embed.word"].numpy()[self.word_id(label)]

    # -- visual side -----------------------------------------------------

    def build_visual_nodes(self, image_id: str, regions: Regions) -> VisualNodeSet:
        """Typed node set over M proposals: M objects, M attributes,
        M(M-1) ordered-pair relationships, one full-image dummy node
        whose row is the mean of the object rows. The object rows are
        ``regions.feats``, checked where it was loaded."""
        feats, m = regions.feats, len(regions.boxes)
        if not m:
            raise ValueError(f"{image_id}: empty region list")
        if feats.shape[1] != self.config.feat_dim:
            raise ValueError(f"{image_id}: feature dim {feats.shape[1]} != "
                             f"configured {self.config.feat_dim}")
        dummy = feats.sum(axis=0, keepdims=True) * (1.0 / m)
        return VisualNodeSet(image_id, np.concatenate([feats, dummy]),
                             ProposalNodes(regions.boxes), regions=m)

    def build_visual_nodes_gold(self, sg: SceneGraph, regions: Optional[Regions] = None
                                ) -> VisualNodeSet:
        """Node set over a gold scene graph, the gold-reference regime.

        Object k's feature is row k of ``regions.feats`` when given
        (index aligned with the graph's object order), otherwise its
        label embedding; attribute and relationship features always
        embed their labels.
        """
        nodes = [sg.visual_node(n.id) for n in sg.nodes()]
        given = () if regions is None else regions.feats
        feats = [given[idx] if idx < len(given) else self.embed_label(o.label or "")
                 for idx, o in enumerate(sg.objects)]
        feats += [self.embed_label(n.label or "") for n in sg.attributes + sg.relationships]
        mat = np.stack(feats)
        if mat.shape[1] != self.config.feat_dim:
            raise ValueError(f"{sg.image_id}: gold feature dim {mat.shape[1]} != "
                             f"configured {self.config.feat_dim}")
        dummy = mat[:len(sg.objects)].mean(axis=0, keepdims=True)
        nodes.append(image_node(o.bbox for o in sg.objects))
        return VisualNodeSet(sg.image_id, np.concatenate([mat, dummy]), nodes)

    def _pad_nodes(self, node_sets: list[VisualNodeSet]
                   ) -> tuple[Tensor, np.ndarray]:
        """Node features of a batch (sum of V_b, feat_dim), image after
        image in canonical order, plus the attention mask (B, 1, V_max)
        whose zero slots they fill, row-major, when padded per image.

        The one place node features are computed. One ``mlp`` over all
        the batch's region rows gives every attribute row, and one
        ``biaffine_features`` per distinct region count every pair row,
        so no image pays for a larger image's pairs. One gather reads
        [fixed rows, attributes, pair blocks] into canonical order.
        """
        store, dim = self.store, self.config.feat_dim
        fixed = np.concatenate([ns.rows for ns in node_sets])
        start = np.cumsum([0] + [len(ns.rows) for ns in node_sets])
        objects = np.concatenate([start[b] + np.arange(ns.regions)
                                  for b, ns in enumerate(node_sets)])
        parts = [Tensor(fixed)]
        if len(objects):
            parts.append(T.mlp(Tensor(fixed[objects]),
                               [(store["vis.attr.w1"], store["vis.attr.b1"]),
                                (store["vis.attr.w2"], store["vis.attr.b2"])]))
        groups: dict[int, list[int]] = {}
        for b, ns in enumerate(node_sets):
            if ns.regions > 1:
                groups.setdefault(ns.regions, []).append(b)
        pair_start, top = {}, len(fixed) + len(objects)
        for m, members in groups.items():
            obj = Tensor(np.stack([node_sets[b].rows[:m] for b in members]))
            rel = T.biaffine_features(obj, obj, store["vis.rel.w1"], store["vis.rel.w2"],
                                      store["vis.rel.b"])
            parts.append(T.reshape(rel, (len(members) * m * m, dim)))
            for g, b in enumerate(members):
                pair_start[b] = top + g * m * m
            top += len(members) * m * m
        bank = T.concat(parts, axis=0) if len(parts) > 1 else parts[0]
        order, attr = [], len(fixed)
        for b, ns in enumerate(node_sets):
            m = ns.regions
            if m:
                # off-diagonal cells of the row-major m x m block: ordered pairs
                pairs = np.flatnonzero(~np.eye(m, dtype=bool)) + pair_start.get(b, 0)
                order += [start[b] + np.arange(m), attr + np.arange(m), pairs, [start[b] + m]]
                attr += m
            else:
                order.append(start[b] + np.arange(len(ns)))
        sizes = np.array([len(ns) for ns in node_sets])
        live = np.arange(sizes.max()) < sizes[:, None]
        return bank[np.concatenate(order)], np.where(live, 0.0, ATTENTION_MASK)[:, None, :]

    # -- encoder ---------------------------------------------------------

    def encode(self, word_ids: np.ndarray, tag_ids: np.ndarray,
               nodes: tuple[Tensor, np.ndarray]) -> tuple[Tensor, Tensor]:
        """Fuse token embeddings with visual context.

        ``nodes`` is ``_pad_nodes``' (features, mask) for the batch.
        Returns per-token contexts (B, n, hidden) and the mean-pooled
        joint summary (B, hidden). Each token attends over all visual
        nodes of its image; the attended value is added residually, so
        zero value projections reduce to the pure text pathway. Keys and
        values are projected from the node rows and then padded to
        (B, V_max, hidden) along the mask.
        """
        batch, n = word_ids.shape
        w = self.store["embed.word"][word_ids.reshape(-1)]
        g = self.store["embed.tag"][tag_ids.reshape(-1)]
        x = T.concat([w, g], axis=1)
        inputs = T.linear(x, self.store["enc.in.w"], self.store["enc.in.b"])
        inputs = T.reshape(inputs, (batch, n, self.config.hidden_dim))
        feats, mask = nodes
        slots = np.nonzero(mask[:, 0] == 0.0)
        shape = (batch, mask.shape[2], self.config.hidden_dim)
        q = T.matmul(inputs, self.store["enc.attn.q"])
        k = T.put_at(T.matmul(feats, self.store["enc.attn.k"]), slots, shape)
        v = T.put_at(T.matmul(feats, self.store["enc.attn.v"]), slots, shape)
        attended = T.attention(q, k, v, mask)
        contexts = T.add(inputs, attended)
        summary = T.tmean(contexts, axis=1)
        return contexts, summary

    # -- decoder ---------------------------------------------------------

    def decoder_scores(self, tag_ids: np.ndarray, summary: Tensor
                       ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Valence-grammar score tables conditioned on the joint summary.

        Attachment scores are log child-tag probabilities given the head
        tag and arc direction; stop/continue pairs are two-way
        log-softmaxes per (head tag, direction, valence); root scores
        are log tag probabilities from the summary. Tags are observed,
        only the tree is latent.
        """
        cfg = self.config
        batch, n = tag_ids.shape
        tcount = cfg.tag_count
        if tag_ids.min() < 0 or tag_ids.max() >= tcount:
            raise ValueError("tag id out of vocabulary")
        store = self.store

        rows = batch * tcount * 2
        b_idx = np.repeat(np.arange(batch), tcount * 2)
        tag_idx = np.tile(np.repeat(np.arange(tcount), 2), batch)
        dir_onehot = np.tile(np.eye(2), (batch * tcount, 1))
        child_in = T.concat([
            store["dec.tag"][tag_idx],
            Tensor(dir_onehot),
            summary[b_idx],
        ], axis=1)
        child = T.mlp(child_in, [(store["dec.child.w1"], store["dec.child.b1"]),
                                 (store["dec.child.w2"], store["dec.child.b2"])])
        child_tbl = T.log_softmax(T.reshape(child, (batch, tcount, 2, tcount)), axis=-1)

        b_idx = np.repeat(np.arange(batch), tcount * 4)
        tag_idx = np.tile(np.repeat(np.arange(tcount), 4), batch)
        dir_onehot = np.tile(np.repeat(np.eye(2), 2, axis=0), (batch * tcount, 1))
        val_onehot = np.tile(np.eye(2), (batch * tcount * 2, 1))
        stop_in = T.concat([
            store["dec.tag"][tag_idx],
            Tensor(dir_onehot),
            Tensor(val_onehot),
            summary[b_idx],
        ], axis=1)
        stop_out = T.mlp(stop_in, [(store["dec.stop.w1"], store["dec.stop.b1"]),
                                   (store["dec.stop.w2"], store["dec.stop.b2"])])
        stop_tbl = T.log_softmax(T.reshape(stop_out, (batch, tcount, 2, 2, 2)), axis=-1)

        root_out = T.mlp(summary, [(store["dec.root.w1"], store["dec.root.b1"]),
                                   (store["dec.root.w2"], store["dec.root.b2"])])
        root_tbl = T.log_softmax(root_out, axis=-1)

        # gather per-sentence tables in chart layout
        pairs = arc_index(n)
        bb = np.arange(batch)[:, None]
        if len(pairs):
            h_pos, d_pos = pairs[:, 0] - 1, pairs[:, 1] - 1
            dirs = np.where(d_pos > h_pos, chart.RIGHT, chart.LEFT)
            vals = child_tbl[bb, tag_ids[:, h_pos], dirs[None, :], tag_ids[:, d_pos]]
            attach = T.put_at(vals, (bb, h_pos[None, :] + 1, d_pos[None, :] + 1),
                              (batch, n + 1, n + 1))
        else:
            attach = Tensor(np.zeros((batch, n + 1, n + 1)))

        gathered = stop_tbl[bb, tag_ids]                      # (B, n, 2, 2, 2)
        zero_head = Tensor(np.zeros((batch, 1, 2, 2)))
        stop = T.concat([zero_head, gathered[:, :, :, :, 0]], axis=1)
        cont = T.concat([zero_head, gathered[:, :, :, :, 1]], axis=1)
        root = T.concat([Tensor(np.zeros((batch, 1))), root_tbl[bb, tag_ids]], axis=1)
        return attach, stop, cont, root

    def sentence_scores(self, tag_ids: Sequence[int], summary: Tensor) -> chart.DmvScores:
        """Plain-numpy score tables for one sentence (Viterbi decoding)."""
        attach, stop, cont, root = self.decoder_scores(
            np.asarray(tag_ids, dtype=int)[None], summary)
        return chart.DmvScores(attach=attach.numpy()[0], stop=stop.numpy()[0],
                               cont=cont.numpy()[0], root=root.numpy()[0])

    # -- contexts and matching -------------------------------------------

    def arc_contexts(self, contexts: Tensor) -> Tensor:
        """Pairwise arc representations (B, n, n, match_dim); entry
        [b, i, j] encodes a head i+1 -> dependent j+1 dependency."""
        parent = T.relu(T.linear(contexts, self.store["arc.parent.w"],
                                 self.store["arc.parent.b"]))
        child = T.relu(T.linear(contexts, self.store["arc.child.w"],
                                self.store["arc.child.b"]))
        return T.biaffine_features(parent, child, self.store["arc.bi.w1"],
                                   self.store["arc.bi.w2"], self.store["arc.bi.b"])

    def _unit(self, rows: Tensor) -> Tensor:
        """Rows as the similarity compares them: L2-normalized when
        ``normalize_sim`` is on."""
        return T.l2_normalize(rows) if self.config.normalize_sim else rows

    def node_matrix(self, feats: Tensor) -> Tensor:
        """Projected, normalized node rows (V, match_dim) of
        ``_pad_nodes``' features."""
        return self._unit(T.matmul(feats, self.store["match.vis"]))

    @staticmethod
    def similarity(rows: Tensor, nodes: Tensor) -> Tensor:
        """Scores (R, V) of context rows against a node matrix, both
        already passed through ``_unit``."""
        return T.matmul(rows, T.swapaxes(nodes, -1, -2))

    def batch_contexts(self, contexts: Tensor
                       ) -> tuple[Tensor, Tensor, np.ndarray, np.ndarray]:
        """Projected token, arc, and second-order contexts plus the
        ``arc_index`` and ``pattern_index`` rows beyond the first n."""
        n = contexts.shape[1]
        ctx_tok = T.matmul(contexts, self.store["match.ctx"])
        arc_tbl = self.arc_contexts(contexts)
        pairs = arc_index(n)
        triples = pattern_index(n) if self.config.second_order else np.zeros((0, 2, 2), int)
        parts = [ctx_tok]
        if len(pairs):
            parts.append(arc_tbl[:, pairs[:, 0] - 1, pairs[:, 1] - 1])
        if len(triples):
            pos = triples - 1
            parts.append(T.pair_mlp(arc_tbl, (slice(None), pos[:, 0, 0], pos[:, 0, 1]),
                                    (slice(None), pos[:, 1, 0], pos[:, 1, 1]),
                                    self.store["second.w1"], self.store["second.b1"],
                                    self.store["second.w2"], self.store["second.b2"]))
        return T.concat(parts, axis=1), arc_tbl, pairs, triples

    def context_weights(self, posteriors: Tensor, n: int,
                        pairs: np.ndarray, triples: np.ndarray) -> Tensor:
        """Structural weight per context row: 1 for tokens, the arc
        posterior for arcs, the product of the two arc posteriors for
        second-order contexts (a factored stand-in for the exact joint
        marginal, which would need a second-order chart)."""
        batch = posteriors.shape[0]
        parts = [Tensor(np.ones((batch, n)))]
        if len(pairs):
            parts.append(posteriors[:, pairs[:, 0], pairs[:, 1]])
        if len(triples):
            parts.append(T.mul(posteriors[:, triples[:, 0, 0], triples[:, 0, 1]],
                               posteriors[:, triples[:, 1, 0], triples[:, 1, 1]]))
        return T.concat(parts, axis=1)

    # -- losses ------------------------------------------------------------

    def _contrastive_from(self, batch: SentenceBatch, contexts: Tensor,
                          charts: BatchCharts, feats: Tensor) -> Tensor:
        bsz, n = batch.tag_ids.shape
        ctx_all, _, pairs, triples = self.batch_contexts(contexts)
        weights = self.context_weights(charts.posteriors, n, pairs, triples)
        per_sentence = ctx_all.shape[1]
        flat_ctx = self._unit(
            T.reshape(ctx_all, (bsz * per_sentence, self.config.match_dim)))
        sim_image = T.max_similarity(                             # (B*C, B)
            flat_ctx, self.node_matrix(feats), [len(ns) for ns in batch.node_sets])
        sim_plus = T.mul(sim_image, T.reshape(weights, (bsz * per_sentence, 1)))
        log_probs = T.log_softmax(sim_plus, axis=1)
        own = np.repeat(np.arange(bsz), per_sentence)
        picked = log_probs[np.arange(bsz * per_sentence), own]
        return T.mul(T.tsum(picked), -1.0 / bsz)

    def total_loss(self, batch: SentenceBatch,
                   lambda_cl: float) -> tuple[Tensor, float, float]:
        """(1 - lambda) * mle + lambda * contrastive, sharing one forward."""
        if not 0.0 <= lambda_cl <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lambda_cl}")
        nodes = self._pad_nodes(batch.node_sets)
        contexts, summary = self.encode(batch.word_ids, batch.tag_ids, nodes)
        charts = inside_outside(*self.decoder_scores(batch.tag_ids, summary),
                                need_posteriors=lambda_cl > 0.0)
        l_mle = T.mul(T.tmean(charts.log_partition), -1.0)
        if lambda_cl == 0.0:
            return l_mle, l_mle.item(), 0.0
        l_cl = self._contrastive_from(batch, contexts, charts, nodes[0])
        total = T.add(T.mul(l_mle, 1.0 - lambda_cl), T.mul(l_cl, lambda_cl))
        return total, l_mle.item(), l_cl.item()

    def harmonic_loss(self, batch: SentenceBatch) -> Tensor:
        """Warm-up target: expected complete-data log-likelihood under
        nearness-biased attachment posteriors, the usual remedy for the
        initialization sensitivity of valence grammars."""
        _, summary = self.encode(batch.word_ids, batch.tag_ids,
                                 self._pad_nodes(batch.node_sets))
        attach, _, _, root = self.decoder_scores(batch.tag_ids, summary)
        bsz, n = batch.tag_ids.shape
        target = np.zeros((bsz, n + 1, n + 1))
        for d in range(1, n + 1):
            weights = np.zeros(n + 1)
            weights[0] = 1.0 / n
            for h in range(1, n + 1):
                if h != d:
                    weights[h] = 1.0 / abs(h - d)
            target[:, :, d] = weights / weights.sum()
        expected = T.add(T.tsum(T.mul(attach, target), axis=(1, 2)),
                         T.tsum(T.mul(root, target[:, 0, :]), axis=1))
        return T.mul(T.tmean(expected), -1.0)

    # -- inference ---------------------------------------------------------

    def parse(self, tokens: Sequence[Token], node_set: VisualNodeSet,
              sentence_id: str = "") -> tuple[DependencyTree, VLAlignment]:
        """Best tree under the decoder plus its grounding; token node
        types are read off the grounding argmax."""
        n = len(tokens)
        if n > self.config.max_parse_len:
            raise ValueError(f"sentence length {n} exceeds the inference cap "
                             f"{self.config.max_parse_len}")
        return self._decode(tokens, node_set, None, sentence_id)

    def ground(self, tokens: Sequence[Token], node_set: VisualNodeSet,
               heads: Optional[Sequence[int]] = None,
               sentence_id: str = "") -> VLAlignment:
        """Grounding for a sentence; a supplied gold tree fixes the arc
        and triple instance set, otherwise the parsed tree does."""
        return self._decode(tokens, node_set, heads, sentence_id)[1]

    def _decode(self, tokens: Sequence[Token], node_set: VisualNodeSet,
                heads: Optional[Sequence[int]], sentence_id: str
                ) -> tuple[DependencyTree, VLAlignment]:
        """Encode, decode the Viterbi tree unless ``heads`` is given, and
        ground its tokens, arcs (on relationship nodes) and patterns. The
        tree's node types are those of the tokens' argmax nodes, the only
        nodes read besides one relationship node per arc; building the
        tree is the one check of its heads."""
        tag_ids = np.array([[t.pos for t in tokens]])
        nodes = self._pad_nodes([node_set])
        contexts, summary = self.encode(self.word_ids(tokens)[None], tag_ids, nodes)
        if heads is None:
            heads, _ = chart.viterbi(self.sentence_scores(tag_ids[0], summary))
        nodes = self.node_matrix(nodes[0])
        ctx_tok = self._unit(T.matmul(contexts, self.store["match.ctx"])[0])
        sim_tok = self.similarity(ctx_tok, nodes).numpy()
        picked = [node_set.nodes[k] for k in sim_tok.argmax(axis=1)]
        # the first node of a repeated id wins, as in the argmax order; only
        # a gold set repeats one (a graph's own "img" next to the image node)
        first_of = {} if node_set.regions else {nd.id: nd for nd in reversed(node_set.nodes)}
        tree = DependencyTree(tokens=tuple(tokens), heads=tuple(heads),
                              types=tuple(first_of.get(nd.id, nd).type for nd in picked),
                              sentence_id=sentence_id)
        inst = tree_to_instances(tree)
        zero = {t: picked[t - 1].id for t in inst.zero}

        first: dict[tuple[int, int], FirstAlignment] = {}
        rel_idx = node_set.relationship_indices()
        arc_to_rel: dict[tuple[int, int], VisualNode] = {}
        if len(rel_idx) and inst.first:
            arcs = np.array(inst.first) - 1
            arc_ctx = self._unit(self.arc_contexts(contexts)[0][arcs[:, 0], arcs[:, 1]])
            sim_arc = self.similarity(arc_ctx, nodes).numpy()
            for row, arc in enumerate(inst.first):
                best = rel_idx[int(np.argmax(sim_arc[row][rel_idx]))]
                node = node_set.nodes[best]
                arc_to_rel[arc] = node
                first[arc] = FirstAlignment(relationship=node.id,
                                            endpoints=(node.src, node.dst))

        second: dict[tuple[int, int, int], tuple[str, str, str]] = {}
        for triple in inst.second:
            arc1, arc2 = second_order_arcs(tree.heads, triple)
            r1, r2 = arc_to_rel.get(arc1), arc_to_rel.get(arc2)
            if r1 is None or r2 is None:
                continue
            if tree.heads[triple[1] - 1] == triple[0]:   # chain g -> m -> y
                second[triple] = (r1.src, r1.dst, r2.dst)
            else:                                    # siblings around m
                second[triple] = (r1.dst, r1.src, r2.dst)
        return tree, VLAlignment(sentence_id=sentence_id, zero=zero, first=first,
                                 second=second)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str, config_digest: str = "") -> None:
        T.save_checkpoint(path, self.store, config_digest)

    def load(self, path: str, expect_digest: Optional[str] = None) -> str:
        params, digest = T.load_checkpoint(path)
        if expect_digest is not None and digest != expect_digest:
            raise ValueError(f"checkpoint digest {digest!r} does not match "
                             f"config digest {expect_digest!r}")
        self.store.load_values(params)
        return digest
