import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vgram.data as data_module
from vgram import chart
from vgram.core import validate_tree
from vgram.data import (
    DataError,
    SynthConfig,
    cross_reference,
    load_alignments,
    load_corpus,
    load_embeddings,
    load_features,
    load_scene_graphs,
    save_alignments,
    save_corpus,
    save_embeddings,
    save_features,
    save_scene_graphs,
    synth_generate,
)


def small_cfg(**kw):
    base = dict(sentences=30, dev_sentences=5, test_sentences=5, max_len=6,
                dim=8, sigma=0.0, distractors=0, words_per_tag=12, seed=3)
    base.update(kw)
    return SynthConfig(**base)


@pytest.fixture(scope="module")
def synth():
    return synth_generate(small_cfg())


class TestRoundTrips:
    def test_corpus(self, synth, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        save_corpus(path, synth.train, synth.tagset)
        sentences, tagset = load_corpus(path)
        assert tagset == synth.tagset
        assert len(sentences) == len(synth.train)
        for a, b in zip(sentences, synth.train):
            assert a == b

    def test_features(self, synth, tmp_path):
        path = str(tmp_path / "features.jsonl")
        save_features(path, synth.features)
        loaded = load_features(path)
        assert loaded.keys() == synth.features.keys()
        for image_id, regions in loaded.items():
            assert regions.boxes == synth.features[image_id].boxes
            assert regions.feats.shape == (len(regions.boxes), 8)
            np.testing.assert_array_equal(regions.feats, synth.features[image_id].feats)

    def test_scene_graphs(self, synth, tmp_path):
        path = str(tmp_path / "sg.jsonl")
        save_scene_graphs(path, synth.scene_graphs)
        loaded = load_scene_graphs(path)
        assert loaded.keys() == synth.scene_graphs.keys()
        key = next(iter(loaded))
        a, b = loaded[key], synth.scene_graphs[key]
        assert [o.id for o in a.objects] == [o.id for o in b.objects]
        assert {(r.src, r.dst, r.label) for r in a.relationships} == \
            {(r.src, r.dst, r.label) for r in b.relationships}
        assert {(x.id, x.owner) for x in a.attributes} == \
            {(x.id, x.owner) for x in b.attributes}

    def test_alignments(self, synth, tmp_path):
        path = str(tmp_path / "align.jsonl")
        save_alignments(path, list(synth.alignments.values()))
        loaded = load_alignments(path)
        assert loaded.keys() == synth.alignments.keys()
        key = next(iter(loaded))
        assert loaded[key].zero == synth.alignments[key].zero
        assert loaded[key].first == synth.alignments[key].first
        assert loaded[key].second == synth.alignments[key].second

    def test_embeddings(self, synth, tmp_path):
        path = str(tmp_path / "emb.jsonl")
        save_embeddings(path, synth.vocab, synth.embeddings)
        words, mat = load_embeddings(path)
        assert words == synth.vocab
        np.testing.assert_allclose(mat, synth.embeddings)


class TestValidation:
    def test_dangling_image_id(self, synth):
        with pytest.raises(DataError, match="missing from features"):
            cross_reference(synth.train, features={})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "s0"\n', encoding="utf-8")
        with pytest.raises(DataError, match="bad JSON"):
            load_corpus(str(path))

    def test_invalid_tree_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "s0", "image_id": "i0", "tokens": ["a", "b"],
               "pos": ["NN0", "NN0"], "heads": [2, 1]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="invalid tree"):
            load_corpus(str(path))

    @pytest.mark.parametrize("load", [load_corpus, load_features, load_scene_graphs,
                                      load_embeddings, load_alignments])
    def test_top_level_array_rejected(self, tmp_path, load):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:1: expected a JSON object"):
            load(str(path))

    def test_string_tokens_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "s0", "image_id": "i0", "tokens": "abc",
               "pos": ["NN0", "NN0", "NN0"]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:1: 'tokens' must be a list of strings"):
            load_corpus(str(path))

    @pytest.mark.parametrize("load, rec, key", [
        (load_alignments, {"sentence_id": "s", "zero": 5}, "zero"),
        (load_alignments, {"sentence_id": "s", "zero": None}, "zero"),
        (load_alignments, {"sentence_id": "s", "first": 5}, "first"),
        (load_alignments, {"sentence_id": "s", "second": 5}, "second"),
        (load_alignments, {"sentence_id": "s", "first": [{"arc": 12}]}, "arc"),
        (load_alignments, {"sentence_id": "s", "first": [{"arc": [1, 2], "endpoints": 5}]},
         "endpoints"),
        (load_alignments, {"sentence_id": "s", "second": [{"tokens": "123",
                                                           "nodes": ["a", "b", "c"]}]},
         "tokens"),
        (load_alignments, {"sentence_id": "s", "second": [{"tokens": [1, 2, 3],
                                                           "nodes": "abc"}]}, "nodes"),
        (load_scene_graphs, {"image_id": "i", "nodes": 5}, "nodes"),
        (load_scene_graphs, {"image_id": "i", "nodes": [], "edges": 5}, "edges"),
        (load_features, {"image_id": "i", "regions": 5}, "regions"),
        (load_corpus, {"id": "s", "image_id": "i", "tokens": ["a"], "pos": ["N"],
                       "types": 5}, "types"),
        (load_corpus, {"id": "s", "image_id": "i", "tokens": ["a"], "pos": ["N"],
                       "dep_labels": 5}, "dep_labels"),
    ])
    def test_list_field_must_be_list(self, tmp_path, load, rec, key):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:1: {key!r} must be a list")):
            load(str(path))

    @pytest.mark.parametrize("heads", ["01", 5, ["0", "1"], [0, True], [0, 1.0]])
    def test_heads_must_be_integer_list(self, tmp_path, heads):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "s0", "image_id": "i0", "tokens": ["a", "b"],
               "pos": ["NN0", "NN0"], "heads": heads}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:1: 'heads' must be a list of integers")):
            load_corpus(str(path))

    @pytest.mark.parametrize("entry, problem", [
        ({"zero": [{"t": [1], "node": "o1"}]}, "'t' takes JSON integers only, got [1]"),
        ({"zero": [{"t": 1.7, "node": "o1"}]}, "'t' takes JSON integers only, got 1.7"),
        ({"zero": [{"t": "1", "node": "o1"}]}, "'t' takes JSON integers only, got '1'"),
        ({"zero": [{"t": True, "node": "o1"}]}, "'t' takes JSON integers only, got True"),
        ({"first": [{"arc": [1, 2, 3]}]}, "'arc' must list 2 integers, got 3"),
        ({"first": [{"arc": [1]}]}, "'arc' must list 2 integers, got 1"),
        ({"first": [{"arc": [1, 2.0]}]}, "'arc' takes JSON integers only, got 2.0"),
        ({"first": [{"arc": [False, 2]}]}, "'arc' takes JSON integers only, got False"),
        ({"second": [{"tokens": [1, 2], "nodes": ["a", "b", "c"]}]},
         "'tokens' must list 3 integers, got 2"),
        ({"second": [{"tokens": [1, "2", 3], "nodes": ["a", "b", "c"]}]},
         "'tokens' takes JSON integers only, got '2'"),
    ])
    def test_alignment_integers(self, tmp_path, entry, problem):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"sentence_id": "s", **entry}) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:1: {problem}")):
            load_alignments(str(path))

    def test_lemma_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "s0", "image_id": "i0", "tokens": ["a", "b", "c"],
               "pos": ["NN0", "NN0", "NN0"], "lemmas": ["a"]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:1: 1 lemmas for 3 tokens"):
            load_corpus(str(path))

    @pytest.mark.parametrize("field,values", [("types", ["OBJECT"]),
                                              ("dep_labels", ["root", "det", "amod", "x"])])
    def test_type_and_label_count_mismatch_rejected(self, tmp_path, field, values):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "s0", "image_id": "i0", "tokens": ["a", "b", "c"],
               "pos": ["NN0", "NN0", "NN0"], "heads": [0, 1, 1], field: values}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError,
                           match=f"{path}:1: {len(values)} {field} for 3 tokens"):
            load_corpus(str(path))

    def test_feature_dim_mismatch(self, tmp_path):
        path = tmp_path / "feat.jsonl"
        recs = [
            {"image_id": "a", "regions": [{"bbox": [0, 0, 1, 1], "feat": [1, 2]}]},
            {"image_id": "b", "regions": [{"bbox": [0, 0, 1, 1], "feat": [1, 2, 3]}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in recs), encoding="utf-8")
        with pytest.raises(DataError, match="feature dim"):
            load_features(str(path))

    def test_xywh_boxes_converted(self, tmp_path):
        path = tmp_path / "feat.jsonl"
        rec = {"image_id": "a", "bbox_format": "xywh",
               "regions": [{"bbox": [10, 20, 30, 40], "feat": [1.0]}]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        loaded = load_features(str(path))
        assert loaded["a"].boxes == [(10, 20, 40, 60)]

    FLAT = "every 'feat' must be a flat list of numbers, all of one length"
    BOX = "bad region box (need a list of 4 numbers, got "

    @pytest.mark.parametrize("regions, problem", [
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0, None]}], FLAT),
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0, float("nan")]}], "'feat' holds NaN or Infinity"),
        ([{"bbox": [0, 0, 1, 1], "feat": [float("inf"), 1.0]}], "'feat' holds NaN or Infinity"),
        ([{"bbox": [0, 0, 1, 1], "feat": [[1.0, 2.0]]}], FLAT),
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0, [2.0]]}], FLAT),
        ([{"bbox": [0, 0, 1, 1], "feat": ["1.0", 2.0]}], FLAT),
        ([{"bbox": [0, 0, 1, 1], "feat": [True, False]}], FLAT),
        ([{"bbox": [0, 0, 1, 1], "feat": 1.0}], FLAT),
        ([{"bbox": [0, 0, 1, 1], "feat": []}], FLAT),
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0, 2.0]},
          {"bbox": [0, 0, 1, 1], "feat": [1.0]}], FLAT),
        ([{"bbox": [0, 0, 1, 1]}], "missing field 'feat'"),
        ([{"bbox": [0, None, 1, 1], "feat": [1.0]}], BOX),
        ([{"bbox": [0, {"y": 0}, 1, 1], "feat": [1.0]}], BOX),
        ([{"bbox": [0, [0], 1, 1], "feat": [1.0]}], BOX),
        ([{"bbox": [0, 0, 10 ** 400, 1], "feat": [1.0]}], BOX),
        ([{"bbox": [0, 0, 1], "feat": [1.0]}], BOX),
        ([{"bbox": 5, "feat": [1.0]}], BOX),
        ([{"bbox": None, "feat": [1.0]}], BOX),
        ([{"bbox": "0011", "feat": [1.0]}], BOX),
        ([{"bbox": [0, 0, 1, float("nan")], "feat": [1.0]}], "bad region box (degenerate box"),
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0]}, {"bbox": [5, 0, 1, 1], "feat": [1.0]}],
         "bad region box (degenerate box [5, 0, 1, 1]"),
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0]}, 7], "expected a JSON object"),
        ([{"bbox": [0, 0, "1", True], "feat": [1.0]}], BOX),
        ([{"bbox": [0, 0, 1, True], "feat": [1.0]}], BOX),
        ([{"bbox": [0, 0, "1", 1], "feat": [1.0]}], BOX),
        # a row as long as the valid record's: each record is converted on its own
        ([{"bbox": [0, 0, 1, 1], "feat": [True]}], FLAT),
        # true/false among numbers would convert to 1.0/0.0
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0, True]}], FLAT),
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0, 2.0]},
          {"bbox": [0, 0, 1, 1], "feat": [3, False]}], FLAT),
        ([{"bbox": [0, 0, float("inf"), 1], "feat": [1.0]}], BOX + "[0, 0, inf, 1])"),
        ([{"bbox": [0, 0, 1, 1], "feat": [1.0]},
          {"bbox": [-float("inf"), 0, 1, 1], "feat": [1.0]}], BOX + "[-inf, 0, 1, 1])"),
    ])
    def test_region_vectors_and_boxes(self, tmp_path, regions, problem):
        path = tmp_path / "feat.jsonl"
        ok = {"image_id": "a", "regions": [{"bbox": [0, 0, 1, 1], "feat": [1.0]}]}
        path.write_text(json.dumps(ok) + "\n"
                        + json.dumps({"image_id": "b", "regions": regions}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: {problem}")):
            load_features(str(path))

    @pytest.mark.parametrize("load, rec, problem", [
        (load_features, {"image_id": "a", "bbox_format": "xywh",
                         "regions": [{"bbox": [1e308, 0, 1e308, 1], "feat": [1.0]}]},
         "bad region box (need a list of 4 numbers, got [1e+308, 0, 1e+308, 1])"),
        (load_scene_graphs, {"image_id": "i", "bbox_format": "xywh",
                             "nodes": [{"id": "o1", "type": "OBJECT",
                                        "bbox": [0, -1e308, 1, -1e308]}]},
         "bad node box (need a list of 4 numbers, got [0, -1e+308, 1, -1e+308])"),
    ])
    def test_xywh_box_past_the_float_range(self, tmp_path, load, rec, problem):
        path = tmp_path / "boxes.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:1: {problem}")):
            load(str(path))

    def test_region_values_load_as_floats(self, tmp_path):
        path = tmp_path / "feat.jsonl"
        rec = {"image_id": "a", "regions": [{"bbox": [0, 0, 1, 1], "feat": [1, 2]},
                                            {"bbox": [1, 1, 2, 2], "feat": [3.5, 4]}]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        boxes, feats = load_features(str(path))["a"]
        assert boxes == [(0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0)]
        assert all(type(box) is tuple and type(v) is float for box in boxes for v in box)
        assert feats.dtype == np.float64 and feats.shape == (2, 2)
        assert feats.flags.c_contiguous
        np.testing.assert_array_equal(feats, [[1, 2], [3.5, 4]])

    @pytest.mark.parametrize("vec, problem", [
        ([1.0, None], "every 'vec' must be a flat list of numbers"),
        ([float("nan"), 1.0], "'vec' holds NaN or Infinity"),
        ([[1.0, 2.0]], "every 'vec' must be a flat list of numbers"),
        ("12", "every 'vec' must be a flat list of numbers"),
        (None, "every 'vec' must be a flat list of numbers"),
        ([1.0], "embedding dim 1 != 2"),
        # a row as long as the valid record's: each record is converted on its own
        ([True, False], "every 'vec' must be a flat list of numbers"),
        ([1.0, False], "every 'vec' must be a flat list of numbers"),
        ([True, 2], "every 'vec' must be a flat list of numbers"),
    ])
    def test_embedding_vectors(self, tmp_path, vec, problem):
        path = tmp_path / "emb.jsonl"
        path.write_text(json.dumps({"word": "a", "vec": [1.0, 2.0]}) + "\n"
                        + json.dumps({"word": "b", "vec": vec}) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: {problem}")):
            load_embeddings(str(path))

    @pytest.mark.parametrize("bbox, problem", [
        ([0, None, 1, 1], "bad node box (need a list of 4 numbers, got [0, None, 1, 1])"),
        ([0, 0, 1], "bad node box (need a list of 4 numbers, got [0, 0, 1])"),
        (5, "bad node box (need a list of 4 numbers, got 5)"),
        ([1, 0, 0, 1], "bad node box (degenerate box"),
        (0, "bad node box (need a list of 4 numbers, got 0)"),
        ([], "bad node box (need a list of 4 numbers, got [])"),
        (False, "bad node box (need a list of 4 numbers, got False)"),
        ("", "bad node box (need a list of 4 numbers, got '')"),
        ([0, 0, 1, True], "bad node box (need a list of 4 numbers, got [0, 0, 1, True])"),
        ([0, 0, float("inf"), 1], "bad node box (need a list of 4 numbers, got [0, 0, inf, 1])"),
    ])
    def test_scene_graph_node_boxes(self, tmp_path, bbox, problem):
        path = tmp_path / "sg.jsonl"
        rec = {"image_id": "i",
               "nodes": [{"id": "o1", "type": "OBJECT", "bbox": bbox},
                         {"id": "a1", "type": "ATTRIBUTE"}],
               "edges": [{"src": "o1", "dst": "a1", "label": "attr"}]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:1: {problem}")):
            load_scene_graphs(str(path))

    def test_duplicate_node_id_is_named(self, tmp_path):
        path = tmp_path / "sg.jsonl"
        rec = {"image_id": "i",
               "nodes": [{"id": "o1", "type": "OBJECT"}, {"id": "o2", "type": "OBJECT"},
                         {"id": "o1", "type": "OBJECT"}]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:1: duplicate node id 'o1'")):
            load_scene_graphs(str(path))

    SENTENCE = {"id": "s", "image_id": "i", "tokens": ["a"], "pos": ["N"]}

    @pytest.mark.parametrize("load, rec, problem", [
        (load_corpus, {**SENTENCE, "id": None}, "'id' must be a string, got None"),
        (load_corpus, {**SENTENCE, "image_id": ["x"]}, "'image_id' must be a string, got ['x']"),
        (load_corpus, {**SENTENCE, "dep_labels": [{"x": 1}]},
         "'dep_labels' must be a list of strings"),
        (load_alignments, {"sentence_id": "s", "first": [{"arc": [1, 2]}]},
         "missing field 'endpoints'"),
        (load_alignments, {"sentence_id": "s", "first": [{"arc": [1, 2], "endpoints": ["a", "b"]}]},
         "missing field 'rel'"),
        (load_alignments, {"sentence_id": "s", "zero": [{"t": 1, "node": None}]},
         "'node' must be a string, got None"),
        (load_embeddings, {"word": None, "vec": [1.0]}, "'word' must be a string, got None"),
    ])
    def test_text_fields_take_strings_only(self, tmp_path, load, rec, problem):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:1: {problem}")):
            load(str(path))

    @pytest.mark.parametrize("entry, problem", [
        ({"zero": [{"t": 1, "node": "a"}, {"t": 1, "node": "b"}]}, "duplicate token"),
        ({"second": [{"tokens": [1, 2, 3], "nodes": ["a", "b"]}]},
         "'nodes' must list 3 strings, got 2"),
        ({"first": [{"arc": [1, 2], "rel": "r", "endpoints": ["a", "b", "c"]}]},
         "'endpoints' must list 2 strings, got 3"),
        ({"meta": "rule-based"}, "'meta' must be a JSON object, got 'rule-based'"),
        ({"meta": [1]}, "'meta' must be a JSON object, got [1]"),
        ({"first": [{"arc": [1, 2], "rel": "r", "endpoints": ["a", "b"]},
                    {"arc": [1, 2], "rel": "q", "endpoints": ["a", "b"]}]},
         "duplicate arc in 'first'"),
        ({"second": [{"tokens": [1, 2, 3], "nodes": ["a", "b", "c"]},
                     {"tokens": [1, 2, 3], "nodes": ["a", "b", "d"]}]},
         "duplicate triple in 'second'"),
    ])
    def test_alignment_entries_lose_nothing(self, tmp_path, entry, problem):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"sentence_id": "s", **entry}) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:1: {problem}")):
            load_alignments(str(path))

    def test_first_record_at_fault_is_named(self, tmp_path):
        path = tmp_path / "align.jsonl"
        recs = [{"sentence_id": "s"}, {"sentence_id": "s"}, {"sentence_id": "t", "zero": 5}]
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:2: duplicate sentence id 's'"):
            load_alignments(str(path))

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps({"tagset": ["NN0"]}),
                 json.dumps({"id": "s", "image_id": "i", "tokens": ["x"],
                             "pos": ["VB"]})]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DataError, match="not in tagset"):
            load_corpus(str(path))


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(small_cfg())
        b = synth_generate(small_cfg())
        assert [s.tokens for s in a.train] == [s.tokens for s in b.train]
        assert [s.heads for s in a.train] == [s.heads for s in b.train]

    def test_trees_valid_and_bounded(self, synth):
        for s in synth.train + synth.dev + synth.test:
            assert validate_tree(s.heads, len(s)) is None
            assert 1 <= len(s) <= 6

    def test_alignments_structurally_sound(self, synth):
        for s in synth.train:
            align = synth.alignments[s.id]
            sg = synth.scene_graphs[s.image_id]
            align.validate(s.tree(), sg)
            for (h, d), fa in align.first.items():
                assert fa.endpoints == (align.zero[h], align.zero[d])
                rel = sg.node(fa.relationship)
                assert (rel.src, rel.dst) == fa.endpoints

    def test_sigma_zero_nearest_neighbor_recovers_alignment(self, synth):
        emb_of = {w: synth.embeddings[i] for i, w in enumerate(synth.vocab)}
        for s in synth.train:
            feats = synth.features[s.image_id].feats
            for tok in s.tokens:
                sims = feats @ emb_of[tok.surface]
                assert f"o{int(np.argmax(sims)) + 1}" == synth.alignments[s.id].zero[tok.index]

    def test_empirical_attach_matches_posteriors(self):
        # head-of-first-token indicators are independent across samples
        cfg = small_cfg(sentences=4000, max_len=8, seed=11)
        data = synth_generate(cfg)
        stats = {"root1": (0, 1), "two_heads_one": (1, 2)}
        for name, (h, d) in stats.items():
            count, expect, var = 0.0, 0.0, 0.0
            for s in data.train:
                if len(s) < d:
                    continue
                scores = data.grammar.scores_for([t.pos for t in s.tokens])
                post = chart.arc_posteriors(scores)
                p = post[h][d]
                expect += p
                var += p * (1 - p)
                count += 1.0 if s.heads[d - 1] == h else 0.0
            se = max(np.sqrt(var), 1e-9)
            assert abs(count - expect) <= 3 * se, name

    def test_grammar_scores_normalized(self, synth):
        g = synth.grammar
        np.testing.assert_allclose(g.attach.sum(-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(g.root.sum(), 1.0, atol=1e-12)
        scores = g.scores_for([0, 1, 2])
        np.testing.assert_allclose(
            np.exp(scores.stop[1:]) + np.exp(scores.cont[1:]), 1.0, atol=1e-12)

    def test_distinct_words_within_sentence(self, synth):
        for s in synth.train:
            words = [t.surface for t in s.tokens]
            assert len(set(words)) == len(words)


# -- malformed records: fuzzing and the documented field tables ---------------

SAVERS = {
    load_corpus: lambda path, s: save_corpus(path, s.train[:1], s.tagset),
    load_features: lambda path, s: save_features(path, dict(list(s.features.items())[:1])),
    load_scene_graphs: lambda path, s: save_scene_graphs(
        path, dict(list(s.scene_graphs.items())[:1])),
    load_alignments: lambda path, s: save_alignments(path, list(s.alignments.values())[:1]),
    load_embeddings: lambda path, s: save_embeddings(path, s.vocab[:1], s.embeddings[:1]),
}
REPLACEMENTS = [None, True, False, "x", 1.5, [], [1], {}, {"a": 1}, 10 ** 400, math.nan]


@pytest.fixture(scope="module")
def valid_records(synth, tmp_path_factory):
    """One small valid file per loader, as its list of JSON records."""
    out = {}
    for load, save in SAVERS.items():
        path = tmp_path_factory.mktemp("records") / "valid.jsonl"
        save(str(path), synth)
        load(str(path))
        out[load] = [json.loads(line) for line in path.read_text().splitlines()]
    return out


def _paths(value, prefix=()):
    """The path of every key and list entry under ``value``."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("load", list(SAVERS), ids=lambda f: f.__name__)
def test_one_mutation_loads_or_is_a_data_error(valid_records, load, data):
    records = json.loads(json.dumps(valid_records[load]))
    rec = data.draw(st.sampled_from(records))
    path = data.draw(st.sampled_from(list(_paths(rec))))
    parent = rec
    for step in path[:-1]:
        parent = parent[step]
    replacement = data.draw(st.sampled_from(["drop"] + REPLACEMENTS))
    if replacement == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "mutated.jsonl"
        file.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        try:
            load(str(file))
        except DataError:
            pass


def test_field_tables_are_documented():
    formats = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    tables = {name: table for name, table in vars(data_module).items()
              if name.endswith("_FIELDS")}
    assert len(tables) == 12
    for name, table in tables.items():
        for key, *_ in table:
            assert f"`{key}`" in formats, f"{name}: {key!r} is not in FORMATS.md"


# -- chunked reading: the same values and errors as one record at a time ------

CHUNKED_SAVERS = {
    load_corpus: lambda path, s: save_corpus(path, s.train, s.tagset),
    load_features: lambda path, s: save_features(path, s.features),
    load_scene_graphs: lambda path, s: save_scene_graphs(path, s.scene_graphs),
    load_alignments: lambda path, s: save_alignments(path, list(s.alignments.values())),
    load_embeddings: lambda path, s: save_embeddings(path, s.vocab, s.embeddings),
}
# integers numpy keeps as uint64, as float64 next to a negative, or as objects
BIG_INTEGERS = [2 ** 63, -2 ** 63 - 1, 2 ** 64]


@pytest.fixture(scope="module")
def chunked_records(tmp_path_factory):
    """One valid file per loader, as its list of JSON records: each spans
    at least two chunks of the default size."""
    synth = synth_generate(small_cfg(sentences=70))
    out = {}
    for load, save in CHUNKED_SAVERS.items():
        path = tmp_path_factory.mktemp("records") / "valid.jsonl"
        save(str(path), synth)
        load(str(path))
        out[load] = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(out[load]) > data_module._CHUNK + 1
    return out


def _same(a, b) -> bool:
    """``a`` and ``b`` are of one type and equal; arrays bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                and a.flags.c_contiguous == b.flags.c_contiguous)
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


def _outcome(load, path):
    try:
        return "loaded", load(path)
    except DataError as e:
        return "error", str(e)


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("load", list(CHUNKED_SAVERS), ids=lambda f: f.__name__)
def test_chunked_reading_agrees_with_one_record_at_a_time(chunked_records, load, data):
    records = json.loads(json.dumps(chunked_records[load]))
    lines = [json.dumps(r) for r in records]
    index = data.draw(st.integers(0, len(records) - 1))
    path = data.draw(st.sampled_from([()] + list(_paths(records[index]))))
    replacement = data.draw(st.sampled_from(["drop"] + REPLACEMENTS + BIG_INTEGERS))
    if not path:    # the whole record: cut short (bad JSON) or replaced
        lines[index] = lines[index][:-1] if replacement == "drop" else json.dumps(replacement)
    else:
        parent = records[index]
        for step in path[:-1]:
            parent = parent[step]
        if replacement == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
        lines[index] = json.dumps(records[index])
    with tempfile.TemporaryDirectory() as tmp:
        file = str(Path(tmp) / "mutated.jsonl")
        Path(file).write_text("\n".join(lines) + "\n", encoding="utf-8")
        chunked = _outcome(load, file)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_module, "_CHUNK", 1)
            single = _outcome(load, file)
    assert chunked[0] == single[0], (chunked[1], single[1])
    assert _same(chunked[1], single[1])


ALIGNMENT = {"sentence_id": "s1", "zero": [{"t": 1, "node": "o1"}]}


@pytest.mark.parametrize("lines, problem", [
    ([ALIGNMENT, {"sentence_id": "s1"}, {"sentence_id": "s3", "zero": 5}, "{"],
     "duplicate sentence id 's1'"),
    ([ALIGNMENT, {"sentence_id": "s2", "zero": 5}, "{"], "'zero' must be a list"),
], ids=["duplicate-id-field-json", "field-json"])
def test_first_fault_in_file_order_is_named(tmp_path, lines, problem):
    """Across kinds of fault, the error names the first record at fault
    (line 2), whatever the chunk holds after it."""
    path = tmp_path / "align.jsonl"
    path.write_text("\n".join(r if type(r) is str else json.dumps(r) for r in lines) + "\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: {problem}")):
        load_alignments(str(path))


@pytest.mark.parametrize("load", list(CHUNKED_SAVERS), ids=lambda f: f.__name__)
def test_fault_opening_the_second_chunk_is_named(chunked_records, tmp_path, load):
    """A field fault in the first record of the second chunk names that
    record's line; the corpus's tagset header is a line before the chunks."""
    records = json.loads(json.dumps(chunked_records[load]))
    index = data_module._CHUNK + (load is load_corpus)
    key = next(iter(records[index]))
    records[index][key] = None
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:{index + 1}: {key!r} must be a string, got None")):
        load(str(path))
