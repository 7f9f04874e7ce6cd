import dataclasses
import itertools
from fnmatch import fnmatchcase
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgram.align import (
    CATEGORIES,
    Similarity,
    align_dt_sg,
    align_sentence,
    classify_types,
    load_rules,
    parse_rules,
    rewrite,
)
from vgram.core import (
    NodeType,
    SceneGraph,
    SGAttribute,
    SGObject,
    SGRelationship,
)
from vgram.core import Token
from vgram.data import Sentence, SynthConfig, synth_generate


def sent(words, pos, heads, labels, sid="s0", image="img0", lemmas=None):
    lemmas = lemmas or [w.lower() for w in words]
    tokens = tuple(Token(i + 1, w, 0, lem) for i, (w, lem) in enumerate(zip(words, lemmas)))
    return Sentence(id=sid, image_id=image, tokens=tokens, pos_tags=tuple(pos),
                    heads=tuple(heads), dep_labels=tuple(labels))


@pytest.fixture(scope="module")
def rules():
    return load_rules()


def toy_similarity():
    vocab = ["dog", "puppy", "table", "brown", "chase", "cat"]
    vecs = np.eye(6)
    vecs[1] = np.array([0.9, 0.1, 0, 0, 0, 0])  # puppy close to dog
    return Similarity(vocab, vecs)


@pytest.fixture()
def sim():
    return toy_similarity()


class TestRuleFile:
    def test_default_category_counts(self, rules):
        counts = {}
        for r in rules:
            counts[r.category] = counts.get(r.category, 0) + 1
        assert counts == {"OBJ-ATTR": 7, "REL-OBJ": 12, "OBJ-OBJ": 1,
                          "OBJ-REL": 10, "FUNCTION": 22}

    def test_unique_ids_and_order(self, rules):
        ids = [r.id for r in rules]
        assert len(ids) == len(set(ids))

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ValueError, match="5 fields"):
            parse_rules("OBJ-ATTR | amod | *")
        with pytest.raises(ValueError, match="category"):
            parse_rules("WHAT | amod | * | * | type=OBJECT")
        with pytest.raises(ValueError, match="parent"):
            parse_rules("FUNCTION | det | * | * | parent=nowhere")


class TestClassifyTypes:
    def test_brown_dog(self, rules):
        # "a brown dog": det + amod under the noun head
        s = sent(["a", "brown", "dog"], ["DT", "JJ", "NN"], [3, 3, 0],
                 ["det", "amod", "root"])
        types, directives, warnings = classify_types(s, rules)
        assert types[1] is NodeType.ATTRIBUTE
        assert types[2] is NodeType.OBJECT
        assert directives == ["head", "head", "self"]
        assert not warnings

    def test_acomp_is_attribute(self, rules):
        s = sent(["the", "dog", "is", "brown"], ["DT", "NN", "VBZ", "JJ"],
                 [2, 3, 0, 3], ["det", "nsubj", "root", "acomp"])
        types, directives, _ = classify_types(s, rules)
        assert types[3] is NodeType.ATTRIBUTE
        assert directives[3] == "subject"

    def test_sitting_is_relationship(self, rules):
        # "drinks sitting on a table"
        s = sent(["drinks", "sitting", "on", "a", "table"],
                 ["NNS", "VBG", "IN", "DT", "NN"],
                 [0, 1, 2, 5, 3],
                 ["root", "partmod", "prep", "det", "pobj"])
        types, _, _ = classify_types(s, rules)
        assert types[1] is NodeType.RELATIONSHIP
        assert types[2] is NodeType.RELATIONSHIP
        assert types[0] is NodeType.OBJECT
        assert types[4] is NodeType.OBJECT

    def test_every_token_gets_a_type(self, rules):
        s = sent(["x", "mystery", "dog"], ["XX", "YY", "NN"], [3, 3, 0],
                 ["zzz", "qqq", "root"])
        types, directives, warnings = classify_types(s, rules)
        assert len(types) == 3
        assert all(t is not None for t in types)
        assert warnings  # unknown labels reported


class TestParents:
    def test_determiner_points_to_noun(self, rules):
        s = sent(["a", "brown", "dog"], ["DT", "JJ", "NN"], [3, 3, 0],
                 ["det", "amod", "root"])
        rw = rewrite(s, rules)
        assert rw.parent_of == (3, 3, 3)

    def test_acomp_resolves_through_subject(self, rules):
        s = sent(["the", "dog", "is", "brown"], ["DT", "NN", "VBZ", "JJ"],
                 [2, 3, 0, 3], ["det", "nsubj", "root", "acomp"])
        rw = rewrite(s, rules)
        assert rw.parent_of[3] == 2  # brown -> dog, not the copula

    def test_parent_chase_terminates_in_one_hop(self, rules):
        s = sent(["drinks", "sitting", "on", "a", "table"],
                 ["NNS", "VBG", "IN", "DT", "NN"],
                 [0, 1, 2, 5, 3],
                 ["root", "partmod", "prep", "det", "pobj"])
        rw = rewrite(s, rules)
        for d in range(1, 6):
            p = rw.parent_of[d - 1]
            assert rw.parent_of[p - 1] == p  # idempotent after one chase

    def test_totality(self, rules):
        s = sent(["x", "of", "dog"], ["XX", "IN", "NN"], [3, 3, 0],
                 ["zzz", "prep", "root"])
        rw = rewrite(s, rules)
        assert len(rw.types) == 3
        assert all(1 <= p <= 3 for p in rw.parent_of)


def two_dog_scene():
    objects = (
        SGObject("o1", bbox=(0, 0, 10, 10), label="dog"),
        SGObject("o2", bbox=(20, 0, 30, 10), label="dog"),
        SGObject("o3", bbox=(40, 0, 50, 10), label="cat"),
    )
    attributes = (
        SGAttribute("a1", owner="o1", label="brown"),
        SGAttribute("a2", owner="o2", label="white"),
        SGAttribute("a3", owner="o3", label="plain"),
    )
    rels = (SGRelationship("r23", src="o2", dst="o3", label="chase"),)
    return SceneGraph("img0", objects, attributes, rels)


class TestAlignment:
    def test_exact_object_match(self, rules, sim):
        sg = SceneGraph("img0", (SGObject("o1", bbox=(0, 0, 1, 1), label="dog"),),
                        (SGAttribute("a1", owner="o1", label="plain"),))
        s = sent(["dog"], ["NN"], [0], ["root"])
        _, res = align_sentence(s, sg, sim, rules)
        assert res.alignment.zero[1] == "o1"

    def test_attribute_resolves_in_owner_subtree(self, rules, sim):
        sg = two_dog_scene()
        s = sent(["the", "brown", "dog"], ["DT", "JJ", "NN"], [3, 3, 0],
                 ["det", "amod", "root"])
        rw = rewrite(s, rules)
        res = align_dt_sg(s, rw, sg, sim)
        dog_node = res.alignment.zero[3]
        brown_node = res.alignment.zero[2]
        attr = sg.node(brown_node)
        assert attr.owner == dog_node
        # determiner shares the object's grounding
        assert res.alignment.zero[1] == dog_node

    def test_two_dogs_disambiguated_by_relationship(self, rules, sim):
        sg = two_dog_scene()
        s = sent(["dog", "chases", "cat"], ["NN", "VBZ", "NN"],
                 [2, 0, 2], ["nsubj", "root", "dobj"],
                 lemmas=["dog", "chase", "cat"])
        rw = rewrite(s, rules)
        res = align_dt_sg(s, rw, sg, sim)
        assert res.alignment.zero[1] == "o2"  # the dog that chases
        assert res.alignment.zero[3] == "o3"

    def test_two_dogs_tie_breaks_by_node_id(self, rules, sim):
        sg = two_dog_scene()
        s = sent(["dog"], ["NN"], [0], ["root"])
        _, res = align_sentence(s, sg, sim, rules)
        assert res.alignment.zero[1] == "o1"

    def test_relationship_token_matches_incident_edge(self, rules, sim):
        sg = two_dog_scene()
        s = sent(["dog", "chases", "cat"], ["NN", "VBZ", "NN"],
                 [2, 0, 2], ["nsubj", "root", "dobj"],
                 lemmas=["dog", "chase", "cat"])
        rw = rewrite(s, rules)
        res = align_dt_sg(s, rw, sg, sim)
        assert res.alignment.zero[2] == "r23"

    def test_first_order_arcs_map_to_relationships(self, rules, sim):
        sg = two_dog_scene()
        s = sent(["dog", "chases", "cat"], ["NN", "VBZ", "NN"],
                 [2, 0, 2], ["nsubj", "root", "dobj"])
        rw = rewrite(s, rules)
        res = align_dt_sg(s, rw, sg, sim)
        for arc, fa in res.alignment.first.items():
            rel = sg.node(fa.relationship)
            ends = {res.alignment.zero[arc[0]], res.alignment.zero[arc[1]]}
            assert ends <= {rel.src, rel.dst, rel.id}

    def test_embedding_similarity_fallback(self, rules, sim):
        sg = SceneGraph("img0", (SGObject("o1", bbox=(0, 0, 1, 1), label="dog"),),
                        (SGAttribute("a1", owner="o1", label="plain"),))
        s = sent(["puppy"], ["NN"], [0], ["root"])
        _, res = align_sentence(s, sg, sim, rules)
        assert res.alignment.zero[1] == "o1"  # cosine 0.9+ beats threshold

    def test_below_threshold_unaligned(self, rules, sim):
        sg = SceneGraph("img0", (SGObject("o1", bbox=(0, 0, 1, 1), label="cat"),),
                        (SGAttribute("a1", owner="o1", label="plain"),))
        s = sent(["table"], ["NN"], [0], ["root"])
        _, res = align_sentence(s, sg, sim, rules)
        assert 1 not in res.alignment.zero
        assert res.unaligned == [1]

    def test_unlabeled_graph_rejected(self, rules, sim):
        sg = SceneGraph("img0", (SGObject("o1", bbox=(0, 0, 1, 1)),),
                        (SGAttribute("a1", owner="o1"),))
        s = sent(["dog"], ["NN"], [0], ["root"])
        rw = rewrite(s, rules)
        with pytest.raises(ValueError, match="no labels"):
            align_dt_sg(s, rw, sg, sim)

    def test_metadata_labels_reconstruction(self, rules, sim):
        sg = two_dog_scene()
        s = sent(["dog"], ["NN"], [0], ["root"])
        _, res = align_sentence(s, sg, sim, rules)
        assert res.alignment.meta["ruleset"] == "reconstructed-defaults"


class TestGlobLists:
    def test_spaces_around_globs_are_removed(self):
        (rule,) = parse_rules("OBJ-ATTR | amod | * | VBG, VBN | type=ATTRIBUTE")
        assert rule.dep_pos_glob == "VBG,VBN"
        assert rule.matches("amod", "NN", "VBN")

    def test_empty_glob_rejected(self):
        with pytest.raises(ValueError, match="rules:2: empty glob"):
            parse_rules("# header\nREL-OBJ | dobj | VB* | NN*, | type=OBJECT")


def test_default_rules_read_once_per_process():
    assert load_rules() is load_rules()
    s = sent(["dog"], ["NN"], [0], ["root"])
    assert rewrite(s) == rewrite(s, load_rules())


# -- memo equivalence --------------------------------------------------

LABELS = ["amod", "det", "nsubj", "prep", "root", "conj", "zzz", "qqq"]
TAGS = ["NN", "NNS", "NN3", "PRP$", "VBZ", "VBN", "JJ", "IN", "DT", "RB", "XX", "ROOT"]
GLOBS = st.sampled_from(["*", "NN*", "VB?", "J*", "IN,TO", "ROOT", "DT", "X*,NN"])


def first_match_scan(rules, label, head_pos, dep_pos):
    rule = next((r for r in rules if r.matches(label, head_pos, dep_pos)), None)
    known = any(fnmatchcase(label, p) for r in rules for p in r.label_glob.split(","))
    return rule, known


@st.composite
def rule_texts(draw):
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        label = draw(st.sampled_from(LABELS[:6] + ["*", "n*", "amod,det"]))
        lines.append(f"{draw(st.sampled_from(CATEGORIES))} | {label} | "
                     f"{draw(GLOBS)} | {draw(GLOBS)} | type=OBJECT")
    return "\n".join(lines)


# every key over these names: unknown labels, the ROOT head sentinel
KEYS = list(itertools.product(LABELS, TAGS, TAGS[:-1]))


@settings(max_examples=40, deadline=None)
@given(rule_texts(), st.permutations(KEYS))
def test_rule_set_answers_like_a_first_match_scan(text, keys):
    rules = parse_rules(text)
    for _ in range(2):  # cold, then from the memo
        for key in keys:
            assert rules.match(*key) == first_match_scan(rules, *key)


def test_default_rules_answer_like_a_first_match_scan():
    rules = load_rules()
    for key in KEYS + KEYS:
        assert rules.match(*key) == first_match_scan(rules, *key)


def test_warm_similarity_scores_equal_fresh_ones():
    warm = toy_similarity()
    words = ["dog", "Dog", "DOG", "puppy", "Puppy", "cat", "zebra", "", None]
    pairs = [(a, b) for a in words for b in words]
    for a, b in pairs:
        warm(a, b)
    for a, b in pairs:
        score, fresh = warm(a, b), toy_similarity()(a, b)
        assert type(score) is float
        assert np.float64(score).tobytes() == np.float64(fresh).tobytes()
    assert warm("Dog", "dog") == warm("puppy", "Puppy") == 1.0
    assert warm(None, "dog") == warm("", "dog") == warm("zebra", "dog") == 0.0


def test_shared_caches_align_like_fresh_ones():
    synth = synth_generate(SynthConfig(seed=0))
    text = resources.files("vgram.resources").joinpath("default.rules").read_text()
    sentences = []
    for i, s in enumerate(synth.test):
        if i % 3 == 0:  # unknown labels exercise the warning path
            labels = tuple("zzz" if h else lab for h, lab in zip(s.heads, s.dep_labels))
            s = dataclasses.replace(s, dep_labels=labels)
        sentences.append(s)
    shared_rules = parse_rules(text)
    shared_sim = Similarity(synth.vocab, synth.embeddings)
    warned = 0
    for s in sentences:
        sg = synth.scene_graphs[s.image_id]
        rw1, res1 = align_sentence(s, sg, shared_sim, shared_rules)
        rw2, res2 = align_sentence(s, sg, Similarity(synth.vocab, synth.embeddings),
                                   parse_rules(text))
        assert rw1 == rw2
        assert res1.alignment == res2.alignment
        assert res1.unaligned == res2.unaligned
        assert res1.warnings == res2.warnings
        warned += len(res1.warnings)
    assert warned > 0
