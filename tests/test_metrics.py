import numpy as np
import pytest

from vgram.core import (
    NodeType,
    SceneGraph,
    SGAttribute,
    SGObject,
    SGRelationship,
    VLAlignment,
)
from vgram.metrics import (
    arc_length_breakdown,
    dda_uda,
    expected_random_dda,
    first_second_aa,
    format_report,
    iou,
    left_branching_heads,
    resolve_node,
    right_branching_heads,
    zero_aa,
)


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == pytest.approx(1.0)

    def test_half_overlap(self):
        assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 0, 30, 10)) == 0.0


class TestDdaUda:
    def test_perfect(self):
        assert dda_uda([[0, 1, 2]], [[0, 1, 2]]) == (1.0, 1.0)

    def test_two_token_example(self):
        dda, uda = dda_uda([[2, 0]], [[0, 1]])
        assert dda == 0.0
        assert uda == 0.5

    def test_uda_at_least_dda(self):
        rng = np.random.default_rng(0)
        from vgram.chart import enumerate_projective_trees
        trees = enumerate_projective_trees(4)
        for _ in range(50):
            p = [list(trees[rng.integers(len(trees))])]
            g = [list(trees[rng.integers(len(trees))])]
            dda, uda = dda_uda(p, g)
            assert uda >= dda

    def test_root_toggle(self):
        # pred roots token2; gold arc 2->1 exists, gold roots token1
        dda, uda = dda_uda([[2, 0]], [[0, 1]], root_as_undirected_pair=False)
        assert uda == 0.5  # pair {1,2} still matches, root pair ignored
        dda2, uda2 = dda_uda([[0, 1]], [[2, 0]], root_as_undirected_pair=False)
        assert uda2 == 0.5

    def test_exclusions(self):
        dda, uda = dda_uda([[0, 1, 1]], [[0, 1, 2]], exclude=[{3}])
        assert dda == 1.0 and uda == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dda_uda([[0, 1]], [[0]])

    def test_permutation_invariant(self):
        p = [[0, 1], [2, 0], [0, 1, 1]]
        g = [[0, 1], [0, 1], [0, 2, 1]]
        a = dda_uda(p, g)
        order = [2, 0, 1]
        b = dda_uda([p[i] for i in order], [g[i] for i in order])
        assert a == b


def toy_scene():
    objects = (
        SGObject("o1", bbox=(0, 0, 100, 90), label="dog"),
        SGObject("o2", bbox=(200, 0, 300, 90), label="table"),
    )
    attributes = (
        SGAttribute("a1", owner="o1", label="brown"),
        SGAttribute("a2", owner="o2", label="plain"),
    )
    rels = (SGRelationship("r12", src="o1", dst="o2", label="on"),)
    return SceneGraph("img0", objects, attributes, rels)


def align(zero, sid="s0"):
    return VLAlignment(sentence_id=sid, zero=zero)


class TestZeroAA:
    def setup_method(self):
        self.sg = toy_scene()
        self.gold = {"s0": align({1: "o1", 2: "a1", 3: "r12"})}
        self.images = {"s0": "img0"}
        self.graphs = {"img0": self.sg}

    def run(self, pred_zero):
        return zero_aa({"s0": align(pred_zero)}, self.gold, self.graphs, self.images)

    def test_exact_match(self):
        res = self.run({1: "o1", 2: "a1", 3: "r12"})
        assert res.accuracy == 1.0
        assert res.evaluated == 3

    def test_type_distinguishes_object_and_attribute(self):
        # right box, wrong type: boxes coincide but OBJECT != ATTRIBUTE
        res = self.run({1: "o1", 2: "o1", 3: "r12"})
        assert res.accuracy == pytest.approx(2 / 3)

    def test_relationship_needs_both_endpoints(self):
        sg2 = SceneGraph("img0", self.sg.objects + (
            SGObject("o3", bbox=(0, 0, 100, 40), label="part"),),
            self.sg.attributes + (SGAttribute("a3", owner="o3"),),
            self.sg.relationships + (
                SGRelationship("r32", src="o3", dst="o2", label="on"),))
        graphs = {"img0": sg2}
        # o3's box has IoU 40/90 < 0.5 with o1's box, so r32 fails on one endpoint
        res = zero_aa({"s0": align({1: "o1", 2: "a1", 3: "r32"})},
                      self.gold, graphs, self.images)
        assert res.accuracy == pytest.approx(2 / 3)

    def test_proposal_ids_resolve_through_regions(self):
        regions = {"img0": [(0, 0, 100, 90), (200, 0, 300, 90)]}
        res = zero_aa({"s0": align({1: "obj:0", 2: "attr:0", 3: "rel:0:1"})},
                      self.gold, self.graphs, self.images, regions=regions)
        assert res.accuracy == 1.0

    def test_proposal_ids_outside_the_grammar_score_wrong(self):
        # over one region there is no relationship node: rel:0:0 names
        # nothing, though the pair (region 0, region 0) would cover r12
        sg = SceneGraph("img0", (SGObject("o1", bbox=(0, 0, 100, 90)),
                                 SGObject("o2", bbox=(0, 0, 100, 80))),
                        (SGAttribute("a1", owner="o1"), SGAttribute("a2", owner="o2")),
                        (SGRelationship("r12", src="o1", dst="o2"),))
        res = zero_aa({"s0": align({1: "rel:0:0", 2: "obj:0"})},
                      {"s0": align({1: "r12", 2: "o1"})}, {"img0": sg}, self.images,
                      regions={"img0": [(0, 0, 100, 90)]})
        assert res.evaluated == 2
        assert res.by_type["RELATIONSHIP"] == (0, 1) and res.by_type["OBJECT"] == (1, 1)

    def test_token_missing_from_gold_excluded(self):
        gold = {"s0": align({1: "o1"})}
        res = zero_aa({"s0": align({1: "o1", 2: "o2"})}, gold,
                      self.graphs, self.images)
        assert res.evaluated == 1
        assert res.accuracy == 1.0

    def test_gold_node_unresolvable_reported(self):
        gold = {"s0": align({1: "nope"})}
        res = zero_aa({"s0": align({1: "o1"})}, gold, self.graphs, self.images)
        assert res.excluded == [("s0", 1)]


class TestFirstSecondAA:
    def test_first_correct_via_relationship(self):
        sg = toy_scene()
        pred = {"s0": align({1: "o1", 2: "r12", 3: "o2"})}
        trees = {"s0": [0, 1, 2]}
        first, second = first_second_aa(pred, trees, {"img0": sg}, {"s0": "img0"})
        assert first == 1.0
        assert second == 1.0  # chain o1 - r12 - o2, middle adjacent to both

    def test_fork_orientation_counts(self):
        sg = toy_scene()
        # tree: token2 heads both 1 and 3 (fork); grounding o1 <- r12 -> o2
        pred = {"s0": align({1: "o1", 2: "r12", 3: "o2"})}
        trees = {"s0": [2, 0, 2]}
        first, second = first_second_aa(pred, trees, {"img0": sg}, {"s0": "img0"})
        assert first == 1.0
        assert second == 1.0

    def test_unconnected_objects_incorrect(self):
        objects = (SGObject("o1", bbox=(0, 0, 10, 10)),
                   SGObject("o2", bbox=(20, 0, 30, 10)))
        attrs = (SGAttribute("a1", owner="o1"), SGAttribute("a2", owner="o2"))
        sg = SceneGraph("img0", objects, attrs, ())
        pred = {"s0": align({1: "o1", 2: "o2"})}
        first, _ = first_second_aa(pred, {"s0": [0, 1]}, {"img0": sg}, {"s0": "img0"})
        assert first == 0.0


    @pytest.mark.parametrize("regions", [None, [(0, 0, 100, 90), (400, 0, 500, 90)]],
                             ids=["no-regions", "distractor"])
    def test_img_matches_through_the_graphs_image_node(self, regions):
        # img over the objects (0, 120) overlaps o1 at 100/120; the regions'
        # union with the distractor would overlap it at 0.2 only
        sg = SceneGraph("img0", (SGObject("o1", bbox=(0, 0, 100, 90)),
                                 SGObject("o2", bbox=(80, 0, 120, 90))),
                        (), (SGRelationship("r12", src="o1", dst="o2"),))
        pred = {"s0": align({1: "img", 2: "o2"})}
        first, _ = first_second_aa(pred, {"s0": [0, 1]}, {"img0": sg}, {"s0": "img0"},
                                   regions=None if regions is None else {"img0": regions})
        assert first == 1.0


class TestArcLengths:
    def test_all_length_one(self):
        buckets = arc_length_breakdown([[0, 1, 2]], [[0, 1, 2]])
        assert buckets == {1: (2, 2)}

    def test_partition_property(self):
        gold = [[0, 1, 2, 1], [2, 0, 2]]
        pred = [[0, 3, 1, 1], [3, 0, 2]]
        buckets = arc_length_breakdown(pred, gold)
        total = sum(v[1] for v in buckets.values())
        assert total == sum(1 for g in gold for h in g if h != 0)

    def test_merged_buckets_agree_with_dda(self):
        gold = [[0, 1, 2, 2], [2, 0, 2]]
        pred = [[0, 1, 1, 2], [2, 0, 1]]
        buckets = arc_length_breakdown(pred, gold)
        non_root_correct = sum(v[0] for v in buckets.values())
        non_root_total = sum(v[1] for v in buckets.values())
        root_correct = sum(1 for p, g in zip(pred, gold)
                           for pp, gg in zip(p, g) if gg == 0 and pp == 0)
        root_total = sum(1 for g in gold for gg in g if gg == 0)
        dda, _ = dda_uda(pred, gold)
        assert (non_root_correct + root_correct) / (non_root_total + root_total) \
            == pytest.approx(dda)


class TestHelpers:
    def test_branching_baselines(self):
        assert right_branching_heads(4) == [0, 1, 2, 3]
        assert left_branching_heads(4) == [2, 3, 4, 0]

    def test_expected_random(self):
        assert expected_random_dda([[0, 1], [0, 1, 1]]) == pytest.approx(
            (2 * 0.5 + 3 * (1 / 3)) / 5)

    def test_report_format(self):
        text = format_report({"dda": 0.5, "uda": 0.75})
        assert text == "dda\t0.5\nuda\t0.75\n"

    @pytest.mark.parametrize("regions", [None, [(0, 0, 100, 90), (200, 0, 300, 90),
                                                (400, 0, 500, 90)]],
                             ids=["no-regions", "distractor"])
    def test_resolve_node_img_is_the_graphs_image_node(self, regions):
        # the image node a gold node set builds, over the graph's objects,
        # not over every region
        ref = resolve_node("img", toy_scene(), regions)
        assert ref.type is NodeType.OBJECT
        assert ref.box == (0, 0, 300, 90)

    def test_resolve_node_img(self):
        ref = resolve_node("img", None, [(0, 0, 10, 10), (20, 0, 30, 10)])
        assert ref.type is NodeType.OBJECT
        assert ref.box == (0, 0, 30, 10)
