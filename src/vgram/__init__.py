"""Unsupervised joint vision-language structure induction.

A dependency grammar inducer over image-caption pairs: a latent-tree
valence-grammar chart decoder, a cross-attention encoder over scene
regions, contrastive region-context matching, a rule-based pipeline that
aligns dependency trees to scene graphs, and the evaluation metrics for
both the tree and the grounding side.
"""

from vgram.core import (
    DependencyTree,
    NodeType,
    SceneGraph,
    Token,
    VLAlignment,
    tree_to_instances,
    validate_tree,
)
from vgram.chart import (
    DmvScores,
    arc_posteriors,
    enumerate_projective_trees,
    log_partition,
    score_tree,
    viterbi,
)

__version__ = "0.1.0"
