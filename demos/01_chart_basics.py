#!/usr/bin/env python3
"""Walk through the valence chart: scores, partition, Viterbi, posteriors.

The chart works over log-score tables for a single sentence: per-arc
attachment scores, per-head stop/continue scores split by direction and
valence, and root-selection scores. One span-length recursion computes
everything below, exactly: in the log-sum-exp semiring it gives the log
partition (and, with an outside pass, the arc posteriors); in the max
semiring with backpointers it gives the best tree. Each result is
cross-checked here against literal enumeration.
"""

import math

import numpy as np

from vgram.chart import (
    DmvScores,
    arc_posteriors,
    enumerate_projective_trees,
    log_partition,
    random_scores,
    score_tree,
    viterbi,
)

# Three tokens, all scores zero: every projective single-root tree gets
# score 0, so the partition function just counts trees.
n = 3
zero = DmvScores(attach=np.zeros((n + 1, n + 1)), stop=np.zeros((n + 1, 2, 2)),
                 cont=np.zeros((n + 1, 2, 2)), root=np.zeros(n + 1))
log_z = log_partition(zero)
trees = enumerate_projective_trees(n)
print(f"log partition at zero scores: {log_z:.6f} = log({len(trees)}) "
      f"= {math.log(len(trees)):.6f}")
print("the seven trees (head of token 1, 2, 3):")
for heads in trees:
    print("   ", heads)

# The same recursion in the max semiring picks one tree; on exact ties it
# takes the first candidate: the smallest root, then the leftmost dependent.
heads, score = viterbi(zero)
print(f"best tree at zero scores (all tied): {heads} with score {score:.4f}")

# Tilt one attachment: make token 1 twice as happy to take token 2.
tilted = DmvScores(attach=np.zeros((n + 1, n + 1)), stop=np.zeros((n + 1, 2, 2)),
                   cont=np.zeros((n + 1, 2, 2)), root=np.zeros(n + 1))
tilted.attach[1][2] = math.log(2.0)
heads, score = viterbi(tilted)
print(f"\nafter boosting attach(1->2): best tree {heads} with score {score:.4f}")

# Posteriors are the exact arc marginals; row 0 is the ROOT arc.
post = arc_posteriors(tilted)
print("arc posterior matrix (rows = heads, 0 is ROOT):")
print(np.round(post, 3))
print("columns sum to one over heads:", np.round(post[:, 1:].sum(axis=0), 6))

# The enumeration oracle agrees with the chart on random scores.
rng = np.random.default_rng(0)
s = random_scores(4, rng)
log_z = log_partition(s)
brute = np.logaddexp.reduce([score_tree(s, t) for t in enumerate_projective_trees(4)])
print(f"\nrandom scores, n=4: chart {log_z:.10f} vs enumeration {brute:.10f}")
best = max(enumerate_projective_trees(4), key=lambda t: score_tree(s, t))
print(f"Viterbi {viterbi(s)[0]} vs best enumerated tree {best}")
