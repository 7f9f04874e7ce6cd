#!/usr/bin/env python3
"""Tour the synthetic world: grammar, trees, scenes, gold alignments.

The generator samples a peaked valence grammar over tags, draws tagged
sentences with their gold trees, and builds a pseudo scene per sentence
where every token owns an object region and every tree arc owns a
relationship node. Gold alignments hold by construction.
"""

import numpy as np

from vgram.data import SynthConfig, synth_generate

synth = synth_generate(SynthConfig(sentences=6, dev_sentences=1, test_sentences=1,
                                   max_len=7, min_len=4, sigma=0.0, seed=13))

g = synth.grammar
print("tagset:", synth.tagset)
print("root distribution:", np.round(g.root, 3))
print("most likely right-dependent per head tag:",
      {synth.tagset[t]: synth.tagset[int(np.argmax(g.attach[t, 1]))]
       for t in range(len(synth.tagset))})

s = synth.train[0]
print(f"\nsentence {s.id}: {' '.join(t.surface for t in s.tokens)}")
print("tags :", " ".join(s.pos_tags))
print("heads:", list(s.heads))

sg = synth.scene_graphs[s.image_id]
print(f"\nscene {sg.image_id}: {len(sg.objects)} objects, "
      f"{len(sg.attributes)} attributes, {len(sg.relationships)} relationships")
for r in sg.relationships:
    print(f"   {r.id}: {r.src} -[{r.label}]-> {r.dst}")

align = synth.alignments[s.id]
print("\ngold zero-order alignment:", dict(sorted(align.zero.items())))
print("gold first-order entries:")
for arc, fa in sorted(align.first.items()):
    print(f"   arc {arc} -> {fa.relationship} endpoints {fa.endpoints}")

# at sigma 0 the region features equal the word concept embeddings, so
# nearest neighbor recovers the gold zero alignment exactly
emb = {w: synth.embeddings[i] for i, w in enumerate(synth.vocab)}
feats = synth.features[s.image_id].feats
hits = 0
for tok in s.tokens:
    hits += int(np.argmax(feats @ emb[tok.surface])) == tok.index - 1
print(f"\nnearest-neighbor recovery at sigma=0: {hits}/{len(s)} tokens")
