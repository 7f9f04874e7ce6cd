#!/usr/bin/env python3
"""The tape in one sitting: record, differentiate, optimize.

The tensor core is a small reverse-mode tape over numpy in double
precision. This script differentiates a few classics, checks one
against the analytic answer, shows that backward consumes its tape, and
runs the adaptive-moment optimizer on a quadratic bowl.
"""

import numpy as np

import vgram.tensor as T
from vgram.tensor import ParameterStore, Tensor, adam_step

# logsumexp's gradient is the softmax
x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
T.logsumexp(x, axis=0).backward()
softmax = np.exp(x.numpy()) / np.exp(x.numpy()).sum()
print("grad of logsumexp:", np.round(x.grad, 6))
print("softmax          :", np.round(softmax, 6))

# a biaffine score, u^T W1 v + (u+v)^T w2 + b, as the one-channel case of
# the all-pairs biaffine features the model uses for arcs and relations
u = Tensor(np.array([[[1.0, 0.0]]]))                      # (batch, n, d)
v = Tensor(np.array([[[0.0, 1.0]]]))                      # (batch, m, d)
w1 = Tensor(np.array([[[0.0, 1.0]], [[0.0, 0.0]]]))       # (d, channels, d)
w2 = Tensor(np.array([[2.0], [3.0]]))                     # (d, channels)
b = Tensor(np.array([0.5]))                               # (channels,)
print("\nbiaffine([1,0],[0,1]) with unit corner + [2,3] linear + 0.5 bias:",
      T.biaffine_features(u, v, w1, w2, b).numpy()[0, 0, 0, 0])

# finite differences vs the tape on a two-layer rectifier network
rng = np.random.default_rng(1)
w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
b = Tensor(np.zeros(3), requires_grad=True)
inp = Tensor(rng.normal(size=(4, 3)))


def loss_of(wa, ba):
    h = T.relu(T.add(T.matmul(inp, Tensor(wa)), Tensor(ba)))
    return T.tsum(T.logsumexp(h, axis=-1)).item()


loss = T.tsum(T.logsumexp(T.relu(T.add(T.matmul(inp, w), b)), axis=-1))
loss.backward()
eps = 1e-6
fd = np.zeros((3, 3))
for i in range(3):
    for j in range(3):
        wp, wm = w.numpy().copy(), w.numpy().copy()
        wp[i, j] += eps
        wm[i, j] -= eps
        fd[i, j] = (loss_of(wp, b.numpy()) - loss_of(wm, b.numpy())) / (2 * eps)
print("\nmax |tape - finite difference| on W:", np.abs(w.grad - fd).max())

# backward consumes the tape as it goes: the loss keeps its value, but
# its graph is gone, so a second backward through it raises
try:
    loss.backward()
except RuntimeError as err:
    print("second backward through the same graph:", err)
else:
    raise SystemExit("a second backward ran through a consumed graph")

# thirty optimizer steps down a quadratic
store = ParameterStore()
theta = store.get("theta", (2,), lambda s: np.array([3.0, -4.0]))
print("\nminimizing |theta|^2 from", theta.numpy())
for step in range(30):
    store.zero_grad()
    T.tsum(T.mul(theta, theta)).backward()
    adam_step(store, lr=0.2)
print("after 30 adaptive-moment steps:", np.round(theta.numpy(), 4))
