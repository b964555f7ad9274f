"""Tour of the tensor engine: forward graphs, backward sweeps, and a tiny
logistic-regression fit, all on the same tape machinery the trainer uses."""

import numpy as np

from gaa import autodiff as ad
from gaa.train import AdamState, adam_step

print("== building a graph and differentiating it ==")
w = ad.parameter([[1.0, -2.0], [0.5, 0.25]])
x = ad.constant([[2.0], [1.0]])
with ad.Tape() as tape:
    y = ad.relu(ad.matmul(w, x))        # ReLU(W x)
    loss = ad.sq_l2(y)                  # ||ReLU(W x)||^2
    grads = ad.backward(loss, tape)     # {leaf: gradient}, here just W's
print("loss      =", loss.item())
print("dloss/dW  =\n", grads[w])

print("\n== gradient reversal: identity forward, -lambda backward ==")
z = ad.parameter([[1.0, 2.0]])
with ad.Tape() as tape:
    flipped = ad.grad_reverse(z, 0.5)
    grads = ad.backward(ad.sq_l2(flipped), tape)  # d/dz ||z||^2 = 2z, times -0.5
print("forward unchanged:", flipped.data, " backward scaled:", grads[z])

print("\n== fitting 1-D logistic regression with Adam ==")
rng = np.random.default_rng(0)
inputs = rng.normal(size=(80, 1))
targets = (inputs[:, 0] > 0.2).astype(float).reshape(-1, 1)

weight = ad.parameter([[0.0]])
bias = ad.parameter([[0.0]])
state = AdamState([weight, bias])
x_t = ad.constant(inputs)
ones = ad.constant(np.ones_like(targets))
y_t = ad.constant(targets)
for step in range(200):
    with ad.Tape() as tape:
        p = ad.sigmoid(ad.add(ad.matmul(x_t, weight), bias))
        # sum of y log p + (1 - y) log(1 - p), each log clamped at 1e-12
        log_lik = ad.add(ad.xlogy_sum(y_t, p, 1e-12),
                         ad.xlogy_sum(ad.sub(ones, y_t), ad.sub(ones, p), 1e-12))
        loss = ad.scale(log_lik, -1.0 / len(inputs))
        grads = ad.backward(loss, tape)
    adam_step([weight, bias], grads, state, lr=0.05)
    if step % 50 == 0:
        print(f"step {step:3d}: loss={loss.item():.4f}")
acc = ((p.data > 0.5) == targets).mean()
print(f"final training accuracy: {acc:.2f} (weight={weight.data[0,0]:.2f})")
