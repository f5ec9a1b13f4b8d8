"""The four feature-interaction experts on one tiny batch.

Each expert maps the concatenated field embeddings (B, F*d) to an aligned
output (B, out_dim); this script shows what each interaction core computes
before alignment.

Run:  PYTHONPATH=src python3 demos/02_expert_zoo.py
"""

import numpy as np

from moectr.experts import ExpertConfig, make_expert

rng = np.random.default_rng(17)
F, d = 3, 2
E = rng.normal(size=(4, F * d)).round(2)
print(f"batch of 4 samples, {F} fields, embedding dim {d}:\n{E}\n")


print("=== fm: per-dimension second-order sums ===")
fm = make_expert(ExpertConfig(kind="fm", out_dim=4), F, d, rng)
_, cache = fm.forward(E)
ev = E.reshape(4, F, d)
brute = sum(
    ev[:, i, :] * ev[:, j, :] for i in range(F) for j in range(i + 1, F)
)
print("core output:\n", np.round(fm.core_output(cache), 4))
print("brute-force sum_{i<j} e_i * e_j:\n", np.round(brute, 4), "\n")

print("=== crossnet: x_{l+1} = x0 * (W x_l + b) + x_l ===")
cn = make_expert(ExpertConfig(kind="crossnet", out_dim=4, cross_layers=2), F, d, rng)
_, cache = cn.forward(E)
xs = [E, *cn.layer_outputs(cache)]
print("layer output magnitudes:", [float(np.abs(x).mean().round(4)) for x in xs])
print("(layer 0 is the embedding itself; each layer adds gated interactions)\n")

print("=== cin: compressed products of field-vector rows ===")
cin = make_expert(ExpertConfig(kind="cin", out_dim=4, cin_maps=(3,)), F, d, rng)
cin.ws[0][...] = 1.0
_, cache = cin.forward(E)
x0 = E.reshape(4, F, d)
total = x0.sum(axis=1)
print("with all-ones compression weights each map is (sum_i X0_i)^2:")
print("map 0:\n", np.round(cin.feature_maps(cache)[0][:, 0, :], 4))
print("(sum of fields)^2:\n", np.round(total**2, 4), "\n")

print("=== dnn: rectified affine stack ===")
dnn = make_expert(ExpertConfig(kind="dnn", out_dim=4, hidden=(5,)), F, d, rng)
out, _ = dnn.forward(E)
print("aligned output (non-negative by construction):\n", np.round(out, 4))
print("\nall four kinds emit (B, out_dim) =", out.shape, "after their alignment heads")
