"""A tour of the SVD-form adapter: create, forward, prune, expand.

The adapter keeps a weight update factored as P diag(lam) Q; the linear
layer it adapts owns the frozen base matrix. Directions are the unit of change: pruning removes the
weakest (P column, lam entry, Q row) triple and returns its index and |lam|,
expansion appends one at index ``rank``. In a training run the allocator
records each such move as a trace event. The zero-impact expansion variant
appends a direction with lam = 0, which the masked forward skips entirely,
so the outputs do not move by even one bit.
"""

import numpy as np

from rankflex.adapter import InitStrategy, SvdAdapter
from rankflex.model import LinearLayer

rng = np.random.default_rng(7)

base = rng.standard_normal((6, 5))
adapter = SvdAdapter.create("demo", 6, 5, r_init=3, r_max=5, alpha=8.0, rng=rng)
layer = LinearLayer(base, adapter=adapter)
x = rng.standard_normal((5, 4))

print("== fresh adapter ==")
print(f"rank {adapter.rank}, cap {adapter.r_max}, scale alpha/r_init = {adapter.scale}")
same = np.array_equal(layer.forward(x), base @ x)
print(f"lam starts at zero, so forward == base @ x exactly: {same}")

adapter.lam[:] = [0.9, -0.4, 0.05]
# The update the forward pass applies without ever materializing it.
delta = adapter.scale * (adapter.p @ np.diag(adapter.lam) @ adapter.q)
print("\n== after giving the three directions weight ==")
print(f"lam = {adapter.lam}")
print(f"||delta||_F = {np.linalg.norm(delta):.6f}")
print(f"orthogonality penalty R = {adapter.ortho_regularizer():.6f}")

print("\n== pruning the weakest direction ==")
rank = adapter.rank
index, removed = adapter.prune_rank()
print(f"pruned index {index} (|lam| was {removed:.3f}), rank {rank} -> {adapter.rank}")
print(f"surviving lam = {adapter.lam}")

print("\n== zero-impact expansion ==")
before = layer.forward(x)
rank = adapter.rank
adapter.expand_rank(InitStrategy("zero_impact"), rng)
after = layer.forward(x)
print(f"expanded at index {rank}, rank {rank} -> {adapter.rank}")
print(f"outputs bitwise identical across the expansion: {before.tobytes() == after.tobytes()}")

print("\n== growing a fresh orthogonal direction instead ==")
rank = adapter.rank
adapter.expand_rank(InitStrategy("orthogonal_init"), rng)
p_new = adapter.p[:, -1]
leaks = np.abs(adapter.p[:, :-1].T @ p_new)
print(f"expanded (orthogonal_init), rank {rank} -> {adapter.rank}")
print(f"new P column vs existing ones, worst overlap: {leaks.max():.2e}")
