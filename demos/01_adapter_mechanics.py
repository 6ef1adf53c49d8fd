"""A tour of the SVD-form adapter: create, forward, prune, expand.

The adapter keeps a weight update factored as P diag(lam) Q next to a
frozen base matrix. Directions are the unit of change: pruning removes the
weakest (P column, lam entry, Q row) triple, expansion appends one. The
zero-impact expansion variant appends a direction with lam = 0, which the
masked forward skips entirely, so the outputs do not move by even one bit.
"""

import numpy as np

from rankflex.adapter import InitStrategy, SvdAdapter

rng = np.random.default_rng(7)

base = rng.standard_normal((6, 5))
adapter = SvdAdapter.create("demo", base, r_init=3, r_max=5, alpha=8.0, rng=rng)
x = rng.standard_normal((5, 4))

print("== fresh adapter ==")
print(f"rank {adapter.rank}, cap {adapter.r_max}, scale alpha/r_init = {adapter.scale}")
same = np.array_equal(adapter.forward(x), base @ x)
print(f"lam starts at zero, so forward == base @ x exactly: {same}")

adapter.lam[:] = [0.9, -0.4, 0.05]
# The update the forward pass applies without ever materializing it.
delta = adapter.scale * (adapter.p @ np.diag(adapter.lam) @ adapter.q)
print("\n== after giving the three directions weight ==")
print(f"lam = {adapter.lam}")
print(f"||delta||_F = {np.linalg.norm(delta):.6f}")
print(f"orthogonality penalty R = {adapter.ortho_regularizer():.6f}")

print("\n== pruning the weakest direction ==")
event = adapter.prune_rank(step=1)
print(f"event: {event.action} index {event.index} (|lam| was {event.detail:.3f}), "
      f"rank {event.rank_before} -> {event.rank_after}")
print(f"surviving lam = {adapter.lam}")

print("\n== zero-impact expansion ==")
before = adapter.forward(x)
event = adapter.expand_rank(InitStrategy("zero_impact"), rng, step=2)
after = adapter.forward(x)
print(f"event: {event.action} at index {event.index}, rank {event.rank_before} -> {event.rank_after}")
print(f"outputs bitwise identical across the expansion: {before.tobytes() == after.tobytes()}")

print("\n== growing a fresh orthogonal direction instead ==")
event = adapter.expand_rank(InitStrategy("orthogonal_init"), rng, step=3)
p_new = adapter.p[:, -1]
leaks = np.abs(adapter.p[:, :-1].T @ p_new)
print(f"event: {event.action} ({event.detail}), rank {event.rank_before} -> {event.rank_after}")
print(f"new P column vs existing ones, worst overlap: {leaks.max():.2e}")
