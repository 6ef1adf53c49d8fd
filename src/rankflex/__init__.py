"""Dynamic low-rank adaptation with budgeted rank reallocation.

The package trains SVD-form adapters — a frozen base weight plus factors
P, lam, Q — while moving rank between adapters during the run: an
importance metric (normalized spectral entropy by default) scores every
adapter, a cubic-decay budget says how many ranks may move per allocation
step, and the allocator prunes the least important adapters while expanding
the most important ones with zero-impact initialization. A small manual-
backprop training harness, deterministic trace/checkpoint formats, and a CLI
round out the engine at desk scale.

Everything is numpy + stdlib; runs are pure functions of (config, seed).
"""
