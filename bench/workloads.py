"""Workload definitions shared by the benchmark driver and its worker.

A workload is a fixed list of ``verify`` suites run through
``cocyclelab.suites.run_suite``.  A pass is sized only through the suites'
count keys; ``order`` and every tolerance keep their library defaults.
The workload seed is passed to every suite as its ``seed`` config key.
"""
from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 0x5EED  # cocyclelab.suites.DEFAULT_CONFIG["seed"]


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple
    sizes: dict = field(default_factory=dict)
    # run_suite calls per suite in one pass; lifts a short pass above the
    # timer noise without changing what a single call computes
    repeat: int = 1
    why: str = ""

    def config(self, seed, sizes=None):
        cfg = dict(self.sizes if sizes is None else sizes)
        cfg["seed"] = int(seed)
        return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "chart-prism", ("prism", "gf-derivation"),
            sizes={"prism_simplices": 1},
            why="chart joins in SU(2); prism terms go through the "
                "barycentric evaluator, 13 simplex evaluations per node; no "
                "LP, no atlas, no lattice reduction"),
        Workload(
            "spherical-cochains", ("cocycle-defect", "cs-pairing"),
            sizes={"defect_tuples": 24},
            why="fresh random 5-tuples whose faces are all distinct, so no "
                "work is shared; the only workload with hemisphere LPs"),
        Workload(
            "sphere-atlas", ("symplectic", "contact", "lemma44"),
            sizes={"adinv_triples": 6, "contact_samples": 50},
            why="whole-sphere integrals that re-evaluate the same atlas "
                "cells at the same nodes; no LP, no tuples"),
        Workload(
            "finite-exact", ("configured-homology", "transfer"),
            repeat=2,
            why="exact Fraction cochains, tuple complexes and Smith normal "
                "form with no quadrature: the bypass for every numerical "
                "optimisation"),
    )
}

# smallest sizes that still call every layer a workload exercises; used by
# the benchmark's own tests
TINY_SIZES = {
    "chart-prism": {"prism_simplices": 1},
    "spherical-cochains": {"defect_tuples": 2},
    "sphere-atlas": {"adinv_triples": 1, "contact_samples": 4},
    "finite-exact": {},
}
