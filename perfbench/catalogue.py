"""The benchmark's inputs: the families, the workloads that check them, and
the config files the program receives.

Every family is valid, generic and unbalanced, so any `fail` row in a
report about one of them is a false verdict.
"""

from __future__ import annotations

import json
import os

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

_K2_ROWS = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3))
_K3_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4), (1, 3, 9))


def _family(k, n):
    rows = ((1,),) * n if k == 1 else {2: _K2_ROWS, 3: _K3_ROWS}[k][:n]
    return {
        "k": k,
        "n": n,
        "b": [list(row) for row in rows],
        "weights": [str(p) for p in PRIMES[:n]],
    }


FAMILIES = {
    name: _family(k, n)
    for name, k, n in (
        ("k1n5", 1, 5),
        ("k1n10", 1, 10),
        ("k2n3", 2, 3),
        ("k2n4", 2, 4),
        ("k2n5", 2, 5),
        ("k3n4", 3, 4),
        ("k3n5", 3, 5),
        ("k3n6", 3, 6),
    )
}

# name -> (families, --suites). Why each workload exists is in
# BENCHMARK.json. No op of these workloads may fail at any seed, so that
# `failed` reads 0 and any failed op is a regression.
# `exact` leaves out basis, canonical and critical on purpose: they skip
# for k = 3 today, and a change that extends them to k >= 3 would otherwise
# read as an `exact` slow-down.
# `transport` checks small families: one `periods` op varies by 20-35 %
# with the path its seed draws, so a run must average many paths. On k1n10
# and k3n5 one op takes 5-25 s, too long to average enough of them in a
# run, and their `opposite-slope-pairing-constant` row fails at many seeds.
# k2n3 stands for k = 2 because a k2n4 op takes three times as long and
# varies most with the path.
# `critical` leaves out the `critical` suite: its
# `contraction-relations-sample-<i>` rows compare with an absolute
# tolerance of 1e-9 and fail on 5 of the 705 fibers of k2n5 and 1 of 705
# of k2n4 that fiber seeds 0-704 give. `basis` and `canonical` solve the
# same fibers.
WORKLOADS = {
    "transport": (("k1n5", "k2n3", "k3n4"), "periods"),
    "exact": (("k3n5", "k3n6"), "circuits,flatness,symmetry,conformal,potential"),
    "critical": (("k1n10", "k2n4", "k2n5"), "basis,canonical"),
}


def round_seed(seed, index):
    """The config seed of round `index` of a run with the given seed. Round
    0 uses the run's seed itself; each later round draws new fibers and a
    new transport path."""
    return seed + 100_003 * index


def family_config(name, seed):
    """The config document of one family; the seed picks the sampled fibers
    and the transport path. `samples` stays at the program's default."""
    return dict(FAMILIES[name], seed=seed)


def write_configs(workload, seed, directory):
    """Write one config file per family of the workload; return name -> path."""
    paths = {}
    for name in WORKLOADS[workload][0]:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(family_config(name, seed), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths


def validate(workload):
    """Load every family of the workload with the program's own parser and
    confirm it is generic; raise ValueError otherwise. Needs `arrfrob` on
    the import path."""
    from arrfrob.core import load_family

    for name in WORKLOADS[workload][0]:
        family = load_family(FAMILIES[name])
        if not family.generic:
            raise ValueError(f"family {name} is not generic")
