"""Seeded input generators for the three benchmark workloads.

Every record is one NDJSON instance line in the format `sharedres_cli batch`
and `serve` read (src/batch/stream.hpp). The same (workload, seed) always
yields the same lines: all randomness flows through one random.Random.
"""

import json
import random

CAPACITY = 1_000_000


def _req(rng, family, m):
    """One requirement r_j drawn from a d=1 family (the shapes of
    src/workloads/sos_generators.hpp, re-drawn here so the benchmark owns
    its inputs)."""
    cap = CAPACITY
    if family == "uniform":
        return rng.randint(cap // 100, cap // 2)
    if family == "bimodal":
        if rng.random() < 0.15:
            return int(cap * rng.uniform(0.55, 0.65))
        return max(1, int(cap * rng.uniform(0.01, 0.03)))
    if family == "pareto":
        lo, hi, alpha = 0.005, 1.0, 1.2
        u = rng.random()
        # Inverse CDF of the bounded Pareto on [lo, hi].
        x = (-(u * hi**alpha - u * lo**alpha - hi**alpha)
             / (hi**alpha * lo**alpha)) ** (-1.0 / alpha)
        return max(1, min(cap, int(cap * x)))
    if family == "nearboundary":
        return int(cap / (m - 1) * (1.0 + rng.uniform(0.0, 0.02))) + 1
    if family == "oversized":
        if rng.random() < 0.2:
            return int(cap * rng.uniform(1.0, 3.0)) + 1
        return rng.randint(cap // 100, cap // 4)
    raise ValueError(family)


def d1_record(rng, rid, family, n, m, max_size):
    jobs = [[rng.randint(1, max_size), _req(rng, family, m)]
            for _ in range(n)]
    return {"id": rid, "machines": m, "capacity": CAPACITY, "jobs": jobs}


def multires_record(rng, rid, family, n, m, d):
    reqs = []
    for _ in range(n):
        if family == "vmpack":
            flavour = rng.choice([(0.05, 0.10, 0.04), (0.10, 0.05, 0.08),
                                  (0.25, 0.25, 0.20), (0.50, 0.10, 0.30)])
            row = [flavour[k] * rng.uniform(0.8, 1.2) for k in range(d)]
        else:  # anticorrelated: heavy on one axis, light on the rest
            heavy = rng.randrange(d)
            row = [rng.uniform(0.45, 0.65) if k == heavy
                   else rng.uniform(0.02, 0.08) for k in range(d)]
        reqs.append([max(1, min(CAPACITY, int(CAPACITY * x))) for x in row])
    return {"id": rid, "machines": m, "capacities": [CAPACITY] * d,
            "requirements": reqs,
            "sizes": [rng.randint(1, 4) for _ in range(n)]}


def twin(rng, rec, rid):
    """A canonical twin of `rec`: its jobs permuted, or every capacity and
    requirement scaled by one common factor. The solve cache maps both to
    the same key; the response differs only in id and index."""
    out = json.loads(json.dumps(rec))
    out["id"] = rid
    if rng.random() < 0.5:
        key = "jobs" if "jobs" in out else "requirements"
        order = list(range(len(out[key])))
        rng.shuffle(order)
        out[key] = [out[key][i] for i in order]
        if "sizes" in out:
            out["sizes"] = [out["sizes"][i] for i in order]
    else:
        k = rng.choice([2, 3, 5])
        if "jobs" in out:
            out["capacity"] *= k
            out["jobs"] = [[p, r * k] for p, r in out["jobs"]]
        else:
            out["capacities"] = [c * k for c in out["capacities"]]
            out["requirements"] = [[r * k for r in row]
                                   for row in out["requirements"]]
    return out


def dumps(rec):
    return json.dumps(rec, separators=(",", ":"))


def batch_io(seed, count):
    """Many small d=1 records: n in [100, 200], m in {4, 8, 32}, uniform and
    pareto requirements."""
    rng = random.Random(f"batch-io/{seed}")
    return [dumps(d1_record(rng, f"io-{i}", rng.choice(["uniform", "pareto"]),
                            rng.randint(100, 200), rng.choice([4, 8, 32]), 4))
            for i in range(count)]


def batch_engine(seed):
    """Few large d=1 records: n = 16000, m in {4, 16}, five requirement
    families plus unit-size records (the m=4 ones sit on the unit engine's
    superlinear cliff). n is fixed so that a seed changes only the job
    draws, which average out over 16000 jobs: the cost per record then
    hardly depends on the seed."""
    rng = random.Random(f"batch-engine/{seed}")
    lines = []
    for family in ["uniform", "bimodal", "pareto", "nearboundary",
                   "oversized", "unit"]:
        for m in [4, 16]:
            for k in range(2):
                n = 16_000
                max_size = 1 if family == "unit" else 4
                fam = "uniform" if family == "unit" else family
                lines.append(dumps(d1_record(
                    rng, f"engine-{family}-m{m}-{k}", fam, n, m, max_size)))
    return lines


# Kinds of serve-mixed requests per 100: 30 canonical twins, and of the
# other 70, 70 % small d=1, 20 % d=2/3 and 10 % large d=1.
SERVE_DECK = (["twin"] * 30 + ["small"] * 49 + ["multires"] * 14
              + ["large"] * 7)


def serve_mixed(seed, count):
    """Request pool for serve-mixed: 70% small d=1, 20% d=2/3
    (vmpack/anticorrelated), 10% large d=1, and 30% canonical twins of a
    recent request (a twin refers back at most 200 requests, so its key is
    still resident in a 1024-entry cache). Each block of 100 requests holds
    the kinds of SERVE_DECK in a random order, so the mix, and with it the
    cost of the pool, does not drift with the seed."""
    rng = random.Random(f"serve-mixed/{seed}")
    recs = []
    kinds = []
    for i in range(count):
        rid = f"req-{i}"
        if not kinds:
            kinds = SERVE_DECK[:]
            rng.shuffle(kinds)
        kind = kinds.pop()
        if kind == "twin" and recs:
            recs.append(twin(rng, recs[rng.randrange(max(0, len(recs) - 200),
                                                     len(recs))], rid))
            continue
        if kind in ("small", "twin"):  # the first request cannot be a twin
            recs.append(d1_record(rng, rid,
                                  rng.choice(["uniform", "bimodal", "pareto"]),
                                  rng.randint(50, 150), rng.choice([4, 8, 16]),
                                  4))
        elif kind == "multires":
            recs.append(multires_record(rng, rid,
                                        rng.choice(["vmpack",
                                                    "anticorrelated"]),
                                        rng.randint(100, 300),
                                        rng.choice([4, 8]), rng.choice([2, 3])))
        else:
            recs.append(d1_record(rng, rid, rng.choice(["uniform", "pareto"]),
                                  rng.randint(2000, 4000), rng.choice([8, 16]),
                                  4))
    return [dumps(r) for r in recs]
