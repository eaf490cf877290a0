"""Independent straight-line reimplementations used as test oracles.

Nothing here shares code with the engine: kernels are evaluated with
math.fsum loops or one scalar dot product per pair, budgets live in plain
Python lists, and the query loop is written out longhand.  The only shared
object is the NoiseSource a test passes in, so that both sides consume the
identical standard-normal tape in the documented order (one scalar for the
count, then one vector for the votes, every query).
"""

import math

import numpy as np


def reference_stream(features, labels, num_classes, queries, *, kind, bandwidth,
                     tau, sigma_count, sigma_vote, count_floor, budget, src,
                     reuse=False):
    """Longhand private threshold-vote loop.

    Returns (answers, remaining budgets, public flags, charge tuples) where
    each charge tuple is (query_index, example, count_charge, label_charge).
    """
    feats = [[float(v) for v in row] for row in features]
    labs = [int(v) for v in labels]
    public = [False] * len(feats)
    z = [float(budget)] * len(feats)
    threshold = 1.0 / (2.0 * sigma_count * sigma_count)
    answers = []
    records = []
    for t in range(len(queries)):
        q = [float(v) for v in queries[t]]
        sel = []
        sel_w = []
        for i in range(len(feats)):
            if not public[i] and z[i] < threshold:
                continue
            if kind == "rbf":
                sq = math.fsum((feats[i][k] - q[k]) ** 2 for k in range(len(q)))
                w = math.exp(-sq / (bandwidth * bandwidth))
            else:
                w = max(0.0, math.fsum(feats[i][k] * q[k] for k in range(len(q))))
            if w >= tau:
                sel.append(i)
                sel_w.append(w)
        released = max(float(len(sel)) + sigma_count * src.standard_normal(),
                       float(count_floor))
        votes = [0.0] * num_classes
        denom = 2.0 * sigma_vote * sigma_vote * released
        for i, w in zip(sel, sel_w):
            if public[i]:
                votes[labs[i]] += w
                continue
            z[i] -= threshold
            if w * w >= denom * z[i]:
                magnitude = sigma_vote * math.sqrt(2.0 * released * z[i])
                charge = z[i]
            else:
                magnitude = w
                charge = w * w / denom
            votes[labs[i]] += magnitude
            z[i] -= charge
            records.append((t, i, threshold, charge))
        scale = math.sqrt(sigma_vote * sigma_vote * released)
        noise = src.standard_normal(num_classes)
        best = 0
        best_value = votes[0] + scale * float(noise[0])
        for c in range(1, num_classes):
            value = votes[c] + scale * float(noise[c])
            if value > best_value:
                best = c
                best_value = value
        answers.append(best)
        if reuse:
            feats.append(q)
            labs.append(best)
            public.append(True)
            z.append(float(budget))
    return answers, z, public, records


def noiseless_vote(features, labels, num_classes, query, *, kind, bandwidth, tau):
    """Exact kernel-weighted threshold voting, no noise, ties to lowest index."""
    votes = [0.0] * num_classes
    q = [float(v) for v in query]
    for i in range(len(features)):
        if kind == "rbf":
            sq = math.fsum((float(features[i][k]) - q[k]) ** 2 for k in range(len(q)))
            w = math.exp(-sq / (bandwidth * bandwidth))
        else:
            w = max(0.0, math.fsum(float(features[i][k]) * q[k] for k in range(len(q))))
        if w >= tau:
            votes[int(labels[i])] += w
    best = 0
    for c in range(1, num_classes):
        if votes[c] > votes[best]:
            best = c
    return best, votes


def kernel_eval(spec, x, q) -> float:
    """Similarity weight between one stored vector and one query.

    rbf:     exp(-||x - q||^2 / bandwidth^2)
    cosine:  max(0, x . q)
    """
    xv = np.asarray(x, dtype=np.float64)
    qv = np.asarray(q, dtype=np.float64)
    if xv.shape != qv.shape or xv.ndim != 1:
        raise ValueError(f"dimension mismatch: x has shape {xv.shape}, q has shape {qv.shape}")
    if spec.kind == "rbf":
        diff = xv - qv
        return float(np.exp(-np.dot(diff, diff) / (spec.bandwidth * spec.bandwidth)))
    return float(max(0.0, np.dot(xv, qv)))
