"""Independent oracle implementations for cross-checking the package.

Everything here is deliberately naive (explicit loops, no shared code with
latebench) so that agreement between an oracle and the package is meaningful
evidence rather than a tautology.
"""

import math

import numpy as np


def triple_loop_maxsim(query, doc):
    """MaxSim by three explicit loops over rows and components."""
    total = 0.0
    for i in range(query.shape[0]):
        best = -math.inf
        for j in range(doc.shape[0]):
            dot = 0.0
            for c in range(query.shape[1]):
                dot += float(query[i, c]) * float(doc[j, c])
            if dot > best:
                best = dot
        total += best
    return total


def chunk_mean_pool(doc, c):
    """Contiguous chunk partition, mean, renormalize; cycles short docs."""
    rows = [doc[i] for i in range(doc.shape[0])]
    while len(rows) < c:
        rows.append(rows[len(rows) - doc.shape[0]])
    n = len(rows)
    base, extra = divmod(n, c)
    out = []
    start = 0
    for chunk_index in range(c):
        size = base + (1 if chunk_index < extra else 0)
        chunk = rows[start:start + size]
        start += size
        if size == 1:
            out.append(np.array(chunk[0], dtype=np.float32))
            continue
        mean = np.zeros(doc.shape[1], dtype=np.float64)
        for row in chunk:
            mean += np.asarray(row, dtype=np.float64)
        mean /= size
        norm = math.sqrt(float(np.dot(mean, mean)))
        out.append((mean / norm).astype(np.float32))
    return np.stack(out)


def argmax_assignment(vectors, centroids):
    """Per-vector nearest centroid by max dot product, lowest index on ties."""
    codes = []
    for i in range(vectors.shape[0]):
        best, best_dot = 0, -math.inf
        for c in range(centroids.shape[0]):
            dot = float(np.dot(vectors[i], centroids[c]))
            if dot > best_dot:
                best, best_dot = c, dot
        codes.append(best)
    return codes


def quantize_roundtrip(vector, centroid, bits):
    """Standalone symmetric uniform residual quantizer (encode + decode)."""
    residual = np.asarray(vector, dtype=np.float64) - np.asarray(centroid, dtype=np.float64)
    scale = float(np.max(np.abs(residual)))
    levels = (1 << bits) - 1
    if scale == 0.0:
        decoded = np.asarray(centroid, dtype=np.float64)
    else:
        codes = np.rint((residual + scale) * levels / (2.0 * scale))
        codes = np.clip(codes, 0, levels)
        dequant = -scale + codes * 2.0 * scale / levels
        decoded = np.asarray(centroid, dtype=np.float64) + dequant
    norm = math.sqrt(float(np.dot(decoded, decoded)))
    return (decoded / norm).astype(np.float32)


def compressed_size_bytes(total_vectors, dim, bits):
    """Arithmetic size of the residual layout: centroid id + codes + scale."""
    per_vector = 4 + math.ceil(dim * bits / 8) + 4
    return total_vectors * per_vector


def per_doc_centroid_scores(dots, codes, row_offsets):
    """Stage-3 score of every doc, one doc at a time.

    dots is the (query rows, centroids) float32 matrix; each doc's score is
    the float64 sum over query rows of the best dot among its distinct codes.
    """
    scores = []
    for d in range(len(row_offsets) - 1):
        own = sorted(set(codes[row_offsets[d]:row_offsets[d + 1]].tolist()))
        scores.append(float(np.sum(dots[:, own].max(axis=1), dtype=np.float64)))
    return scores


def reference_plaid_funnel(query, centroids, codes, row_offsets, doc_ids, doc_vectors,
                           ncells, threshold, ndocs, k):
    """PLAID stages 1-4 by explicit loops; returns [(doc_id, score)] best first.

    doc_vectors[d] is the matrix stage 4 rescores doc d from. Ties break by
    ascending centroid id when probing and by ascending doc id afterwards.
    """
    dots = query @ centroids.T
    count = centroids.shape[0]
    ncells = min(max(1, ncells), count)
    cutoff = float(np.float32(threshold))
    surviving = set()
    for row in dots:
        probed = sorted(range(count), key=lambda c: (-float(row[c]), c))[:ncells]
        surviving.update(c for c in probed if float(row[c]) >= cutoff)
    approx = per_doc_centroid_scores(dots, codes, row_offsets)
    candidates = [
        d for d in range(len(doc_ids))
        if surviving & set(codes[row_offsets[d]:row_offsets[d + 1]].tolist())
    ]
    candidates.sort(key=lambda d: (-approx[d], doc_ids[d]))
    rescored = []
    for d in candidates[:ndocs]:
        sims = query @ doc_vectors[d].T
        rescored.append((doc_ids[d], float(np.sum(sims.max(axis=1), dtype=np.float64))))
    rescored.sort(key=lambda item: (-item[1], item[0]))
    return rescored[:k]


def loop_encode_rows(vectors, centroids, codes, bits):
    """Residual levels and scales, one vector at a time.

    Per vector: scale = max |vector - centroid| as a Python float, levels =
    rint((residual + scale) * (top / (2 * scale))) in float32 clipped to
    [0, top]; a zero residual keeps scale 0 and level 0.
    """
    top = (1 << bits) - 1
    levels = np.zeros(vectors.shape, dtype=np.uint8)
    scales = np.zeros(vectors.shape[0], dtype=np.float32)
    for i in range(vectors.shape[0]):
        residual = vectors[i].astype(np.float32) - centroids[codes[i]].astype(np.float32)
        scale = float(np.max(np.abs(residual)))
        if scale == 0.0:
            continue
        row = np.rint((residual + scale) * (top / (2.0 * scale)))
        levels[i] = np.clip(row, 0, top).astype(np.uint8)
        scales[i] = scale
    return levels, scales


def loop_decode_rows(levels, scales, centroids, codes, bits):
    """Decoded unit vectors, one at a time; a zero scale gives the centroid."""
    top = (1 << bits) - 1
    out = np.empty(levels.shape, dtype=np.float32)
    for i in range(levels.shape[0]):
        centroid = centroids[codes[i]].astype(np.float32)
        scale = float(scales[i])
        if scale == 0.0:
            out[i] = centroid
            continue
        values = (scale * (2.0 * levels[i].astype(np.float64) - top) / top).astype(np.float32)
        vector = centroid.astype(np.float64) + values.astype(np.float64)
        out[i] = (vector / np.linalg.norm(vector)).astype(np.float32)
    return out


def loop_verify_planted(corpus, queries, qrels, margin):
    """The generator's margin check, one document at a time.

    True when every query's (first) relevant doc beats its best other doc by
    at least margin; each score is the float64 sum over query rows of the
    best float32 dot, as the package's kernel computes it.
    """
    for qid, query in queries.items():
        target = next(iter(qrels.relevant(qid)))
        target_score = None
        best_other = -math.inf
        for doc_id in corpus.doc_ids:
            sims = query.data @ corpus.docs[doc_id].data.T
            score = float(np.sum(sims.max(axis=1), dtype=np.float64))
            if doc_id == target:
                target_score = score
            elif score > best_other:
                best_other = score
        if target_score is None or target_score - best_other < margin:
            return False
    return True


def loop_ivf_candidates(centroids, assignments, vectors, offsets, query, nprobe, cap):
    """IVF candidate doc ordinals by walking each query row's lists, ascending.

    Per query row: a matvec gives the centroid dots, and lexsort orders the
    centroids by (-dot, id). The first nprobe lists (row ids ascending) are
    walked with a budget of cap rows: a list that fits is taken whole, and
    the list the budget runs out inside gives its top rows by (-dot, row id).
    nprobe is clamped to [1, centroid count].
    """
    nlist = centroids.shape[0]
    nprobe = min(max(1, nprobe), nlist)
    lists = [[] for _ in range(nlist)]
    for row_id, centroid in enumerate(assignments.tolist()):
        lists[centroid].append(row_id)
    doc_of = []
    for d in range(len(offsets) - 1):
        doc_of.extend([d] * int(offsets[d + 1] - offsets[d]))
    candidates = set()
    for row in query:
        order = np.lexsort((np.arange(nlist), -(centroids @ row)))
        remaining = cap
        for centroid in order[:nprobe]:
            toks = np.array(lists[centroid], dtype=np.int64)
            if len(toks) == 0:
                continue
            if len(toks) <= remaining:
                taken = toks
                remaining -= len(toks)
            else:
                dots = vectors[toks] @ row
                taken = toks[np.lexsort((toks, -dots))[:remaining]]
                remaining = 0
            candidates.update(doc_of[t] for t in taken.tolist())
            if remaining == 0:
                break
    return tuple(sorted(candidates))
