"""Independent oracle implementations for cross-checking the package.

Everything here is deliberately naive (explicit loops, no shared code with
latebench) so that agreement between an oracle and the package is meaningful
evidence rather than a tautology.
"""

import itertools
import math

import numpy as np

# The rows of k-means' products, `core.BLOCK_ROWS`.
BLOCK_ROWS = 4096


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


def loop_pool_fixed(data, C):
    """The (C, dim) slots of one doc's (rows, dim) float32 rows, one doc at a
    time: the bit reference of `core.pool_corpus`, cancelling chunks (which
    `chunk_mean_pool` cannot renormalize) included."""
    if data.shape[0] < C:
        reps = -(-C // data.shape[0])
        data = np.tile(data, (reps, 1))[:C]
    n = data.shape[0]
    base, extra = divmod(n, C)
    out = np.empty((C, data.shape[1]), dtype=np.float32)
    start = 0
    for chunk_index in range(C):
        size = base + (1 if chunk_index < extra else 0)
        chunk = data[start:start + size]
        start += size
        if size == 1:
            out[chunk_index] = chunk[0]
            continue
        mean = chunk.astype(np.float64).mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            # Cancelling chunk; fall back to its first row to keep unit norm.
            out[chunk_index] = chunk[0]
        else:
            out[chunk_index] = (mean / norm).astype(np.float32)
    return out


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


def quantize_roundtrip(vector, centroid, quantiles):
    """Standalone bucket quantizer (encode + decode) of one vector.

    Each component of the float32 residual goes to the bucket of the last
    cutoff (quantiles[1::2]) at or below it, and comes back as that bucket's
    weight (quantiles[0::2]); the float64 sum with the centroid is renormalized.
    """
    cutoffs, weights = quantiles[1::2].tolist(), quantiles[0::2].tolist()
    residual = np.asarray(vector, dtype=np.float32) - np.asarray(centroid, dtype=np.float32)
    decoded = np.asarray(centroid, dtype=np.float64).copy()
    for c, value in enumerate(residual.tolist()):
        decoded[c] += weights[sum(1 for cut in cutoffs if cut <= value)]
    norm = math.sqrt(float(np.dot(decoded, decoded)))
    return (decoded / norm).astype(np.float32)


def compressed_size_bytes(total_vectors, dim, bits):
    """Arithmetic size of the residual layout: centroid id + codes per vector, and the
    2**(bits+1) - 1 float32 quantiles once."""
    per_vector = 4 + math.ceil(dim * bits / 8)
    return total_vectors * per_vector + 4 * (2 ** (bits + 1) - 1)


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


def loop_residual_radii(vectors, centroids, codes, row_offsets):
    """Per doc the largest residual norm, in float64, one row at a time."""
    return np.array([
        max(float(np.linalg.norm(vectors[row].astype(np.float64)
                                 - centroids[codes[row]].astype(np.float64)))
            for row in range(row_offsets[d], row_offsets[d + 1]))
        for d in range(len(row_offsets) - 1)
    ])


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
    return full_rescore(query, doc_vectors, doc_ids, candidates[:ndocs], k)


def sum_of_maxima(query, doc):
    """MaxSim through numpy's wrappers: np.sum of the row maxima, in float64."""
    sims = query @ doc.T
    return float(np.sum(sims.max(axis=1), dtype=np.float64))


def full_rescore(query, doc_vectors, doc_ids, ordinals, k):
    """Every given doc scored by sum_of_maxima; the top k [(doc_id, score)], best first.

    doc_vectors[d] is doc d's matrix; ties break by ascending doc id.
    """
    rescored = [(doc_ids[d], sum_of_maxima(query, doc_vectors[d])) for d in ordinals]
    rescored.sort(key=lambda item: (-item[1], item[0]))
    return rescored[:k]


def loop_quantiles(vectors, centroids, codes, bits):
    """Residual quantiles from one Python sort of every component, one row at a time.

    Entry i - 1 is the component at floor(i * m / 2**(bits + 1)) of the m
    components sorted ascending, each component computed in float32.
    """
    components = []
    for i in range(vectors.shape[0]):
        residual = vectors[i].astype(np.float32) - centroids[codes[i]].astype(np.float32)
        components.extend(residual.tolist())
    components.sort()
    parts = 2 ** (bits + 1)
    picked = [components[i * len(components) // parts] for i in range(1, parts)]
    return np.array(picked, dtype=np.float32)


def loop_encode_rows(vectors, centroids, codes, quantiles):
    """Residual levels, one vector at a time: per component, the count of cutoffs
    (quantiles[1::2]) at or below it, by a right-sided binary search."""
    levels = np.zeros(vectors.shape, dtype=np.uint8)
    for i in range(vectors.shape[0]):
        residual = vectors[i].astype(np.float32) - centroids[codes[i]].astype(np.float32)
        levels[i] = np.searchsorted(quantiles[1::2], residual, side="right")
    return levels


def loop_decode_rows(levels, quantiles, centroids, codes):
    """Decoded unit vectors, one at a time: centroid plus each level's weight."""
    weights = quantiles[0::2]
    out = np.empty(levels.shape, dtype=np.float32)
    for i in range(levels.shape[0]):
        centroid = centroids[codes[i]].astype(np.float32)
        vector = centroid.astype(np.float64) + weights[levels[i]].astype(np.float64)
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
    nprobe >= 1 is clamped to the centroid count.
    """
    nlist = centroids.shape[0]
    nprobe = min(nprobe, nlist)
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


def add_at_means(vectors, labels, k, prev):
    """One spherical k-means update by a row-wise float64 scatter.

    Returns (sums, centroids, dead): the float64 (k, dim) cluster sums from
    np.add.at, the renormalized means as float32 (a dead cluster, empty or
    with a near-zero sum, keeps its previous centroid) and the dead mask.
    """
    sums = np.zeros((k, vectors.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, vectors.astype(np.float64))
    counts = np.bincount(labels, minlength=k)
    norms = np.linalg.norm(sums, axis=1)
    dead = (counts == 0) | (norms < 1e-12)
    centroids = prev.astype(np.float64).copy()
    alive = ~dead
    centroids[alive] = sums[alive] / norms[alive, None]
    return sums, centroids.astype(np.float32), dead


def product_starts(n):
    """Where each of k-means' products over n rows starts: at every multiple of
    BLOCK_ROWS below the last, which starts at the multiple of 64 at or below
    n - BLOCK_ROWS and takes the rest; every other has BLOCK_ROWS rows."""
    last = max(0, n - BLOCK_ROWS) // 64 * 64
    return [*range(0, last, BLOCK_ROWS), last]


def choice_seed_plus_plus(vectors, k, rng):
    """k-means++ seeding by rng.choice: each pass takes its dots from the
    products at `product_starts`, made in order so that a row two products
    cover keeps the later one's dot; each draw is rng.choice(n, p=d2 / d2.sum()),
    or uniform when the distances sum to 0."""
    n = len(vectors)
    starts = product_starts(n)

    def dots(x):
        out = np.empty(n, dtype=vectors.dtype)
        for lo in starts:
            hi = n if lo == starts[-1] else lo + BLOCK_ROWS
            out[lo:hi] = vectors[lo:hi] @ x
        return out

    chosen = [int(rng.integers(n))]
    best_dot = dots(vectors[chosen[0]])
    for _ in range(1, k):
        d2 = np.maximum(0.0, 2.0 - 2.0 * best_dot).astype(np.float64)
        total = d2.sum()
        chosen.append(int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total)))
        best_dot = np.maximum(best_dot, dots(vectors[chosen[-1]]))
    return vectors[chosen].copy()


def per_doc_validate(corpus, check):
    """The per-document contents check: `check` (core.validate_matrix) on each
    doc in doc order at the corpus dtype's tolerance, the first failure raised
    with its doc id prefixed."""
    tol = {"float32": 1e-4, "float16": 2e-3}[corpus.dtype]
    for doc_id in corpus.doc_ids:
        try:
            check(corpus.docs[doc_id], norm_tol=tol)
        except Exception as exc:
            exc.args = (f"doc {doc_id!r}: {exc}",)
            raise


def loop_unit(v):
    """One vector divided by its np.linalg.norm."""
    return v / np.linalg.norm(v)


def _loop_perturbed(direction, noise, rng):
    g = loop_unit(rng.standard_normal(direction.shape[0]))
    return loop_unit(direction + noise * g).astype(np.float32)


def loop_attempt(spec, seed):
    """One generator attempt drawn one token at a time.

    Returns (docs, queries, pairs): doc id -> float32 rows, query id ->
    float32 rows, and the (query id, target doc id) pairs, for the same seed
    stream the package's generator consumes.
    """
    rng = np.random.default_rng(seed)
    combos = list(itertools.combinations(range(spec.num_concepts), spec.concepts_per_doc))
    gaussian = rng.standard_normal((spec.dim, spec.num_concepts + 1))
    q, r = np.linalg.qr(gaussian)
    directions = np.ascontiguousarray((q * np.sign(np.diag(r))).T, dtype=np.float64)
    concepts = directions[: spec.num_concepts]
    background = directions[spec.num_concepts].astype(np.float32)

    order = rng.permutation(len(combos))[: spec.doc_count]
    doc_concepts = [combos[i] for i in order]
    lo, hi = spec.tokens_per_doc
    docs, doc_ids = {}, []
    for ordinal in range(spec.doc_count):
        doc_id = f"d{ordinal:05d}"
        doc_ids.append(doc_id)
        rows = int(rng.integers(lo, hi + 1))
        owned = doc_concepts[ordinal]
        matrix = np.empty((rows, spec.dim), dtype=np.float32)
        for i in range(rows - 1):
            matrix[i] = _loop_perturbed(concepts[owned[i % len(owned)]], spec.doc_noise, rng)
        matrix[rows - 1] = background
        docs[doc_id] = matrix

    targets = rng.choice(spec.doc_count, size=spec.queries, replace=False)
    n_filler = spec.filler_tokens
    queries, pairs = {}, []
    for qi in range(spec.queries):
        qid = f"q{qi:04d}"
        owned = doc_concepts[int(targets[qi])]
        rows = np.empty((spec.signal_tokens + n_filler, spec.dim), dtype=np.float32)
        for i in range(spec.signal_tokens):
            rows[i] = _loop_perturbed(concepts[owned[i % len(owned)]], spec.query_noise, rng)
        for i in range(n_filler):
            rows[spec.signal_tokens + i] = _loop_perturbed(
                background.astype(np.float64), spec.filler_noise, rng)
        queries[qid] = rows
        pairs.append((qid, doc_ids[int(targets[qi])]))
    return docs, queries, pairs


def two_pass_validate_matrix(m, norm_tol):
    """The TokenMatrix contents check in two passes: the first non-finite entry
    by (row, col), else the first row whose np.linalg.norm is off 1 by more
    than norm_tol. Raises the core.errors types."""
    from latebench.errors import EmptyMatrix, NonFinite, NotNormalized
    if m.rows == 0 or m.dim == 0:
        raise EmptyMatrix(f"degenerate shape {m.data.shape}")
    finite = np.isfinite(m.data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFinite(int(row), int(col))
    norms = np.linalg.norm(m.data.astype(np.float64), axis=1)
    off = np.abs(norms - 1.0) > norm_tol
    if off.any():
        row = int(np.argmax(off))
        raise NotNormalized(row, float(norms[row]))


def loop_parse_run(text):
    """`trec.parse_run` as one loop over the lines: each content line split,
    checked and kept as a (rank, doc id, score) tuple, each query's rows
    sorted by rank, then one ScoredDoc per hit. Raises and logs what
    `parse_run` raises and logs, on the `latebench.trec` logger."""
    import logging

    from latebench.core import RankedList, ScoredDoc
    from latebench.errors import MalformedLine
    from latebench.trec import RunFile

    logger = logging.getLogger("latebench.trec")
    entries, listed, tag = {}, {}, None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cols = stripped.split()
        if len(cols) != 6:
            raise MalformedLine(line_no, f"expected 6 columns, got {len(cols)}")
        qid, _, doc_id, rank_text, score_text, line_tag = cols
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError:
            raise MalformedLine(line_no, "rank or score is not numeric") from None
        if rank < 1:
            raise MalformedLine(line_no, f"rank {rank} is not positive")
        if tag is None:
            tag = line_tag
        elif line_tag != tag:
            raise MalformedLine(line_no, f"run tag {line_tag!r} differs from the first {tag!r}")
        docs = listed.setdefault(qid, set())
        if doc_id in docs:
            raise MalformedLine(line_no, f"doc {doc_id!r} listed twice for query {qid!r}")
        docs.add(doc_id)
        entries.setdefault(qid, []).append((rank, doc_id, score))
    rankings = {}
    for qid, rows in entries.items():
        rows.sort(key=lambda item: item[0])
        ranks = [rank for rank, _, _ in rows]
        if ranks != list(range(1, len(rows) + 1)):
            logger.warning("run has non-contiguous ranks for query %s: %s", qid, ranks[:10])
        scores = [score for _, _, score in rows]
        if any(a < b for a, b in zip(scores, scores[1:])):
            logger.warning("run scores increase with rank for query %s", qid)
        rankings[qid] = RankedList(
            query_id=qid, hits=tuple(ScoredDoc(doc_id, score) for _, doc_id, score in rows)
        )
    return RunFile(tag="unknown" if tag is None else tag, rankings=rankings)
