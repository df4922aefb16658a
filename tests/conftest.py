import numpy as np
import pytest

from latebench import Corpus, SyntheticSpec, TokenMatrix, generate_synthetic


def basis_matrix(indices, dim=8):
    """TokenMatrix of exact basis vectors; norms are exactly 1.0."""
    rows = np.zeros((len(indices), dim), dtype=np.float32)
    for i, j in enumerate(indices):
        rows[i, j] = 1.0
    return TokenMatrix(rows)


def random_unit_matrix(rng, rows, dim):
    data = rng.standard_normal((rows, dim))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    return TokenMatrix(data.astype(np.float32))


@pytest.fixture(scope="session")
def planted_small():
    """Small planted dataset shared across backend tests."""
    spec = SyntheticSpec(
        doc_count=80,
        tokens_per_doc=(6, 16),
        dim=64,
        num_concepts=14,
        queries=12,
        signal_tokens=6,
        filler_fraction=0.4,
        margin=0.05,
        seed=11,
    )
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def planted_by_filler():
    """One planted dataset per query filler fraction, 0.3 and 0.0, for both backends' bounds."""
    corpora = {}
    for filler in (0.3, 0.0):
        spec = SyntheticSpec(
            doc_count=120, tokens_per_doc=(6, 16), dim=64, num_concepts=18, queries=6,
            signal_tokens=6, filler_fraction=filler, margin=0.05, seed=23,
        )
        corpora[filler] = generate_synthetic(spec)
    return corpora


@pytest.fixture(scope="session")
def basis_corpus():
    """Two-doc corpus on exact basis vectors, handy for hand-checked scores."""
    docs = {
        "A": basis_matrix([0], dim=8),
        "B": basis_matrix([1], dim=8),
    }
    return Corpus.build(docs)
