"""Mode registry: resolve a mode name + context into a ready backend.

The service/serving layers never instantiate engines directly anymore; they
ask this module for a backend by mode.  Engine keyword arguments are routed
by key — BLAST's seeding/extension knobs go to the fast tier, the verified
tier's own switches stay with it, and everything else belongs to the exact
engine (where an unknown key still fails loudly through the existing
engine/store error paths).
"""

from __future__ import annotations

from repro.alphabet import DNA, Alphabet
from repro.blast.engine import Blast
from repro.core.alae import ALAE
from repro.engine.backend import (
    MODE_ENGINE_NAMES,
    MODES,
    AlaeBackend,
    BlastBackend,
)
from repro.engine.verified import VerifiedBackend
from repro.errors import SearchError
from repro.index.kmer_index import DEFAULT_WORD_SIZE, KmerIndex
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme

__all__ = [
    "MODES",
    "MODE_ENGINE_NAMES",
    "MODE_ORDERINGS",
    "BLAST_KEYS",
    "VERIFIED_KEYS",
    "check_mode",
    "split_engine_kwargs",
    "backend_from_text",
    "backend_from_store",
]

#: Declared hit ordering per mode, without materializing a backend —
#: consumers that merge results from workers they did not run locally
#: (the service's shard merge) key off this table; it is derived from the
#: backend classes, so declaration and behaviour cannot drift.
MODE_ORDERINGS = {
    "exact": AlaeBackend.info.ordering,
    "fast": BlastBackend.info.ordering,
    "verified": VerifiedBackend.info.ordering,
}

#: Engine kwargs consumed by the fast (BLAST) tier.
BLAST_KEYS = frozenset(
    {"word_size", "x_drop_ungapped", "gap_trigger", "gapped_margin"}
)
#: Engine kwargs consumed by the verified tier itself.
VERIFIED_KEYS = frozenset({"measure_recall"})


def check_mode(mode: str | None) -> str:
    """Normalise ``None`` to ``exact`` and reject unknown modes."""
    if mode is None:
        return "exact"
    if mode not in MODES:
        raise SearchError(
            f"unknown search mode {mode!r}; expected one of {', '.join(MODES)}"
        )
    return mode


def split_engine_kwargs(
    engine_kwargs: dict | None,
) -> tuple[dict, dict, dict]:
    """Route a flat kwargs dict into ``(exact, blast, verified)`` buckets.

    The split lets one service-level ``engine_kwargs`` serve every per-call
    mode: a store-backed service built with ``use_vectorized=False`` can
    still answer ``mode=fast`` calls (the toggle simply does not apply
    there), while a typo'd *exact* toggle still explodes in the exact
    engine's constructor as before.
    """
    exact: dict = {}
    blast: dict = {}
    verified: dict = {}
    for key, value in (engine_kwargs or {}).items():
        if key in BLAST_KEYS:
            blast[key] = value
        elif key in VERIFIED_KEYS:
            verified[key] = value
        else:
            exact[key] = value
    return exact, blast, verified


def _usable_index(
    index: KmerIndex | None, text_length: int, word_size: int
) -> KmerIndex | None:
    """A prebuilt k-mer index, only if it matches what BLAST will ask for."""
    if index is None or index.k != word_size or len(index.text) != text_length:
        return None
    return index


def backend_from_text(
    mode: str | None,
    text: str,
    *,
    alphabet: Alphabet = DNA,
    scheme: ScoringScheme = DEFAULT_SCHEME,
    engine_kwargs: dict | None = None,
    exact_engine: ALAE | None = None,
    kmer_index: KmerIndex | None = None,
) -> object:
    """Backend for ``mode`` over a plain in-memory text.

    ``exact_engine`` (when given) is reused instead of building a fresh
    ALAE — the service layer passes its resident engine so ``exact`` and
    ``verified`` share one index.  ``kmer_index`` seeds the fast tier when
    compatible (same text, ``k == word_size``) and is ignored otherwise.
    """
    mode = check_mode(mode)
    exact_kwargs, blast_kwargs, verified_kwargs = split_engine_kwargs(
        engine_kwargs
    )

    def exact_backend() -> ALAE:
        if exact_engine is not None:
            return exact_engine
        return ALAE(text, alphabet=alphabet, scheme=scheme, **exact_kwargs)

    if mode == "exact":
        return AlaeBackend(exact_backend())
    word_size = blast_kwargs.get("word_size", DEFAULT_WORD_SIZE)
    fast = Blast(
        text,
        alphabet=alphabet,
        scheme=scheme,
        index=_usable_index(kmer_index, len(text), word_size),
        **blast_kwargs,
    )
    if mode == "fast":
        return BlastBackend(fast)
    return VerifiedBackend(fast, exact_backend(), **verified_kwargs)


def backend_from_store(
    mode: str | None, store, *, engine_kwargs: dict | None = None
) -> object:
    """Backend for ``mode`` over a persistent :class:`~repro.store.IndexStore`.

    ``exact`` takes the store's cached resident engine (unchanged fast
    path); ``fast`` seeds BLAST from the store's k-mer aux section when its
    ``k`` matches (lazy-built otherwise); ``verified`` composes both.
    """
    mode = check_mode(mode)
    exact_kwargs, blast_kwargs, verified_kwargs = split_engine_kwargs(
        engine_kwargs
    )
    if mode == "exact":
        return AlaeBackend(store.engine(**exact_kwargs))
    word_size = blast_kwargs.get("word_size", DEFAULT_WORD_SIZE)
    fast = Blast(
        store.database().text,
        alphabet=store.alphabet,
        scheme=store.scheme,
        index=store.kmer_index(word_size),
        **blast_kwargs,
    )
    if mode == "fast":
        return BlastBackend(fast)
    return VerifiedBackend(
        fast, store.engine(**exact_kwargs), **verified_kwargs
    )
