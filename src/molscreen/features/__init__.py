"""Molecular featurization: structural keys, descriptors, latent ingestion."""

import json
from importlib import resources

from .descriptors import DESCRIPTOR_NAMES, atomic_masses, descriptors
from .matrix import (
    BLOCK_ORDER,
    DimensionMismatch,
    DuplicateKey,
    FeatureError,
    FeatureMatrix,
    LatentTable,
    MissingLatent,
    UnparseableSMILES,
    assemble,
    load_latents,
)
from .patterns import (
    KeySet,
    PatternAtom,
    PatternBond,
    PatternError,
    PatternKey,
    PatternTooLarge,
    fingerprint,
    keyset_from_entries,
    load_keyset,
    match_pattern,
)


def default_keyset() -> KeySet:
    """The 64-key structural key set shipped with the package."""
    text = resources.files("molscreen.data").joinpath("structure_keys.json").read_text()
    return keyset_from_entries(json.loads(text), name="molscreen-64")


__all__ = [
    "BLOCK_ORDER",
    "DESCRIPTOR_NAMES",
    "DimensionMismatch",
    "DuplicateKey",
    "FeatureError",
    "FeatureMatrix",
    "KeySet",
    "LatentTable",
    "MissingLatent",
    "PatternAtom",
    "PatternBond",
    "PatternError",
    "PatternKey",
    "PatternTooLarge",
    "UnparseableSMILES",
    "assemble",
    "atomic_masses",
    "default_keyset",
    "descriptors",
    "fingerprint",
    "load_keyset",
    "load_latents",
    "match_pattern",
]
