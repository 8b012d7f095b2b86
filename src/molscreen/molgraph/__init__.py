"""SMILES parsing, ring perception and canonicalization."""

from .model import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    AtomSpec,
    AromaticityViolation,
    Bond,
    EmptyInput,
    MolGraphError,
    MolecularGraph,
    RingInfo,
    SmilesParseError,
    SmilesSyntaxError,
    UnbalancedParenthesis,
    UnclosedRingBond,
    UnknownElement,
    ValenceViolation,
)
from .parser import parse_smiles
from .canon import canonical_smiles

__all__ = [
    "AROMATIC",
    "DOUBLE",
    "SINGLE",
    "TRIPLE",
    "Atom",
    "AtomSpec",
    "AromaticityViolation",
    "Bond",
    "EmptyInput",
    "MolGraphError",
    "MolecularGraph",
    "RingInfo",
    "SmilesParseError",
    "SmilesSyntaxError",
    "UnbalancedParenthesis",
    "UnclosedRingBond",
    "UnknownElement",
    "ValenceViolation",
    "canonical_smiles",
    "parse_smiles",
]
