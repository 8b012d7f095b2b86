"""SMILES reader producing validated molecular graphs.

Supports the organic subset, bracket atoms (isotope, charge, explicit
hydrogens, atom class), ring-closure digits including ``%nn``, branches and
dot-separated components. Stereochemistry markers (``/``, ``\\``, ``@``) are
accepted and discarded: nothing downstream consumes them. Every parse error
names the byte offset of the offending token.
"""

from __future__ import annotations

import re

from .model import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    VALENCES,
    AtomSpec,
    Bond,
    EmptyInput,
    MolecularGraph,
    SmilesSyntaxError,
    UnbalancedParenthesis,
    UnclosedRingBond,
    UnknownElement,
    assemble,
)

_BOND_CHARS = {
    "-": SINGLE,
    "=": DOUBLE,
    "#": TRIPLE,
    ":": AROMATIC,
    "/": SINGLE,  # stereo marker, kept as a plain single bond
    "\\": SINGLE,
}

_AROMATIC_BARE = {"b": "B", "c": "C", "n": "N", "o": "O", "p": "P", "s": "S"}
_AROMATIC_BRACKET = dict(_AROMATIC_BARE, se="Se", si="Si")

_BRACKET_RE = re.compile(
    r"^(?P<isotope>\d+)?"
    r"(?P<element>[A-Za-z][a-z]?)"
    r"(?P<chiral>@@|@)?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>\+\+|--|[+-]\d*)?"
    r"(?::(?P<cls>\d+))?$",
    re.ASCII,
)


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a :class:`MolecularGraph`.

    The returned graph has rings perceived, aromatic flags validated and
    hydrogen counts resolved. Raises :class:`EmptyInput`,
    :class:`UnknownElement`, :class:`UnbalancedParenthesis`,
    :class:`UnclosedRingBond`, :class:`ValenceViolation`,
    :class:`AromaticityViolation` or :class:`SmilesSyntaxError`, each
    carrying the byte offset. Ring-bond digits are ASCII ``0``-``9``.
    """
    if not text or not text.strip():
        raise EmptyInput("empty SMILES input", 0)
    if text != text.strip():
        raise SmilesSyntaxError("leading or trailing whitespace", 0)

    # Each atom is bonded as it is read, so only a ring closure can repeat
    # a bond or close onto its own atom; ``neighbours`` answers both.
    atoms: list[AtomSpec] = []
    bonds: list[Bond] = []
    neighbours: list[list[int]] = []
    prev = -1  # the atom the next one bonds to, -1 for none
    pending: str | None = None  # explicit bond symbol awaiting its atom
    pending_offset = -1
    branch_stack: list[tuple[int, int]] = []
    open_rings: dict[int, tuple[int, str | None, int]] = {}

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]

        if ch.isalpha() or ch == "[":
            if ch == "[":
                end = text.find("]", i)
                if end < 0:
                    raise SmilesSyntaxError("unclosed bracket atom", i)
                spec = _parse_bracket(text[i + 1 : end], i)
                width = end + 1 - i
            else:
                spec, width = _parse_bare(text, i)
            idx = len(atoms)
            atoms.append(spec)
            if prev >= 0:
                order = pending
                if order is None:
                    order = AROMATIC if spec.aromatic and atoms[prev].aromatic else SINGLE
                bonds.append(Bond(prev, idx, order))
                neighbours[prev].append(idx)
                neighbours.append([prev])
            else:
                if pending is not None:
                    raise SmilesSyntaxError(
                        "bond symbol without a preceding atom", pending_offset
                    )
                neighbours.append([])
            pending = None
            prev = idx
            i += width
        elif ch == "(":
            if prev < 0:
                raise SmilesSyntaxError("branch opens before any atom", i)
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before a branch opening", i)
            branch_stack.append((prev, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise UnbalancedParenthesis("unmatched ')'", i)
            if pending is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'", pending_offset)
            prev, _ = branch_stack.pop()
            i += 1
        elif ch in _BOND_CHARS:
            if pending is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending = _BOND_CHARS[ch]
            pending_offset = i
            i += 1
        elif ch == ".":
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before '.'", pending_offset)
            prev = -1
            i += 1
        elif "0" <= ch <= "9" or ch == "%":
            if ch == "%":
                digits = text[i + 1 : i + 3]
                if len(digits) < 2 or not (digits.isascii() and digits.isdigit()):
                    raise SmilesSyntaxError("'%' needs two digits", i)
                number = int(digits)
                width = 3
            else:
                number = ord(ch) - 48
                width = 1
            if prev < 0:
                raise SmilesSyntaxError("ring closure before any atom", i)
            if number in open_rings:
                other, other_sym, _ = open_rings.pop(number)
                order = pending
                if order is not None and other_sym is not None and order != other_sym:
                    raise SmilesSyntaxError(
                        f"conflicting bond symbols on ring closure {number}", i
                    )
                if order is None:
                    order = other_sym
                if order is None:
                    order = (
                        AROMATIC
                        if atoms[other].aromatic and atoms[prev].aromatic
                        else SINGLE
                    )
                if other == prev:
                    raise SmilesSyntaxError("ring bond closes onto its own atom", i)
                if prev in neighbours[other]:
                    raise SmilesSyntaxError("duplicate bond between the same atoms", i)
                bonds.append(Bond(other, prev, order))
                neighbours[other].append(prev)
                neighbours[prev].append(other)
            else:
                open_rings[number] = (prev, pending, i)
            pending = None
            i += width
        else:
            raise SmilesSyntaxError(f"unexpected character {ch!r}", i)

    if pending is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input", pending_offset)
    if branch_stack:
        raise UnbalancedParenthesis("unclosed '('", branch_stack[0][1])
    if open_rings:
        first = min(offset for _, _, offset in open_rings.values())
        raise UnclosedRingBond("unclosed ring-bond digit", first)
    if not atoms:
        raise EmptyInput("no atoms in SMILES input", 0)

    return assemble(atoms, bonds, neighbours, text)


def _parse_bare(text: str, i: int) -> tuple[AtomSpec, int]:
    ch = text[i]
    if ch in _AROMATIC_BARE:
        return AtomSpec(_AROMATIC_BARE[ch], True, 0, None, i), 1
    two = text[i : i + 2]
    if two == "Cl" or two == "Br":
        return AtomSpec(two, False, 0, None, i), 2
    if ch in ("B", "C", "N", "O", "P", "S", "F", "I"):
        return AtomSpec(ch, False, 0, None, i), 1
    raise UnknownElement(f"unknown element symbol {ch!r}", i)


def _parse_bracket(body: str, bracket_offset: int) -> AtomSpec:
    match = _BRACKET_RE.match(body)
    if not match:
        raise SmilesSyntaxError(f"malformed bracket atom [{body}]", bracket_offset)
    raw = match.group("element")
    offset = bracket_offset + 1 + len(match.group("isotope") or "")
    if raw in _AROMATIC_BRACKET:
        element, aromatic = _AROMATIC_BRACKET[raw], True
    elif raw in VALENCES:
        element, aromatic = raw, False
    else:
        raise UnknownElement(f"unsupported element {raw!r}", offset)

    hcount = match.group("hcount")
    if hcount is None:
        explicit_h = 0
    elif hcount == "H":
        explicit_h = 1
    else:
        explicit_h = int(hcount[1:])

    charge_text = match.group("charge")
    if charge_text is None:
        charge = 0
    elif charge_text == "++":
        charge = 2
    elif charge_text == "--":
        charge = -2
    elif charge_text in ("+", "-"):
        charge = 1 if charge_text == "+" else -1
    else:
        charge = int(charge_text[1:]) * (1 if charge_text[0] == "+" else -1)

    # Isotope and atom class are parsed and ignored; no downstream feature
    # consumes them.
    return AtomSpec(element, aromatic, charge, explicit_h, bracket_offset)
