"""Periodic-table data and valence rules shared by the SMILES machinery."""

from __future__ import annotations

# Symbols accepted in bracket atoms, mapped to atomic numbers. Atomic numbers
# double as stable integer codes when atom environments are hashed.
PERIODIC_TABLE: dict[str, int] = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Sc": 21, "Ti": 22,
    "V": 23, "Cr": 24, "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29,
    "Zn": 30, "Ga": 31, "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36,
    "Rb": 37, "Sr": 38, "Y": 39, "Zr": 40, "Nb": 41, "Mo": 42, "Tc": 43,
    "Ru": 44, "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49, "Sn": 50,
    "Sb": 51, "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56, "La": 57,
    "Ce": 58, "Pr": 59, "Nd": 60, "Pm": 61, "Sm": 62, "Eu": 63, "Gd": 64,
    "Tb": 65, "Dy": 66, "Ho": 67, "Er": 68, "Tm": 69, "Yb": 70, "Lu": 71,
    "Hf": 72, "Ta": 73, "W": 74, "Re": 75, "Os": 76, "Ir": 77, "Pt": 78,
    "Au": 79, "Hg": 80, "Tl": 81, "Pb": 82, "Bi": 83, "Po": 84, "At": 85,
    "Rn": 86, "Fr": 87, "Ra": 88, "Ac": 89, "Th": 90, "Pa": 91, "U": 92,
    "Np": 93, "Pu": 94, "Am": 95, "Cm": 96, "Bk": 97, "Cf": 98, "Es": 99,
    "Fm": 100, "Md": 101, "No": 102, "Lr": 103, "Rf": 104, "Db": 105,
    "Sg": 106, "Bh": 107, "Hs": 108, "Mt": 109, "Ds": 110, "Rg": 111,
    "Cn": 112, "Nh": 113, "Fl": 114, "Mc": 115, "Lv": 116, "Ts": 117,
    "Og": 118,
}

# Atoms writable without brackets.
ORGANIC_SUBSET = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})

# Lowercase one-letter symbols that denote aromatic atoms.
AROMATIC_SYMBOLS = frozenset({"b", "c", "n", "o", "p", "s"})

# Symbols accepted in bracket atoms: every element, the aromatic ones above
# and the bracket-only aromatic "se" and "as" of OpenSMILES.
BRACKET_SYMBOLS = frozenset(PERIODIC_TABLE) | AROMATIC_SYMBOLS | {"se", "as"}

# Two-letter symbols recognised outside brackets.
TWO_LETTER_ORGANIC = ("Cl", "Br")

# Standard valences used to assign implicit hydrogens to unbracketed
# organic-subset atoms. Multi-valent elements list alternatives low to high;
# the smallest valence that accommodates the explicit bond order sum wins.
DEFAULT_VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}


def atomic_number(symbol: str) -> int:
    """Atomic number for ``symbol``; raises ``KeyError`` for unknown symbols."""
    return PERIODIC_TABLE[symbol]
