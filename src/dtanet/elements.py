"""Periodic-table data and valence rules shared by the SMILES machinery."""

from __future__ import annotations

# Element symbols by atomic number (index 0 is no element). Atomic numbers
# are the element column of a molecule table and double as stable integer
# codes when atom environments are hashed.
SYMBOLS: tuple[str, ...] = ("", *"""
    H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co
    Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb
    Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os
    Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm
    Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og""".split())

# Symbols accepted in bracket atoms, mapped to atomic numbers.
PERIODIC_TABLE: dict[str, int] = {s: z for z, s in enumerate(SYMBOLS) if s}

# Atoms writable without brackets.
ORGANIC_SUBSET = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})

# Lowercase one-letter symbols that denote aromatic atoms.
AROMATIC_SYMBOLS = frozenset({"b", "c", "n", "o", "p", "s"})

# Symbols accepted in bracket atoms: every element, the aromatic ones above
# and the bracket-only aromatic "se" and "as" of OpenSMILES.
BRACKET_SYMBOLS = frozenset(PERIODIC_TABLE) | AROMATIC_SYMBOLS | {"se", "as"}

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
