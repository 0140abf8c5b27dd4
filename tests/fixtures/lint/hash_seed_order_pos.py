"""Fixture: walk order picks the hash() call hash-seed points at.

The seed holds two hash() calls.  The detector reports the first one in
``ast.walk`` order, which is breadth-first: ``hash(b)`` (column 38) sits
one level shallower than ``hash(a)`` (column 27), so a depth-first walk
would report ``hash(a)`` instead.
"""

import random


def g(value):
    return value


def rng_for(a, b):
    return random.Random(g(hash(a)) + hash(b))
