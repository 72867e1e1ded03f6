"""A seeded corpus of small quiver families, made with the standard library's
``random`` alone and no data files.

Family ``seed`` has 1-3 vertices and 1-3 arrows between vertices drawn at
random, so loops and parallel arrows occur, and no relations.  Its 1-4
members have dimension 0-3 at each vertex and arrow-matrix entries drawn
from -2..2.  Nothing is asked of a member: zero, decomposable and undecided
members are drawn as often as they come, so the corpus meets the refusals as
well as the answers.
"""

import random

from endoscope.linalg import Mat
from endoscope.quiver import AlgebraPresentation, Quiver
from endoscope.reps import Representation


def corpus_family(seed: int) -> list[Representation]:
    """The members of family ``seed``, all over one presentation."""
    rng = random.Random(seed)
    vertices = [str(v) for v in range(1, rng.randint(1, 3) + 1)]
    arrows = [(f"a{k}", rng.choice(vertices), rng.choice(vertices)) for k in range(rng.randint(1, 3))]
    presentation = AlgebraPresentation(Quiver(vertices, arrows))
    members = []
    for _ in range(rng.randint(1, 4)):
        dims = {v: rng.randint(0, 3) for v in vertices}
        matrices = {
            name: Mat([[rng.randint(-2, 2) for _ in range(dims[s])] for _ in range(dims[t])], dims[t], dims[s])
            for name, s, t in arrows
        }
        members.append(Representation(presentation, dims, matrices))
    return members
