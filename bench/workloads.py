"""Seeded input generators and the settings of each benchmark workload.

Every generator takes a ``random.Random`` and returns fact-file text plus
the facts about it that the generator itself knows (for example how many
``parent`` facts it dropped), so checks never depend on ``alp`` to say what
the right answer is.  Nothing here imports ``alp``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The knowledge base of Fig. 1 of the paper, copied verbatim.
FIG1_TEXT = """\
father(vader,luke).
father(vader,leia).
mother(padme,luke).
mother(padme,leia).
married(vader,padme).
saber(vader,red).
saber(luke,green).
jedi(luke).
jedi(leia).
"""

# One fixed encoder/decoder program for family KBs.  On a KB from
# ``family_kb`` it reconstructs father, mother, male and jedi exactly and
# reconstructs parent as the union of father and mother, so its loss is
# exactly the number of parent facts the generator dropped.
FAMILY_PROGRAM = """\
#encoder
latent_1(X,Y) :- father(X,Y).
latent_2(X,Y) :- mother(X,Y).
latent_3(X) :- male(X).
latent_4(X) :- jedi(X).
#decoder
father(X,Y) :- latent_1(X,Y).
mother(X,Y) :- latent_2(X,Y).
parent(X,Y) :- latent_1(X,Y);latent_2(X,Y).
male(X) :- latent_3(X).
jedi(X) :- latent_4(X).
"""


@dataclass(frozen=True)
class Generated:
    text: str
    facts: int
    dropped_parent: int = 0


def _lines(facts: list[str]) -> str:
    return "".join(f"{f}.\n" for f in facts)


def family_kb(
    rng: random.Random,
    couples: int,
    generations: int,
    drop: float = 0.15,
    jedi: float = 0.2,
) -> Generated:
    """A noisy family tree of ``generations`` generations of ``2 * couples``
    people each.

    Every couple has one son and one daughter; each new generation pairs its
    sons and daughters into couples at random.  Everyone male is listed under
    ``male``.  ``father`` and ``mother`` are complete; ``parent`` is their
    union with ``round(drop * n)`` facts dropped at random; ``jedi`` holds
    ``round(jedi * people)`` people drawn at random.
    """
    width = len(str(2 * couples * generations - 1))
    serial = iter(range(2 * couples * generations))
    names = [f"p{i:0{width}d}" for i in range(2 * couples * generations)]
    rng.shuffle(names)
    pairs = [(names[next(serial)], names[next(serial)]) for _ in range(couples)]
    males = [f for f, _ in pairs]
    facts: list[str] = []
    parents: list[str] = []
    for _ in range(generations - 1):
        sons, daughters = [], []
        for father, mother in pairs:
            for kids in (sons, daughters):
                child = names[next(serial)]
                kids.append(child)
                facts += [f"father({father},{child})", f"mother({mother},{child})"]
                parents += [f"parent({father},{child})", f"parent({mother},{child})"]
        rng.shuffle(daughters)
        pairs = list(zip(sons, daughters))
        males += sons
    dropped = set(rng.sample(range(len(parents)), round(len(parents) * drop)))
    facts += [p for i, p in enumerate(parents) if i not in dropped]
    facts += [f"male({p})" for p in sorted(males)]
    facts += [f"jedi({p})" for p in sorted(rng.sample(names, round(len(names) * jedi)))]
    return Generated(_lines(facts), len(facts), len(dropped))


def small_family_kb(rng: random.Random, shape: int) -> Generated:
    """Father, mother and one child, with both parent facts: 5 to 7 facts
    in one of 8 shapes.

    ``shape`` picks whether the child is male and who, if anyone, is a jedi.
    Names are drawn at random.
    """
    father, mother, child = rng.sample([f"q{i:02d}" for i in range(100)], 3)
    facts = [
        f"father({father},{child})", f"mother({mother},{child})",
        f"parent({father},{child})", f"parent({mother},{child})", f"male({father})",
    ]
    if shape % 2:
        facts.append(f"male({child})")
    jedi = (None, father, mother, child)[shape // 2 % 4]
    if jedi:
        facts.append(f"jedi({jedi})")
    return Generated(_lines(facts), len(facts))


@dataclass(frozen=True)
class LearnSettings:
    """Arguments of one ``alp.pipeline.learn`` call, as plain data.

    Every workload runs a fixed, small number of LNS iterations so that one
    call stays around a second and a run holds many calls."""

    gamma: str
    max_dec_len: int

    def gen(self) -> dict:
        return {"max_decoder_body_len": self.max_dec_len}

    def search(self) -> dict:
        return {"iterations": 20, "fail_limit": 1000, "seed": 0}


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in ``BENCHMARK.json``."""

    name: str
    learn: LearnSettings
    # Wall seconds one learn call may take, well clear of every call time, so
    # that the same calls miss it on every run.  On family-dec1 about one KB
    # in twenty falls into the seed's fallback search, which ends within 1 to
    # 16 s there on a 2-core x86_64 VM; on Fig. 1 at the default bias it runs
    # for minutes.
    deadline_s: float
    make_kbs: Callable[[random.Random], list[Generated]]  # the learn inputs


def _family_dec1(rng):
    return [family_kb(rng, couples=4, generations=3) for _ in range(24)]


def _family_large(rng):
    return family_kb(rng, couples=200, generations=4)


def _default_bias(rng):
    fig1 = Generated(FIG1_TEXT, FIG1_TEXT.count("\n"))
    return [fig1] + [small_family_kb(rng, k % 8) for k in range(12)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("family-dec1", LearnSettings("0.5", 1), 60.0, _family_dec1),
        Workload("default-bias", LearnSettings("2", 2), 8.0, _default_bias),
    )
}


def generate(workload: Workload, seed: int) -> tuple[list[Generated], Generated]:
    """The workload's learn inputs and the large family KB that ``apply_s``
    runs FAMILY_PROGRAM over."""
    rng = random.Random(f"{workload.name}:{seed}")
    kbs = workload.make_kbs(rng)
    return kbs, _family_large(rng)
