"""Shared builders: the bundled fixture files are the single source of truth
for the worked examples, so tests parse them rather than duplicating tables."""

from fractions import Fraction

from cfkit import corpus
from cfkit.deform import DeformationMap, Morphism
from cfkit.dsl import Document, parse_document
from cfkit.poly import MultiPoly


def load_fixture(name: str, **params) -> Document:
    text = (corpus.fixture_dir(name) / "input.cfk").read_text()
    bound = {k: Fraction(str(v)) for k, v in params.items()}
    return parse_document(text, bound)


def wab_doc(a, b, c=0) -> Document:
    return load_fixture("wab", a=a, b=b, c=c)


def sv_doc(a=0, b=0, **extra) -> Document:
    a = Fraction(str(a))
    ai = extra.pop("ai", 1 if a == 0 else 1 / a)
    c = extra.pop("c", 0 if a == 0 else Fraction(str(b)) / a)
    return load_fixture("sv", a=a, b=b, c=c, ai=ai)


def nfold_doc(b=2, a1=1, a2=0, a3=-2) -> Document:
    return load_fixture("nfold", b=b, a1=a1, a2=a2, a3=a3)


def assoc4_doc(p=0, q=0, r=0, s=0) -> Document:
    return load_fixture("assoc4", p=p, q=q, r=r, s=s)


def vir_algebra():
    return load_fixture("vir").find("algebra", "Vir")


def zero_map(pair) -> DeformationMap:
    zero = MultiPoly.zero()
    matrix = tuple((zero,) * pair.R.rank for _ in range(pair.Q.rank))
    return DeformationMap(pair, matrix)


def identity_morphism(algebra) -> Morphism:
    n = algebra.rank
    zero = MultiPoly.zero()
    one = MultiPoly.const(1)
    matrix = tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )
    return Morphism(algebra, algebra, matrix)
