"""SHA-256 pins of `hyper_poly` on negated arguments.

The argument -(s x + t) is written `scale = -s, shift = -t`.  These digests
were recorded from an earlier spelling of the same arguments, a sign flag
beside scale = s and shift = t, on every such spec that the library, the
demos and the identity suite build, and on a seeded table of affine
arguments: the polynomials, to the byte, do not depend on the spelling.
"""

import hashlib
import random
from fractions import Fraction as F

import finfree.verify as verify
from finfree.hyper import Add, HypergeometricSpec, KdFSpec, Leaf, Mult, Rev, _swapped_spec, hyper_poly, kdf_factorize


def _digest(specs):
    h = hashlib.sha256()
    for spec in specs:
        h.update(hyper_poly(spec).to_json().encode() + b"\n")
    return h.hexdigest()


def _leaves(node):
    if isinstance(node, Leaf):
        yield node.spec
    elif isinstance(node, Mult):
        yield from _leaves(node.left)
        yield from _leaves(node.right)
    elif isinstance(node, Add):
        for term in node.terms:
            yield from _leaves(term)
    elif isinstance(node, Rev):
        yield from _leaves(node.inner)


def test_one_mode_kdf_leaves_are_pinned():
    specs = [
        KdFSpec(n=4, a0=(F(1, 3),), b0=(F(13, 2),), groups=(((F(2, 5),), (F(36, 7),)),), c=(F(3),)),
        KdFSpec(
            n=5, a0=(F(-5, 7),), b0=(F(40, 7),),
            groups=(((F(3, 7),), (F(38, 7),)), ((F(9, 2),), ())), c=(F(-2, 3), F(5)),
        ),
        KdFSpec(
            n=3, a0=(), b0=(F(9, 2),),
            groups=(((), (F(11, 3),)), ((F(1, 2),), (F(6),)), ((F(-3, 2),), ())), c=(F(1, 2), F(-1), F(7, 4)),
        ),
    ]
    leaves = [leaf for spec in specs for leaf in _leaves(kdf_factorize(spec, "one")[0])]
    assert _digest(leaves) == "0e613ca671767542d2d2723f4e79cb0595acbf9540d604a4d041b6f3f02944b5"


def test_swapped_specs_of_both_parities_are_pinned():
    args = [
        (5, (F(1, 3),), (), F(1)),
        (4, (), (F(7, 2),), F(-3, 2)),
        (6, (F(2, 7), F(5, 3)), (F(9, 2),), F(4)),
        (3, (F(1, 2),), (F(5, 2), F(7, 3), F(11, 3)), F(1, 5)),
    ]
    specs = [_swapped_spec(*a) for a in args]
    assert _digest(specs) == "2500ee62096112518aa3ca6345fcd3c6e115de823fe0c4a39baca6996d945dd7"


def test_demo_factor_on_minus_x_is_pinned():
    t2 = HypergeometricSpec(n=4, b=(F(3),), scale=-1)  # demos/convolution_identities.py
    assert _digest([t2]) == "d676c930ea5ab7905bfadf14e4f2e740aeeb1b632ad752575ed85bcbee45b644"


def test_identity_suite_specs_are_pinned(monkeypatch):
    built = []

    class Recording(HypergeometricSpec):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(verify, "HypergeometricSpec", Recording)
    assert all(ok for _, ok, _ in verify.suite_identities())
    assert len(built) == 600
    assert _digest(built) == "e406cbe8b6db314930b48b36bb4ab73a78f7ceed2616b7d6f0ebffd5cdbb965c"


def test_negated_affine_arguments_are_pinned():
    rng = random.Random(29)
    specs = []
    for scale in (F(-3), F(-1), F(1, 2), F(2)):
        for _ in range(6):
            n = rng.randint(1, 7)
            a = tuple(rng.randint(-4, 6) + F(rng.randint(1, 6), 7) for _ in range(rng.randint(0, 2)))
            b = tuple(rng.randint(0, 6) + F(rng.randint(1, 6), 7) for _ in range(rng.randint(0, 2)))
            shift = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5)))
            specs.append(HypergeometricSpec(n=n, a=a, b=b, scale=-scale, shift=-shift))
    assert _digest(specs) == "36e5e9ccd0778a4680907ac0da30b8bdf64f9c5cfdfc5a5273477421c6876995"
