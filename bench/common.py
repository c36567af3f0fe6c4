"""Shared pieces of the workloads: ops, canonical output text, and checks."""

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import mpmath as mp
import numpy as np

from finfree.poly import Polynomial

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(BENCH_DIR, "digests.json")
OUT_DIR = os.path.join(BENCH_DIR, "_out")


@dataclass
class Op:
    """One operation of a workload.

    `run(env)` does the timed work; `env` maps earlier op names to their
    outputs, so an op may consume what an earlier one built.  The output is a
    dict; its "exact" entry, when present, is a lossless value whose
    canonical text is compared against the recorded digest for `key`.
    `check(out, env, acc)` re-derives the output by an independent route and
    returns a list of failure messages; it runs after the timed phase.
    """

    name: str
    key: str
    size: tuple
    run: Callable
    check: Callable = field(default=lambda out, env, acc: [])


@dataclass
class Slot:
    """A position in a workload: fixed sizes, parameters drawn from a pool."""

    name: str
    pool: list
    make: Callable  # make(params) -> list of Ops


def build(slots, workload, seed):
    """Draw one pool entry per slot from the seed; same seed, same ops."""
    import random

    rng = random.Random(f"{workload}:{seed}")
    return [op for slot in slots for op in slot.make(rng.choice(slot.pool))]


def key_of(name, size, params):
    return f"{name}|{','.join(map(str, size))}|{canon(params)}"


# -- canonical text -----------------------------------------------------------


def canon(x):
    """Deterministic text for an output; binary-exact for mpmath and floats."""
    if isinstance(x, Polynomial):
        return x.to_json() if x.exact else "P" + canon(list(x.e))
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return repr(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return f"({x.real.hex()},{x.imag.hex()})"
    if isinstance(x, mp.mpf):
        return repr(x._mpf_)
    if isinstance(x, mp.mpc):
        return f"({repr(x.real._mpf_)},{repr(x.imag._mpf_)})"
    if isinstance(x, np.ndarray):
        return "A" + canon(x.tolist())
    if isinstance(x, np.generic):
        return canon(x.item())
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if hasattr(x, "__dataclass_fields__"):
        return type(x).__name__ + canon({k: getattr(x, k) for k in x.__dataclass_fields__})
    if hasattr(x, "coeffs"):  # AlgebraicCurve
        return "curve" + canon(x.coeffs)
    return repr(x)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    try:
        with open(DIGEST_FILE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# -- accuracy bookkeeping -------------------------------------------------------


class Accuracy:
    """Worst-case accuracy figures gathered by the checks."""

    def __init__(self):
        self.bits_min = None
        self.ks_max = None
        self.orth_max = None
        self.density_max = None

    def note(self, attr, value, worst=max):
        old = getattr(self, attr)
        setattr(self, attr, value if old is None else worst(old, value))

    def as_dict(self):
        return {
            "roots.bits_min": self.bits_min,
            "roots.ks_max": self.ks_max,
            "mop.orth_residual_max": self.orth_max,
            "curves.density_err_max": self.density_max,
        }


# -- root checks ----------------------------------------------------------------


def _mono_mpf(poly):
    return [mp.mpf(c.numerator) / c.denominator for c in poly.to_monomial()]


def root_certificate(poly, roots, prec, real=False):
    """Check roots of an exact polynomial against its coefficients.

    Evaluates at four times the roots' working precision, from the exact
    coefficients:

    * the Adams residual bound at the requested precision `prec`:
      |p(z)| <= 4 deg 2^-prec sum |c_k| |z|^k for every root;
    * the inclusion radius r_i = deg |p(z_i)| / |a_n prod_{j != i} (z_i - z_j)|;
      the discs of these radii contain all roots, and a disc meeting no
      other disc holds exactly one;
    * with `real`, that no disc meets another disc or the mirror image of
      another disc, which proves every root real.

    Returns (bits, failures), where bits is the smallest -log2(r_i / |z_i|).
    """
    failures = []
    deg = len(roots)
    if deg != poly.degree:
        return 0.0, [f"{deg} roots for degree {poly.degree}"]
    with mp.workprec(4 * (prec + 32)):
        cs = _mono_mpf(poly)[: deg + 1]
        lead = cs[-1]
        zs = [mp.mpc(z) for z in roots]
        radii = []
        worst_adams = mp.mpf(0)
        for i, z in enumerate(zs):
            pv, s, az = cs[-1], abs(cs[-1]), abs(z)
            for c in reversed(cs[:-1]):
                pv = pv * z + c
                s = s * az + abs(c)
            if s:
                worst_adams = max(worst_adams, abs(pv) / (s * 4 * deg * mp.mpf(2) ** (-prec)))
            prod = lead
            for j, w in enumerate(zs):
                if j != i:
                    prod *= z - w
            if prod == 0:
                return 0.0, [f"coincident root approximations at {mp.nstr(z, 8)}"]
            radii.append(deg * abs(pv) / abs(prod))
        if worst_adams > 1:
            failures.append(f"residual {mp.nstr(worst_adams, 3)}x above the {prec}-bit Adams bound")
        bits = []
        for z, r in zip(zs, radii):
            if r == 0:
                continue
            bits.append(float(-mp.log(r / abs(z) if abs(z) else r, 2)))
        if real:
            for i in range(deg):
                for j in range(deg):
                    if i == j:
                        continue
                    gap = radii[i] + radii[j]
                    if abs(zs[i] - zs[j]) <= gap or abs(mp.conj(zs[i]) - zs[j]) <= gap:
                        failures.append(f"inclusion discs {i} and {j} overlap; real roots not certified")
                        return (min(bits) if bits else float("inf")), failures
    return (min(bits) if bits else float("inf")), failures


def roots_csv(roots):
    """The `index,re,im` text that `finfree roots` and `finfree mop --emit` write."""
    rows = sorted(((float(z.real), float(z.imag)) for z in roots), key=lambda t: (t[0], t[1]))
    lines = ["index,re,im"] + [f"{i},{re!r},{im!r}" for i, (re, im) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def hist_csv(rows):
    lines = ["bin_lo,bin_hi,count,density"] + [f"{lo!r},{hi!r},{c},{d!r}" for lo, hi, c, d in rows]
    return "\n".join(lines) + "\n"


def json_roundtrip(text, expected):
    """Failures unless `text` is exactly expected's JSON and parses back to it."""
    out = []
    if text != expected.to_json() + "\n":
        out.append("polynomial JSON differs from the API result")
    back = Polynomial.from_json(text)
    if back != expected or back.to_json() != text.rstrip("\n"):
        out.append("polynomial JSON does not round-trip bit-exactly")
    return out
