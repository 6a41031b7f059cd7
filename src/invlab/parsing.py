"""Literals for the command line: complex numbers, domains, CSV rows.

Complex literal grammar: ``a``, ``bi``, ``a+bi``, ``a-bi`` with decimal or
scientific components; a bare ``i`` (optionally signed) means the unit.
Domain literals: ``disc``, ``halfplane``, ``halfdisc:r=<r>``, ``ball:n=<n>``,
``polydisc:r=<r1>,<r2>,...``, ``ellipsoid:p=<p1>,<p2>``, and
``cap(<domain>;c=<point>;r=<r>)`` for ball intersections.

Floats print with 17 significant digits so CSV round-trips doubles exactly;
``csv_line`` formats every CSV row the CLI and the experiment scripts write.
"""

from __future__ import annotations

import numpy as np

from . import geometry


def parse_complex(text: str) -> complex:
    """Parse a complex literal of the form a, bi, or a+bi."""
    s = text.strip()
    if not s:
        raise ValueError("empty complex literal")
    try:
        if not s.endswith("i"):
            return complex(float(s), 0.0)
        body = s[:-1]
        split = 0
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        real_part, imag_part = body[:split], body[split:]
        if imag_part in ("", "+"):
            imag = 1.0
        elif imag_part == "-":
            imag = -1.0
        else:
            imag = float(imag_part)
        real = float(real_part) if real_part else 0.0
        return complex(real, imag)
    except ValueError:
        raise ValueError(f"malformed complex literal {text!r}") from None


def parse_point(text: str) -> np.ndarray:
    """Comma-separated complex literals as a coordinate array."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty point literal")
    return np.array([parse_complex(p) for p in parts], dtype=complex)


def _split_top(text: str, sep: str) -> list[str]:
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return out


def parse_domain(text: str) -> geometry.Domain:
    s = text.strip()
    if s == "disc":
        return geometry.UnitDisc()
    if s == "halfplane":
        return geometry.HalfPlane()
    if s.startswith("halfdisc:r="):
        return geometry.HalfDiscScaled(float(s[len("halfdisc:r=") :]))
    if s.startswith("ball:n="):
        return geometry.Ball(int(s[len("ball:n=") :]))
    if s.startswith("polydisc:r="):
        radii = tuple(float(p) for p in s[len("polydisc:r=") :].split(","))
        return geometry.Polydisc(radii)
    if s.startswith("ellipsoid:p="):
        exps = tuple(float(p) for p in s[len("ellipsoid:p=") :].split(","))
        return geometry.ReinhardtEllipsoid(exps)
    if s.startswith("cap(") and s.endswith(")"):
        parts = _split_top(s[4:-1], ";")
        if len(parts) != 3 or not parts[1].strip().startswith("c=") or not parts[
            2
        ].strip().startswith("r="):
            raise ValueError(f"malformed cap literal {text!r}")
        base = parse_domain(parts[0])
        center = parse_point(parts[1].strip()[2:])
        radius = float(parts[2].strip()[2:])
        return geometry.intersect_with_ball(base, center, radius)
    raise ValueError(f"unknown domain literal {text!r}")


def format_float(x: float) -> str:
    """17 significant digits with a dot separator; round-trip exact for doubles."""
    return format(float(x), ".17g")


def format_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}i"


def csv_line(*cells) -> str:
    """One CSV row with its newline: floats and complex numbers at full
    precision, None as an empty cell, anything else through str."""
    return ",".join(
        "" if c is None
        else format_float(c) if isinstance(c, float)
        else format_complex(c) if isinstance(c, complex)
        else str(c)
        for c in cells
    ) + "\n"
