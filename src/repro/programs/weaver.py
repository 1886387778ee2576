"""Weaver — the 637-rule VLSI routing program (Joobbani & Siewiorek's
knowledge-based router in the paper).

The original expert system was never distributed; this is a synthetic
equivalent with the same *static shape* (a ~640-production rule base in
which only a small working set is active at a time) and the same
*dynamic shape* the paper reports: the largest of the three programs,
moderate per-node memory sizes, wide per-change fan-out, and mid-range
parallel speed-up (≈4× with one task queue, ≈8× with eight).

The program is a Lee-style maze router driven entirely by rules:

* the grid, blockages and net list live in working memory;
* *expansion* rules grow a cost wavefront from each net's source —
  one rule per (net-class × cost-band × direction), generated exactly
  the way Weaver's knowledge base specialized its routing knowledge by
  region and strategy;
* *acceptance* rules admit candidate cells onto the frontier (in-grid,
  unblocked, unvisited), *rejection* rules discard the rest;
* *arrival* rules detect the wavefront reaching the target, and
  *cleanup* rules sweep the per-net scaffolding before the next net;
* *audit* rules (never firing in a correct run) watch for double
  visits and frontier/visited inconsistencies.

Rule-count arithmetic (defaults): with ``n_classes=8`` net classes,
``n_bands=12`` cost bands and 4 directions the generator emits
8×12×4 = 384 expansion rules + 8×12 = 96 acceptance rules +
12×4 = 48 rejection rules + 8 arrival + 94 audit monitors + 7
control/cleanup rules = **637 productions**, the paper's exact count
matched by construction (see ``n_rules``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

DEFAULT_CLASSES = 8
DEFAULT_BANDS = 12
DEFAULT_GRID = 11
DEFAULT_NETS = 4

_DIRS = (("north", 0, 1), ("south", 0, -1), ("east", 1, 0), ("west", -1, 0))


def _band_bounds(band: int, band_width: int = 3) -> Tuple[int, int]:
    return band * band_width, band * band_width + band_width - 1


def _band_guard(band: int, n_bands: int) -> str:
    """Cost-band test; the top band is open-ended so depth-first cost
    growth can never escape every rule's coverage."""
    lo, hi = _band_bounds(band)
    if band == n_bands - 1:
        return f"^cost {{ <c> >= {lo} }}"
    return f"^cost {{ <c> >= {lo} <= {hi} }}"


def expansion_rule(klass: int, band: int, n_bands: int, dname: str, dx: int, dy: int) -> str:
    """Grow the wavefront one step in one direction for one cost band."""
    return f"""
(p expand-c{klass}-b{band}-{dname}
  (frontier ^net <n> ^x <x> ^y <y> {_band_guard(band, n_bands)})
  (net ^id <n> ^class c{klass} ^state routing)
  (router ^current <n> ^state expand)
  -->
  (make cand ^net <n> ^x (compute <x> + {dx}) ^y (compute <y> + {dy})
        ^cost (compute <c> + 1)))"""


def acceptance_rule(klass: int, band: int, n_bands: int) -> str:
    """Admit an in-grid, unblocked, unvisited candidate onto the frontier."""
    return f"""
(p accept-c{klass}-b{band}
  (cand ^net <n> ^x <x> ^y <y> {_band_guard(band, n_bands)})
  (cell ^x <x> ^y <y> ^blocked no)
  (net ^id <n> ^class c{klass} ^state routing)
  (router ^current <n> ^state expand)
  - (visited ^net <n> ^x <x> ^y <y>)
  -->
  (remove 1)
  (make visited ^net <n> ^x <x> ^y <y>)
  (make frontier ^net <n> ^x <x> ^y <y> ^cost <c>))"""


def rejection_rules(band: int, n_bands: int, grid: int) -> List[str]:
    """Discard candidates that fall off the grid, hit blockages, or
    land on already-visited cells (per cost band, like Weaver's
    per-region bookkeeping rules)."""
    guard = _band_guard(band, n_bands)
    return [
        f"""
(p reject-blocked-b{band}
  (cand ^net <n> ^x <x> ^y <y> {guard})
  (cell ^x <x> ^y <y> ^blocked yes)
  -->
  (remove 1))""",
        f"""
(p reject-visited-b{band}
  (cand ^net <n> ^x <x> ^y <y> {guard})
  (visited ^net <n> ^x <x> ^y <y>)
  -->
  (remove 1))""",
        f"""
(p reject-low-b{band}
  (cand ^net <n> ^x << -1 {grid} >> {guard})
  -->
  (remove 1))""",
        f"""
(p reject-high-b{band}
  (cand ^net <n> ^y << -1 {grid} >> {guard})
  -->
  (remove 1))""",
    ]


def arrival_rule(klass: int) -> str:
    """The wavefront reached the target: mark the net routed."""
    return f"""
(p arrive-c{klass}
  (net ^id <n> ^class c{klass} ^state routing ^tx <x> ^ty <y>)
  (frontier ^net <n> ^x <x> ^y <y>)
  (router ^current <n> ^state expand)
  -->
  (modify 1 ^state routed)
  (modify 3 ^state cleanup)
  (write net <n> routed at <x> <y>))"""


AUDIT_RULES = 94


def audit_rule(index: int, n_classes: int) -> str:
    """One never-firing consistency monitor.

    Like Rubik's monitor productions, these model the large inactive
    portion of a real expert system's rule base: they take real match
    traffic on every ``visited``/``frontier`` change without ever
    firing (``(never)`` is asserted at startup) and without building up
    join state:

    * even-indexed monitors pair a visited cell with an *impossibly
      cheap* frontier entry on the same cell — the constant test keeps
      the opposite memory empty, so every visited change costs one
      null two-input activation per monitor (wide, cheap fan-out);
    * odd-indexed monitors anchor on the handful of near-source
      frontier cells and scan the visited cells of the same column, so
      they contribute genuine moderate-size opposite-memory scans (the
      paper's Weaver examines ~8-10 tokens per activation).
    """
    klass = index % n_classes
    if index % 2 == 0:
        return f"""
(p audit-{index}
  (visited ^net <n> ^x <a> ^y <b>)
  (frontier ^net <n> ^x <a> ^y <b> ^cost < 0)
  (net ^id <n> ^class c{klass})
  - (never)
  -->
  (make error ^kind audit-{index})
  (halt))"""
    pred = (">", "<", ">=", "<=")[(index // 2) % 4]
    anchor = 2 + (index // 8) % 4
    return f"""
(p audit-{index}
  (frontier ^net <n> ^x <a> ^y <b> ^cost <= {anchor})
  (visited ^net <n> ^x <a> ^y {pred} <b>)
  (net ^id <n> ^class c{klass})
  - (never)
  -->
  (make error ^kind audit-{index})
  (halt))"""


_CONTROL = """
(p pick-net
  (router ^current none ^state idle)
  (net ^id <n> ^state waiting ^sx <x> ^sy <y>)
  -->
  (modify 1 ^current <n> ^state expand)
  (modify 2 ^state routing)
  (make visited ^net <n> ^x <x> ^y <y>)
  (make frontier ^net <n> ^x <x> ^y <y> ^cost 0))

(p expand-exhausted
  (router ^current <n> ^state expand)
  - (cand ^net <n>)
  - (frontier ^net <n>)
  -->
  (modify 1 ^state cleanup)
  (write net <n> unroutable))

(p clear-frontier
  (router ^current <n> ^state cleanup)
  (frontier ^net <n>)
  -->
  (remove 2))

(p clear-cand
  (router ^current <n> ^state cleanup)
  (cand ^net <n>)
  -->
  (remove 2))

(p clear-visited
  (router ^current <n> ^state cleanup)
  (visited ^net <n>)
  -->
  (remove 2))

(p cleanup-done
  (router ^current <n> ^state cleanup)
  - (frontier ^net <n>)
  - (cand ^net <n>)
  - (visited ^net <n>)
  -->
  (modify 1 ^current none ^state idle))

(p all-routed
  (router ^current none ^state idle)
  - (net ^state waiting)
  -->
  (modify 1 ^state done)
  (write routing complete)
  (halt))
"""


def startup_block(
    grid: int, nets: Sequence[Tuple[int, int, int, int, int]], blocked: Sequence[Tuple[int, int]]
) -> str:
    """Initial WM: the cell grid, blockages, nets, router control."""
    blocked_set = set(blocked)
    lines = ["(startup"]
    for x in range(grid):
        for y in range(grid):
            b = "yes" if (x, y) in blocked_set else "no"
            lines.append(f"  (make cell ^x {x} ^y {y} ^blocked {b})")
    for i, (klass, sx, sy, tx, ty) in enumerate(nets, start=1):
        lines.append(
            f"  (make net ^id {i} ^class c{klass} ^state waiting"
            f" ^sx {sx} ^sy {sy} ^tx {tx} ^ty {ty})"
        )
    lines.append("  (make never)")
    lines.append("  (make router ^current none ^state idle))")
    return "\n".join(lines)


def default_layout(grid: int = DEFAULT_GRID, n_nets: int = DEFAULT_NETS):
    """A deterministic net list and blockage pattern."""
    nets = []
    for i in range(n_nets):
        klass = i % DEFAULT_CLASSES
        sx, sy = 1 + i % (grid - 2), 1
        tx, ty = grid - 2 - (i % (grid - 3)), grid - 2
        nets.append((klass, sx, sy, tx, ty))
    blocked = [(grid // 2, y) for y in range(2, grid - 3)]
    blocked += [(x, grid // 2) for x in range(grid - 4, grid - 2)]
    return nets, blocked


def source(
    n_classes: int = DEFAULT_CLASSES,
    n_bands: int = DEFAULT_BANDS,
    grid: int = DEFAULT_GRID,
    n_nets: int = DEFAULT_NETS,
) -> str:
    """The complete Weaver program (637 productions at the defaults)."""
    parts: List[str] = [
        "(literalize cell x y blocked)",
        "(literalize net id class state sx sy tx ty)",
        "(literalize frontier net x y cost)",
        "(literalize cand net x y cost)",
        "(literalize visited net x y)",
        "(literalize router current state)",
        "(literalize error kind)",
        "(literalize never)",
    ]
    for klass in range(n_classes):
        for band in range(n_bands):
            for dname, dx, dy in _DIRS:
                parts.append(expansion_rule(klass, band, n_bands, dname, dx, dy))
    for klass in range(n_classes):
        for band in range(n_bands):
            parts.append(acceptance_rule(klass, band, n_bands))
    for band in range(n_bands):
        parts.extend(rejection_rules(band, n_bands, grid))
    for klass in range(n_classes):
        parts.append(arrival_rule(klass))
    for index in range(AUDIT_RULES):
        parts.append(audit_rule(index, n_classes))
    parts.append(_CONTROL)
    nets, blocked = default_layout(grid, n_nets)
    parts.append(startup_block(grid, nets, blocked))
    return "\n".join(parts)


def n_rules(n_classes: int = DEFAULT_CLASSES, n_bands: int = DEFAULT_BANDS) -> int:
    """384 expand + 96 accept + 48 reject + 8 arrive + 94 audit + 7
    control = 637 at the defaults — the paper's Weaver rule count."""
    return (
        n_classes * n_bands * 4
        + n_classes * n_bands
        + n_bands * 4
        + n_classes
        + AUDIT_RULES
        + 7
    )
