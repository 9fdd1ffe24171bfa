"""Output checks computed apart from corrdil.

Every check here uses plain numpy, scipy and json on the matrices an
operation returned or the files it wrote; none of them calls into corrdil or
the test suite's helpers, so a fault in the library cannot hide itself by
also being present in its own checker.  Each check returns a list of
problems; an empty list means the output passed.

A graph is described by the benchmark's own data: a tuple of vertex names
and a tuple of ``(eid, src, dst)`` edge triples.  The word convention follows
the operators: the word ``(e1, e2, ..., ek)`` stands for the product
``t(e1) t(e2) ... t(ek)``, composable when ``s(e_i) = r(e_{i+1})``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

MOBIUS_NORM = 3.0 * math.sqrt(10.0) / 16.0


def norm2(A) -> float:
    """Spectral norm; an empty matrix has norm 0."""
    A = np.asarray(A)
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def bound(label: str, value: float, limit: float) -> list:
    """A problem unless value <= limit; a NaN value is a problem too."""
    return [] if value <= limit else [f"{label} = {value:.3e} > {limit:.1e}"]


def finite_receivers(vertices, edges) -> list:
    """Vertices with a nonempty range fiber (the benchmark never truncates)."""
    ranges = {dst for _, _, dst in edges}
    return [v for v in vertices if v in ranges]


def composable_words(edges, max_len: int) -> list:
    """Every composable edge word of length 1..max_len."""
    src = {eid: s for eid, s, _ in edges}
    dst = {eid: r for eid, _, r in edges}
    words, frontier = [], [()]
    for _ in range(max_len):
        frontier = [
            (e,) + w for w in frontier for e, _, _ in edges
            if not w or src[e] == dst[w[0]]
        ]
        words.extend(frontier)
    return words


def word_vectors(t: dict, E: np.ndarray, words) -> dict:
    """t(w) E for every word, built right to left from shorter words."""
    vecs = {(): E}
    for w in sorted(words, key=len):
        vecs[w] = t[w[0]] @ vecs[w[1:]]
    return vecs


def isometry(E: np.ndarray, tol: float = 1e-9) -> list:
    E = np.asarray(E)
    if not np.all(np.isfinite(E)):
        return ["embed has non-finite entries"]
    return bound("||E*E - I||", norm2(E.conj().T @ E - np.eye(E.shape[1])), tol)


def corner_words(edges, t_in: dict, t_out: dict, E, max_len: int, tol: float = 1e-8) -> list:
    """||E* t_out(w) E - t_in(w)|| <= tol for every composable word."""
    words = composable_words(edges, max_len)
    out = word_vectors(t_out, E, words)
    d = E.shape[1]
    ref = word_vectors(t_in, np.eye(d), words)
    worst = max((norm2(E.conj().T @ out[w] - ref[w]) for w in words), default=0.0)
    return bound(f"corner word defect (|w| <= {max_len})", worst, tol)


def corner_toeplitz(edges, t: dict, p: dict, E) -> float:
    """max over e, f of ||E*(t(e)* t(f) - delta_ef p(s(e)))E||."""
    cols = {eid: t[eid] @ E for eid, _, _ in edges}
    Ep = {v: E.conj().T @ P @ E for v, P in p.items()}
    worst = 0.0
    for e, se, _ in edges:
        for f, _, _ in edges:
            val = cols[e].conj().T @ cols[f]
            if e == f:
                val = val - Ep[se]
            worst = max(worst, norm2(val))
    return worst


def corner_ck(vertices, edges, t: dict, p: dict, E) -> float:
    """max over finite receivers v of ||E*(p(v) - sum_{r(e)=v} t(e)t(e)*)E||."""
    worst = 0.0
    for v in finite_receivers(vertices, edges):
        acc = E.conj().T @ p[v] @ E
        for eid, _, dst in edges:
            if dst == v:
                row = E.conj().T @ t[eid]
                acc = acc - row @ row.conj().T
        worst = max(worst, norm2(acc))
    return worst


def covariance(vertices, edges, t: dict, p: dict, unitaries: dict, action) -> float:
    """max over g, e, v of ||U_g t(e) - t(alpha_g e) U_g|| and
    ||U_g p(v) - p(alpha_g v) U_g||, with alpha taken from the benchmark's
    own description of the action (see workloads.Action)."""
    worst = 0.0
    for g, U in unitaries.items():
        for eid, _, _ in edges:
            moved = sum(c * t[f] for f, c in action.edge_image(g, eid))
            worst = max(worst, norm2(U @ t[eid] - moved @ U))
        for v in vertices:
            worst = max(worst, norm2(U @ p[v] - p[action.vertex_image(g, v)] @ U))
    return worst


def schaffer_tower(T: np.ndarray, n: int) -> np.ndarray:
    """Classical isometric dilation of one contraction on H + H^n, with the
    defect square root from scipy: V(h, d_0, d_1, ...) = (Th, Dh, d_0, ...)."""
    d = T.shape[0]
    D = scipy.linalg.sqrtm(np.eye(d) - T.conj().T @ T)
    D = 0.5 * (D + D.conj().T)
    V = np.zeros(((n + 1) * d, (n + 1) * d), dtype=complex)
    V[:d, :d] = T
    if n:
        V[d:2 * d, :d] = D
    for j in range(1, n):
        V[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = np.eye(d)
    return V


def word_gram(edges, t: dict, seed_basis, max_len: int) -> tuple:
    """(words, G): the composable words of length <= max_len, the empty word
    first, and the Gram matrix of the vectors t(w) h over those words and the
    columns h of seed_basis, word-major."""
    words = [()] + composable_words(edges, max_len)
    vecs = word_vectors(t, seed_basis, words[1:])
    Q = np.concatenate([vecs[w] for w in words], axis=1)
    return words, Q.conj().T @ Q


def schaffer_gram(T: np.ndarray, T_out: np.ndarray, E, n: int, tol: float = 1e-8) -> list:
    """The vectors T_out^k E, k <= n, have the Gram matrix of the tower's
    V^k on H.  The tower's defect block enters through ||Ta||^2 + ||Da||^2 =
    ||a||^2, so this checks that the dilation is isometric on those vectors,
    which the corner words (E* T_out^k E = T^k) do not."""
    loop = (("e", "v", "v"),)
    V = schaffer_tower(T, n)
    _, G_out = word_gram(loop, {"e": T_out}, E, n)
    _, G_tower = word_gram(loop, {"e": V}, np.eye(V.shape[0], T.shape[0]), n)
    return bound("Schaffer tower Gram mismatch", norm2(G_out - G_tower), tol)


def moment_entries(edges, t: dict, seed_basis, max_len: int) -> dict:
    """<t(w1) h_a, t(w2) h_b> keyed (w1, w2, a, b), as moment_signature keys it."""
    words, G = word_gram(edges, t, seed_basis, max_len)
    s = seed_basis.shape[1]
    return {(w1, w2, a, b): G[i * s + a, j * s + b]
            for i, w1 in enumerate(words) for j, w2 in enumerate(words)
            for a in range(s) for b in range(s)}


def moment_table(edges, t: dict, seed_basis, table: dict, max_len: int, tol: float = 1e-9) -> list:
    """The table holds exactly the entries of moment_entries."""
    expected = moment_entries(edges, t, seed_basis, max_len)
    if set(table) != set(expected):
        return [f"moment table has {len(table)} keys, expected {len(expected)}"]
    worst = max(abs(val - expected[key]) for key, val in table.items())
    return bound("moment table deviation", float(worst), tol)


# ---------------------------------------------------------------- files and CLI output


def matrix_from_pairs(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def records_lines(stdout: str) -> list:
    """Every --format records line must parse as a JSON object."""
    problems = []
    lines = stdout.splitlines()
    if not lines:
        return ["no records printed"]
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"records line {i + 1} is not JSON ({exc.msg})")
            continue
        if not isinstance(obj, dict) or "record" not in obj:
            problems.append(f"records line {i + 1} is not a record object")
    return problems


def resolves_identity(text: str, tol: float = 1e-8) -> list:
    """The vertex projections of a problem file sum to the identity."""
    try:
        rep = json.loads(text)["representation"]
        total = sum(matrix_from_pairs(P) for P in rep["proj"].values())
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return [f"written file unreadable: {exc!r}"]
    if total.shape != (rep["dim"], rep["dim"]):
        return [f"projection shape {total.shape} does not match dim {rep['dim']}"]
    return bound("||sum_v P_v - I||", norm2(total - np.eye(rep["dim"])), tol)


def identity_block(text: str, source: dict) -> list:
    """Identity-element block of an induced file equals the input's
    representation entry for entry (group element 0 is the identity)."""
    try:
        out = json.loads(text)["representation"]
    except (json.JSONDecodeError, KeyError) as exc:
        return [f"induced file unreadable: {exc!r}"]
    src = source["representation"]
    d = src["dim"]
    problems = []
    for kind in ("proj", "edge_op"):
        for key, M in src[kind].items():
            block = [row[:d] for row in out[kind][key][:d]]
            if block != M:
                problems.append(f"identity block of {kind}[{key}] differs from the input")
    return problems


def counterexample_pair(stdout: str, tol: float = 1e-9) -> list:
    """The records report gives the pair (3 sqrt(10)/16, 1)."""
    values = {}
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and obj.get("record") == "check":
            values[obj["name"]] = obj["value"]
    lo, hi = values.get("defect-norm[mobius]"), values.get("defect-norm[coordinate]")
    if lo is None or hi is None:
        return ["gap pair missing from the records"]
    return (bound("|mobius - 3 sqrt(10)/16|", abs(lo - MOBIUS_NORM), tol)
            + bound("|coordinate - 1|", abs(hi - 1.0), tol))
