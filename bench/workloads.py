"""The three workloads: seeded inputs, the ops of one pass, and the exact
checks applied to every output.

* ``graph-ladder``: CLI subcommands through in-process ``cli.run(argv)``;
  most time goes to ``graph`` on large isotropy orders.
* ``reeb-euler``: the library read path (profile, polygon, transverse
  circle, Euler identity, widths, closure residual, face invariants).
* ``surgery-plan``: the write path; every step builds a new cone.

``build_<workload>(mods, rnd, workdir, smoke)`` returns ``(ops, params)``.
Ops look library functions up through the module objects in ``mods`` at
call time, so the tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

from . import checks as C
from . import generators as G
from .harness import Op, capture_cli


def _own_v0(reeb):
    """Primitive normal of span(p, q), first nonzero coordinate positive."""
    v0 = C.span_normal(reeb.p, reeb.q)
    for x in v0:
        if x:
            return v0 if x > 0 else tuple(-y for y in v0)
    return v0


def _own_k(cone, reeb):
    v0 = C.span_normal(reeb.p, reeb.q)
    return [abs(C.dot(v0, n)) for n in cone.normals]


def _edges(normals):
    k = len(normals)
    return [C.cross(normals[i], normals[(i + 1) % k]) for i in range(k)]


# ---------------------------------------------------------------------------
# graph-ladder
# ---------------------------------------------------------------------------

GRAPH_EXAMPLE_K = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)
GRAPH_OBSTRUCTED_K = (2, 2, 3, 3, 4, 4)
GRAPH_FRONTIER = (16, 0)  # graph of obstructed_family(16, seed=0) times out


def build_graph_ladder(mods, rnd, workdir, smoke):
    gc = mods.gc
    example_k = GRAPH_EXAMPLE_K[:1] if smoke else GRAPH_EXAMPLE_K
    obstructed_k = GRAPH_OBSTRUCTED_K[:1] if smoke else GRAPH_OBSTRUCTED_K
    inputs = [("example", k, 0, False) for k in example_k]
    inputs += [("obstructed", k, rnd.randrange(10**6), False) for k in obstructed_k]
    inputs.append(("obstructed", GRAPH_FRONTIER[0], GRAPH_FRONTIER[1], True))
    shears = 5
    ops = []
    for family, k, seed, frontier in inputs:
        if family == "example":
            cone, reeb = gc.example_family(k)
        else:
            cone, reeb = gc.obstructed_family(k, seed=seed)
        u = G.random_sl3(rnd, shears)
        image = G.sl3_image(gc, cone, reeb, u)
        label = f"{family}-{k}" + (f"-s{seed}" if family == "obstructed" else "")
        paths = []
        for suffix, (c, r) in (("", (cone, reeb)), ("-image", image)):
            path = os.path.join(workdir, f"{label}{suffix}.json")
            doc = mods.serial.Document(cone=c, reeb=r, metadata={"name": label + suffix})
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(mods.serial.document_to_json(doc), fh)
            paths.append((label + suffix, path, c, r))
        argv = ["construct", "--family", family, "--k", str(k), "--seed", str(seed)]
        ops.append(Op(f"construct:{label}", _cli(mods, argv), _check_construct(family, k, cone)))
        for name, path, c, r in paths:
            ops.append(Op(f"validate:{name}", _cli(mods, ["validate", path]), _check_validate(c)))
            ops.append(Op(f"profile:{name}", _cli(mods, ["profile", path]), _check_profile(c, r)))
            ops.append(Op(f"euler-check:{name}", _cli(mods, ["euler-check", path]), _check_euler_cli))
            ops.append(Op(f"graph:{name}", _cli(mods, ["graph", path]), _check_graph(label), frontier))
    params = {
        "example_k": list(example_k),
        "obstructed_k": list(obstructed_k),
        "obstructed_seeds": [s for f, _, s, fr in inputs if f == "obstructed" and not fr],
        "frontier": {"graph": f"obstructed_family({GRAPH_FRONTIER[0]}, seed={GRAPH_FRONTIER[1]})"},
        "image": f"SL(3,Z) product of {shears} random shears per input",
        "subcommands": ["construct", "validate", "profile", "euler-check", "graph"],
    }
    return ops, params


def _cli(mods, argv):
    return lambda: capture_cli(mods.cli.run, argv)


def _cli_json(output):
    code, out, err = output
    if code != 0:
        return None, f"exit code {code}: {err.strip()[:200]}"
    return json.loads(out), None


def _check_construct(family, k, cone):
    expected = C.example_normals(k) if family == "example" else [list(n) for n in cone.normals]

    def check(output, ctx):
        doc, err = _cli_json(output)
        if err:
            return err
        normals = [tuple(n) for n in doc["cone"]["normals"]]
        if [list(n) for n in normals] != [list(n) for n in expected]:
            return "constructed normals differ from the family's definition"
        if len(normals) != k + 3:
            return f"{len(normals)} normals for k={k}"
        return C.good_cone_failure(normals)

    return check


def _check_validate(cone):
    own_good = C.good_cone_failure(cone.normals) is None

    def check(output, ctx):
        code, out, _ = output
        report = json.loads(out)
        if report["is_good"] != own_good or (code == 0) != own_good:
            return f"validate says is_good={report['is_good']} (exit {code})"
        return None

    return check


def _check_profile(cone, reeb):
    k_own = _own_k(cone, reeb)

    def check(output, ctx):
        prof, err = _cli_json(output)
        if err:
            return err
        if prof["k"] != k_own:
            return "profile k differs from |v0 . n|"
        if prof["flats"] != [i for i, x in enumerate(k_own) if x == 0]:
            return "flat faces differ from the zeros of |v0 . n|"
        return None

    return check


def _check_euler_cli(output, ctx):
    report, err = _cli_json(output)
    if err:
        return err
    if not report["ok"] or Fraction(report["lhs"]) != Fraction(report["rhs"]):
        return f"identity fails: lhs={report['lhs']} rhs={report['rhs']}"
    return None


def _check_graph(label):
    def check(output, ctx):
        graph, err = _cli_json(output)
        if err:
            return err
        if graph["nontrivial_chains"] > 2:
            return f"{graph['nontrivial_chains']} nontrivial chains"
        seen = ctx.setdefault("canonical", {})
        if label in seen and seen[label] != graph["canonical"]:
            return "document and its SL(3,Z) image have different canonical forms"
        seen[label] = graph["canonical"]
        return None

    return check


# ---------------------------------------------------------------------------
# reeb-euler
# ---------------------------------------------------------------------------

REEB_RANDOM_DOCS = 512
REEB_CUTS = (0, 1, 2, 3, 4)
REEB_DISCRIMINANTS = (2, 3, 5)
REEB_EXAMPLE_K = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)
REEB_FRONTIER = ((32, 0), (48, 0))  # transverse circle: SearchExhausted


def build_reeb_euler(mods, rnd, workdir, smoke):
    gc = mods.gc
    docs = []
    for n in range(4 if smoke else REEB_RANDOM_DOCS):
        # sizes and fields follow a fixed schedule; the seed moves coordinates
        cone = G.random_good_cone(gc, rnd, REEB_CUTS[n % len(REEB_CUTS)])
        d = REEB_DISCRIMINANTS[n % len(REEB_DISCRIMINANTS)]
        docs.append((f"random-{n}", cone, G.random_admissible_reeb(gc, rnd, cone, d), False))
    example_k = REEB_EXAMPLE_K[:1] if smoke else REEB_EXAMPLE_K
    for k in example_k:
        cone, reeb = gc.example_family(k)
        docs.append((f"example-{k}", cone, reeb, False))
    for k, seed in REEB_FRONTIER:
        cone, reeb = gc.obstructed_family(k, seed=seed)
        docs.append((f"obstructed-{k}-s{seed}", cone, reeb, True))
    ops = [
        Op(f"reeb-pass:{label}", _reeb_pass(mods, cone, reeb), _check_reeb(cone, reeb), frontier)
        for label, cone, reeb, frontier in docs
    ]
    params = {
        "random_docs": len([d for d in docs if d[0].startswith("random")]),
        "cuts": list(REEB_CUTS),
        "discriminants": list(REEB_DISCRIMINANTS),
        "example_k": list(example_k),
        "frontier": [f"obstructed_family({k}, seed={s})" for k, s in REEB_FRONTIER],
    }
    return ops, params


def _reeb_pass(mods, cone, reeb):
    def run():
        R = mods.reeb
        out = {
            "rank": R.rank_of(reeb),
            "admissible": R.is_admissible(cone, reeb),
            "profile": R.isotropy_profile(cone, reeb),
            "polygon": R.moment_polygon(cone, reeb),
            "ybar": R.choose_transverse_circle(cone, reeb),
            "report": mods.euler.verify_global_identity(cone, reeb),
        }
        ybar = out["ybar"]
        out["widths"] = {
            i: R.width_of_flat_face(cone, reeb, ybar, i) for i in sorted(out["profile"].flats)
        }
        out["residual"] = R.closure_identity_residual(cone, reeb, ybar)
        out["invariants"] = [mods.cone.face_invariants(cone, i) for i in range(len(cone))]
        return out

    return run


def _check_reeb(cone, reeb):
    normals = cone.normals
    edges = _edges(normals)
    k_own = _own_k(cone, reeb)
    v0 = C.span_normal(reeb.p, reeb.q)
    d = reeb.d
    admissible = all(C.qsign(C.reeb_pairing(reeb, e), d) > 0 for e in edges)

    def check(out, ctx):
        if out["rank"] != 2:
            return f"rank {out['rank']} for a Reeb vector with p x q != 0"
        if out["admissible"] != admissible:
            return "admissibility differs from the signs of R . e_i"
        if list(out["profile"].k) != k_own:
            return "profile k differs from |v0 . n|"
        verts = out["polygon"].vertices
        if len(verts) != len(edges):
            return "polygon vertex count differs from the edge count"
        for v, e in zip(verts, edges):
            if C.reeb_dot_point(reeb, v) != (1, 0):
                return "polygon vertex off the slice R . v = 1"
            scale = C.reeb_pairing(reeb, e)
            if any(C.qmul(C.qpair(x), scale, d) != (c, 0) for x, c in zip(v, e)):
                return "polygon vertex not on its edge ray"
        ybar = out["ybar"]
        if not C.primitive(ybar) or C.dot(v0, ybar) != 0:
            return "transverse circle not a primitive vector of Lie(G)"
        if any(C.dot(ybar, e) <= 0 for e in edges):
            return "Ybar . e_i <= 0 on some edge"
        report = out["report"]
        if not report.ok or report.lhs != report.rhs:
            return f"Euler identity fails: {report.lhs} != {report.rhs}"
        if any(C.qsign(C.qpair(w), d) <= 0 for w in out["widths"].values()):
            return "non-positive flat-face width"
        if C.qpair(out["residual"]) != (0, 0):
            return "closure identity residual is not zero"
        m = len(normals)
        for i, inv in enumerate(out["invariants"]):
            b = C.det3(normals[i - 1], normals[i], normals[(i + 1) % m])
            if inv.b != b or not 0 <= inv.f < b:
                return f"face {i} invariants (b={inv.b}, f={inv.f}), expected b={b}"
        return None

    return check


# ---------------------------------------------------------------------------
# surgery-plan
# ---------------------------------------------------------------------------

SURGERY_EXAMPLE_K = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48)
SURGERY_RANDOM_CONES = 192
SURGERY_CUTS = (0, 1, 2, 3)
SURGERY_OBSTRUCTED_K = (2, 4, 8, 12, 16, 20, 24, 32, 40, 48)
SURGERY_LOCAL_BLOWUPS = 48


def build_surgery_plan(mods, rnd, workdir, smoke):
    gc = mods.gc
    ops = []
    example_k = SURGERY_EXAMPLE_K[:1] if smoke else SURGERY_EXAMPLE_K
    for k in example_k:
        cone, reeb = gc.example_family(k)
        v0 = _own_v0(reeb)
        ops.append(Op(f"blowdown-chain:example-{k}", _chain(mods, cone, k, v0), _check_chain(cone, k, v0)))
    n_random = 2 if smoke else SURGERY_RANDOM_CONES
    made = 0
    while made < n_random:
        cone = G.random_good_cone(gc, rnd, SURGERY_CUTS[made % len(SURGERY_CUTS)])
        found = G.random_orbit_blowup(gc, rnd, cone)
        face = _lens_face(gc, rnd, cone)
        if found is None or face is None:
            continue
        v, a, b = found[1]
        t = G.orbit_cut_normal(cone, v, a, b)
        ops.append(Op(f"cone-surgery:random-{made}", _cone_surgery(mods, cone, t, face), _check_cone_surgery(cone)))
        made += 1
    obstructed = [(k, rnd.randrange(10**6)) for k in (SURGERY_OBSTRUCTED_K[:1] if smoke else SURGERY_OBSTRUCTED_K)]
    for k, seed in obstructed:
        ops.append(Op(f"obstructed-family:{k}-s{seed}", _obstructed(mods, k, seed), _check_obstructed(k)))
    local = [_local_input(rnd) for _ in range(1 if smoke else SURGERY_LOCAL_BLOWUPS)]
    for n, args in enumerate(local):
        ops.append(Op(f"local-blowup:{n}", _local(mods, args), _check_local(args)))
    params = {
        "example_k": list(example_k),
        "random_cones": n_random,
        "cuts": list(SURGERY_CUTS),
        "obstructed": [list(x) for x in obstructed],
        "local_blowups": [
            {"lam0": [str(a), str(b)], "lam1": [str(c), str(e)], "d": d, "m": [m1, m2], "bound": str(bound)}
            for (a, b, c, e, d, m1, m2, bound) in local
        ],
    }
    return ops, params


def _lens_face(gc, rnd, cone):
    """A face of the cone at which some lens cut candidate is a lens
    blow-up of that face, or None."""
    faces = list(range(len(cone)))
    rnd.shuffle(faces)
    for i in faces:
        for t in G.lens_cut_candidates(cone, i):
            try:
                res = gc.cut(cone, gc.CutSpec(t))
            except (gc.SurgeryRejected, ValueError):
                continue
            if res.kind == "lens-blowup" and res.index == i:
                return i
    return None


def _chain(mods, cone, k, v0):
    """Criterion-7 pattern: plan the blow-downs keeping faces 0, k+1, k+2,
    replay the plan, then trivialize the one new face with the
    v0-constrained blow-down normal."""

    def run():
        S = mods.surgery
        plan = S.plan_blowdown_sequence(cone, [0, k + 1, k + 2])
        final = S.replay(plan, cone)
        new = [n for n in final.normals if n not in cone.normals]
        idx = final.normals.index(new[0]) if len(new) == 1 else None
        t = S.find_blowdown_normal(final, idx, constraint=(v0, 1)) if idx is not None else None
        trivial = S.replace_range(final, [idx], t) if t is not None else None
        return plan, final, new, idx, t, trivial

    return run


def _own_hash(normals):
    payload = json.dumps({"normals": [list(n) for n in normals]}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _check_chain(cone, k, v0):
    kept = {cone.normals[0], cone.normals[k + 1], cone.normals[k + 2]}

    def check(out, ctx):
        plan, final, new, idx, t, trivial = out
        if not plan.steps or plan.steps[-1].post != _own_hash(final.normals):
            return "plan's last post-hash is not the hash of the replayed cone"
        if plan.steps[0].pre != _own_hash(cone.normals):
            return "plan's first pre-hash is not the hash of the input cone"
        reason = C.good_cone_failure(final.normals)
        if reason:
            return f"final cone not good: {reason}"
        if len(final) != 4 or not kept <= set(final.normals) or len(new) != 1:
            return "final cone is not the kept faces plus one new face"
        if t is None:
            return "no v0-constrained blow-down normal"
        n = final.normals
        prev, nxt = n[idx - 1], n[(idx + 1) % 4]
        if C.dot(v0, t) != 1 or not C.in_theta(prev, n[idx], nxt, t):
            return "constrained normal not in Theta(i) on the slice v0 . t = 1"
        if not (C.basis_pair(prev, t) and C.basis_pair(t, nxt)):
            return "constrained normal not a basis pair with its neighbours"
        reason = C.good_cone_failure(trivial.normals)
        return f"trivialized cone not good: {reason}" if reason else None

    return check


def _cone_surgery(mods, cone, t, face):
    """One op per random cone: an orbit round trip, a lens round trip and
    find_blowdown_normal at every face.  Keeping the three together makes
    the random cones one block of similar latencies, so the median op falls
    inside it rather than between op kinds."""
    parts = (_orbit_rt(mods, cone, t), _lens_rt(mods, cone, face), _find_all(mods, cone))
    return lambda: tuple(part() for part in parts)


def _check_cone_surgery(cone):
    parts = (_check_roundtrip(cone, "orbit-blowup"), _check_roundtrip(cone, "lens-blowup"), _check_find_all(cone))

    def check(out, ctx):
        for part, output in zip(parts, out):
            reason = part(output, ctx)
            if reason is not None:
                return reason
        return None

    return check


def _orbit_rt(mods, cone, t):
    def run():
        S = mods.surgery
        res = S.cut(cone, S.CutSpec(t))
        back = S.blowdown_delete(res.cone, res.index + 1) if res.kind == "orbit-blowup" else None
        return res, back

    return run


def _lens_rt(mods, cone, face):
    def run():
        S = mods.surgery
        for t in G.lens_cut_candidates(cone, face):
            try:
                res = S.cut(cone, S.CutSpec(t))
            except (S.SurgeryRejected, ValueError):
                continue
            if res.kind == "lens-blowup" and res.index == face:
                pos = res.cone.normals.index(t)
                return res, S.replace_range(res.cone, [pos], cone.normal(face))
        return None, None

    return run


def _check_roundtrip(cone, kind):
    def check(out, ctx):
        res, back = out
        if res is None or res.kind != kind:
            return f"no {kind} found"
        reason = C.good_cone_failure(res.cone.normals)
        if reason:
            return f"blown-up cone not good: {reason}"
        if back is None or back.normals != cone.normals:
            return "round trip is not bit-exact"
        return None

    return check


def _find_all(mods, cone):
    return lambda: [mods.surgery.find_blowdown_normal(cone, i) for i in range(len(cone))]


def _check_find_all(cone):
    n = cone.normals
    k = len(n)

    def check(out, ctx):
        for i, t in enumerate(out):
            if t is None:
                continue
            prev, nxt = n[i - 1], n[(i + 1) % k]
            if not C.primitive(t) or not C.in_theta(prev, n[i], nxt, t):
                return f"face {i}: normal {t} not a primitive vector of Theta(i)"
            if not (C.basis_pair(prev, t) and C.basis_pair(t, nxt)):
                return f"face {i}: normal {t} not a basis pair with the neighbours"
        return None

    return check


def _obstructed(mods, k, seed):
    return lambda: mods.construct.obstructed_family(k, seed=seed)


def _check_obstructed(k):
    def check(out, ctx):
        n = out[0].normals
        if len(n) != k + 3 or n[0] != (1, 0, 1) or n[1] != (1, 1, 1):
            return "obstructed cone has the wrong shape"
        reason = C.good_cone_failure(n)
        if reason:
            return f"obstructed cone not good: {reason}"
        for i in range(1, k + 1):
            if C.basis_pair(n[i - 1], n[i + 1]):
                return f"chain face {i} can be blown down"
        return None

    return check


def _local_input(rnd):
    d = rnd.choice(REEB_DISCRIMINANTS)
    while True:
        m1, m2 = rnd.randint(1, 9), rnd.randint(1, 9)
        if math.gcd(m1, m2) == 1:
            break
    while True:  # lam1 / lam0 must be irrational: (c, e) not a multiple of (a, b)
        a, b = rnd.randint(1, 5), rnd.randint(1, 5)
        c, e = rnd.randint(-5, 5), rnd.randint(1, 5)
        if a * e != b * c:
            break
    return a, b, c, e, d, m1, m2, Fraction(rnd.randint(5, 60))


def _local(mods, args):
    a, b, c, e, d, m1, m2, bound = args

    def run():
        quad = mods.exactnum.quad
        return mods.surgery.solve_local_blowup(quad(a, b, d), quad(c, e, d), m1, m2, bound)

    return run


def _check_local(args):
    a, b, c, e, d, m1, m2, bound = args

    def check(sol, ctx):
        u, v = sol.u, sol.v
        if v < 1 or math.gcd(abs(u), v) != 1:
            return f"u/v = {u}/{v} not in lowest terms"
        # l = lam1 - (u/v) lam0, radii l*m1 and l*m2 above the bound
        l = (c - Fraction(u, v) * a, e - Fraction(u, v) * b)
        if C.qpair(sol.l) != l:
            return "l differs from lam1 - (u/v) lam0"
        for m, r in ((m1, sol.r1), (m2, sol.r2)):
            if C.qpair(r) != (l[0] * m, l[1] * m) or C.qsign((l[0] * m - bound, l[1] * m), d) <= 0:
                return "radius not l*m above the bound"
        if (sol.a0, sol.a1, sol.a2) != (v, u * m1, u * m2):
            return "weights are not (v, u m1, u m2)"
        if math.gcd(sol.a0, abs(sol.a1)) != 1 or math.gcd(sol.a0, abs(sol.a2)) != 1:
            return "weights do not give a free action"
        return None

    return check


WORKLOADS = {
    "graph-ladder": (build_graph_ladder, 3.0),
    "reeb-euler": (build_reeb_euler, 3.0),
    "surgery-plan": (build_surgery_plan, 3.0),
}
