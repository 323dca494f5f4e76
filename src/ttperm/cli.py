"""Command-line surface for the permutation-module workbench.

Subcommands
-----------
  kos       build a Koszul object and print its audit (certificates)
  twisted   compute a twisted cohomology table and its bounded-degree
            presentation
  spectrum  assemble the symbolic spectrum poset of a cyclic group
  invert    certify that u_N (x) dual(u_N) is homotopy equivalent to
            the unit
  verify    re-run the computation recorded in a JSON report and check
            that the results still match

Exit codes: 0 on success, 1 on usage errors, 2 when a theory check or
validation fails (a machine-readable report is printed either way).
All output is deterministic: dictionaries are dumped with sorted keys
and every enumeration is canonically ordered.  The TTPERM_MAX_RANK
environment variable caps the size of homotopy solves.
"""

import argparse
import json
import sys

from .grp import parse_group_name, subgroups, MAX_ORDER
from .rings import ZZ, domain_from_name, factorize
from .homotopy import (find_homotopy_equivalence, Equivalence,
                       SolverCapExceeded)
from .chain import tensor_complex, dual_complex, unit_complex
from . import koszul
from . import twisted
from . import spectrum


class UsageError(Exception):
    pass


class TheoryFailure(Exception):
    """Wraps a failed check with a machine-readable payload."""

    def __init__(self, payload):
        super().__init__(payload.get("message", "theory check failed"))
        self.payload = payload


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_arg(parse, text):
    """Apply a library name parser; a name it rejects is a usage error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _check_order(G):
    """Subgroup enumeration is desk scale: a larger group is a usage
    error, not a failed check."""
    if G.order > MAX_ORDER:
        raise UsageError("%s has order %d; groups of order at most %d are "
                         "supported" % (G.name, G.order, MAX_ORDER))


def _parse_group(text):
    G = _parse_arg(parse_group_name, text)
    _check_order(G)
    return G


def _iso_label(S):
    """Isomorphism-type name used for subgroup selection: 1, C2, C4...
    (order-n cyclic), otherwise the order as "ord<n>"."""
    if S.order == 1:
        return "1"
    G = S.parent
    if any(G.element_order(g) == S.order for g in S.elements):
        return "C%d" % S.order
    return "ord%d" % S.order


def resolve_subgroup(G, text):
    """Pick a subgroup by descriptor: "1", "C2", or "C2#1" when several
    subgroups share a type.  Returns (Subgroup, canonical descriptor)."""
    text = text.strip()
    if "#" in text:
        base, _, idx_text = text.partition("#")
        if not idx_text.isdigit():
            raise UsageError("bad subgroup index in %r" % text)
        idx = int(idx_text)
    else:
        base, idx = text, None
    if base == G.name:
        return G.full_subgroup(), base
    matches = [S for S in subgroups(G) if _iso_label(S) == base]
    if not matches:
        options = sorted({_iso_label(S) for S in subgroups(G)})
        raise UsageError("no subgroup %r in %s (options: %s)"
                         % (base, G.name, ", ".join(options)))
    if idx is None:
        if len(matches) > 1:
            raise UsageError(
                "%d subgroups of type %s in %s; pick one with %s#0..%s#%d"
                % (len(matches), base, G.name, base, base,
                   len(matches) - 1))
        return matches[0], base
    if idx >= len(matches):
        raise UsageError("subgroup index %d out of range (0..%d)"
                         % (idx, len(matches) - 1))
    canonical = base if len(matches) == 1 else "%s#%d" % (base, idx)
    return matches[idx], canonical


def _subgroup_descriptor(G, S):
    """The descriptor that resolve_subgroup maps back to S."""
    base = _iso_label(S)
    matches = [T for T in subgroups(G) if _iso_label(T) == base]
    return base if len(matches) == 1 else "%s#%d" % (base, matches.index(S))


def _jsonable(value):
    """Recursively convert report payloads to JSON-friendly data."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _dump(data):
    return json.dumps(_jsonable(data), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands

def cmd_kos(args):
    G = _parse_group(args.group)
    pk = koszul.prime_power(G.order)
    if pk is None and G.order > 1:
        raise UsageError("Koszul objects need a p-group; %s has order %d"
                         % (G.name, G.order))
    H, canonical = resolve_subgroup(G, args.subgroup)
    if pk is not None and pk[0] != 2 and H.index > 4:
        raise UsageError("for odd p, kos takes one tensor induction of "
                         "index at most 4; %s has index %d in %s"
                         % (canonical, H.index, G.name))
    ring = _parse_arg(domain_from_name, args.ring)
    if args.verify and ring is not ZZ:
        raise UsageError("--verify runs the base-change checks from Z; "
                         "use --ring Z")
    k = koszul.koszul_object(G, H, ring)
    out = {
        "command": "kos",
        "inputs": {"group": args.group, "subgroup": canonical,
                   "ring": args.ring},
        "ranks": {str(n): k.complex.term(n).rank
                  for n in sorted(k.complex.terms)},
        "audit": k.audit,
    }
    if args.verify and pk is not None:
        out["base_change"] = koszul.base_change_koszul_check(G, H, pk[0])
    checks = dict(k.audit["checks"])
    if args.verify and "base_change" in out:
        for tag, rep in out["base_change"].items():
            for name, val in rep.items():
                checks["%s_%s" % (tag, name)] = val
    if not all(checks.values()):
        raise TheoryFailure({"error": "koszul checks failed",
                             "checks": checks, "report": out})
    if args.format == "text":
        lines = ["kos(%s, %s) over %s" % (G.name, canonical, args.ring)]
        lines.append("ranks: " + " ".join(
            "%s:%d" % (n, r) for n, r in sorted(
                ((n, k.complex.term(n).rank) for n in k.complex.terms))))
        for name, val in sorted(checks.items()):
            lines.append("%-28s %s" % (name, "ok" if val else "FAIL"))
        return "\n".join(lines)
    return _dump(out)


def cmd_twisted(args):
    G = _parse_group(args.group)
    ring = _parse_arg(domain_from_name, args.ring)
    if not twisted.is_elementary_abelian(G):
        raise UsageError("twisted tables need an elementary abelian group")
    if not 0 <= args.max_twist <= 8:
        raise UsageError("--max-twist must be between 0 and 8")
    window = None
    if args.shift_min is not None or args.shift_max is not None:
        if args.shift_min is None or args.shift_max is None:
            raise UsageError("provide both --shift-min and --shift-max")
        window = (args.shift_min, args.shift_max)
    table = twisted.twisted_table(G, ring, args.max_twist,
                                  shift_window=window)
    pres = twisted.ring_presentation(table)
    many = len(table.subgroups) > 1
    out = {
        "command": "twisted",
        "inputs": {"group": args.group, "ring": args.ring,
                   "max_twist": args.max_twist,
                   "shift_window": list(table.shift_window)},
        "table": table.to_json(),
        "presentation": {
            "generators": [twisted.mono_str(((gk, 1),), many)
                           for gk in sorted(table.generators)],
            "relations": twisted.relation_strings(pres, many),
            "note": pres["note"],
        },
    }
    if args.format == "text":
        lines = ["twisted table for %s over %s, twists <= %d"
                 % (G.name, args.ring, args.max_twist)]
        for tag, ent in sorted(table.to_json().items()):
            mark = " ".join(ent["monomials"])
            lines.append("%-24s %-12s %s" % (tag, ent["group"], mark))
        lines.append("generators: " +
                     ", ".join(out["presentation"]["generators"]))
        lines.append("relations:  " +
                     ("; ".join(out["presentation"]["relations"]) or "none"))
        return "\n".join(lines)
    return _dump(out)


def cmd_spectrum(args):
    G = _parse_arg(parse_group_name, args.group)
    if not G.is_cyclic():
        raise UsageError("spectrum assembly admits cyclic groups only")
    for p, n in factorize(G.order).items():
        if n > args.seed_bound:
            raise UsageError(
                "modular chain for p=%d has length %d > --seed-bound %d"
                % (p, n, args.seed_bound))
    _check_order(G)
    P = spectrum.orbit_colimit(G)
    report = spectrum.validate(P)
    if not report["ok"]:
        raise TheoryFailure({"error": "spectrum validation failed",
                             "violations": report["violations"]})
    if args.format == "dot":
        return spectrum.export_dot(P).rstrip("\n")
    if args.format == "json":
        body = json.loads(spectrum.export_json(P))
        return _dump({"command": "spectrum",
                      "inputs": {"group": args.group},
                      "poset": body})
    lines = ["spectrum of %s: %d points, %d specializations"
             % (G.name, len(P.points), len(P.relations))]
    for pt in P.point_list():
        lines.append("  " + pt.label())
    for (a, b) in P.reduction_pairs():
        lines.append("  %s ~> %s" % (P.points[a].point_id(),
                                     P.points[b].point_id()))
    return "\n".join(lines)


def cmd_invert(args):
    G = _parse_group(args.group)
    ring = _parse_arg(domain_from_name, args.ring)
    Ns = twisted.index_p_normal_subgroups(G)
    if args.subgroup is not None:
        N, _ = resolve_subgroup(G, args.subgroup)
        matches = [M for M in Ns if M.elements == N.elements]
        if not matches:
            raise UsageError("%r is not an index-p normal subgroup"
                             % args.subgroup)
        N = matches[0]
    elif Ns:
        N = Ns[0]
    else:
        raise UsageError("%s has no index-p normal subgroup" % G.name)
    u = twisted.u_complex(G, N, ring)
    X = tensor_complex(u, dual_complex(u))
    eq = find_homotopy_equivalence(X, unit_complex(G, ring))
    ok = isinstance(eq, Equivalence)
    out = {"command": "invert",
           "inputs": {"group": args.group, "ring": args.ring,
                      "subgroup_index": Ns.index(N)},
           "invertible": ok}
    if not ok:
        raise TheoryFailure({"error": "u_N is not invertible",
                             "report": out})
    return _dump(out)


def cmd_verify(args):
    with open(args.report) as fh:
        try:
            recorded = json.load(fh)
        except ValueError as exc:      # not JSON, or not even text
            raise UsageError("%s is not a JSON report: %s"
                             % (args.report, exc))
    if not isinstance(recorded, dict):
        raise UsageError("%s is not a ttperm report" % args.report)
    command = recorded.get("command")
    inputs = recorded.get("inputs", {})
    if not isinstance(inputs, dict) or \
            not isinstance(inputs.get("group"), str):
        raise UsageError("%s has no inputs.group to replay" % args.report)
    ns = argparse.Namespace(**{
        "group": inputs.get("group"),
        "subgroup": inputs.get("subgroup"),
        "ring": inputs.get("ring", "Z"),
        "max_twist": inputs.get("max_twist"),
        "shift_min": (inputs.get("shift_window") or [None, None])[0],
        "shift_max": (inputs.get("shift_window") or [None, None])[1],
        "format": "json",
        "verify": "base_change" in recorded,
        "seed_bound": 64,
    })
    if command == "kos":
        fresh = json.loads(cmd_kos(ns))
    elif command == "twisted":
        fresh = json.loads(cmd_twisted(ns))
    elif command == "spectrum":
        fresh = json.loads(cmd_spectrum(ns))
    elif command == "invert":
        # replay the recorded subgroup_index as the descriptor naming it
        G = _parse_group(ns.group)
        Ns = twisted.index_p_normal_subgroups(G)
        idx = inputs.get("subgroup_index")
        if type(idx) is not int or not 0 <= idx < len(Ns):
            raise UsageError("report has subgroup_index %r; %s has %d "
                             "index-p normal subgroups"
                             % (idx, G.name, len(Ns)))
        ns.subgroup = _subgroup_descriptor(G, Ns[idx])
        fresh = json.loads(cmd_invert(ns))
    else:
        raise UsageError("cannot verify report with command %r" % command)
    mismatches = _diff(_jsonable(recorded), fresh, path="")
    if command == "spectrum":
        # independent structural pass over the recorded poset
        P = _poset_from_json(recorded["poset"])
        rep = spectrum.validate(P)
        if not rep["ok"]:
            mismatches.append("recorded poset fails validation: %r"
                              % (rep["violations"][:3],))
    if mismatches:
        raise TheoryFailure({"error": "verification failed",
                             "mismatches": mismatches[:20]})
    return _dump({"command": "verify", "verified": True,
                  "against": command})


def _diff(old, new, path):
    out = []
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in old:
                out.append("%s/%s only in fresh run" % (path, key))
            elif key not in new:
                out.append("%s/%s only in recorded report" % (path, key))
            else:
                out.extend(_diff(old[key], new[key], "%s/%s" % (path, key)))
        return out
    if old != new:
        out.append("%s: recorded %r, fresh %r" % (path or "/", old, new))
    return out


def _poset_from_json(body):
    P = spectrum.SymbolicPoset()
    by_id = {}
    for rec in body["points"]:
        pt = _point_from_id(rec["id"])
        by_id[rec["id"]] = P.add_point(pt)
    for (a, b) in body["specializations"]:
        P.relations.add((by_id[a].key(), by_id[b].key()))
    return P


def _point_from_id(pid):
    if pid == "(0)":
        return spectrum.SpcPoint.zero()
    if pid.startswith("family:"):
        tail = pid[len("family:"):]
        excluded = [int(t) for t in tail.split(",") if t]
        return spectrum.SpcPoint.family(excluded)
    if pid.startswith("(") and pid.endswith(")"):
        return spectrum.SpcPoint.prime(int(pid[1:-1]))
    assert pid.startswith("P(") and pid.endswith(")")
    sub, tag, p = pid[2:-1].split(",")
    return spectrum.SpcPoint.modular(sub, tag, int(p))


# ---------------------------------------------------------------------------
# parser and dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with status 2 by default; usage errors are 1 here
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="ttperm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    kos = sub.add_parser("kos", help="build and audit a Koszul object")
    kos.add_argument("--group", required=True)
    kos.add_argument("--subgroup", required=True)
    kos.add_argument("--ring", default="Z")
    kos.add_argument("--verify", action="store_true",
                     help="also run the base-change checks (needs --ring Z)")
    kos.add_argument("--format", choices=["json", "text"], default="json")
    kos.set_defaults(handler=cmd_kos)

    tw = sub.add_parser("twisted", help="twisted cohomology table")
    tw.add_argument("--group", required=True)
    tw.add_argument("--ring", default="Z")
    tw.add_argument("--max-twist", type=int, default=3, dest="max_twist")
    tw.add_argument("--shift-min", type=int, default=None, dest="shift_min")
    tw.add_argument("--shift-max", type=int, default=None, dest="shift_max")
    tw.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility and ignored")
    tw.add_argument("--format", choices=["json", "text"], default="json")
    tw.set_defaults(handler=cmd_twisted)

    spc = sub.add_parser("spectrum", help="symbolic spectrum poset")
    spc.add_argument("--group", required=True)
    spc.add_argument("--format", choices=["json", "text", "dot"],
                     default="json")
    spc.add_argument("--seed-bound", type=int, default=8, dest="seed_bound",
                     help="largest admitted modular chain length")
    spc.set_defaults(handler=cmd_spectrum)

    inv = sub.add_parser("invert", help="certify invertibility of u_N")
    inv.add_argument("--group", required=True)
    inv.add_argument("--subgroup", default=None,
                     help="index-p normal subgroup N (default: first)")
    inv.add_argument("--ring", default="Z")
    inv.set_defaults(handler=cmd_invert)

    ver = sub.add_parser("verify", help="re-check a JSON report")
    ver.add_argument("report", help="path to a JSON report file")
    ver.set_defaults(handler=cmd_verify)
    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            sys.stderr.write("error: a subcommand is required\n")
            return 1
        print(args.handler(args))
        return 0
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except TheoryFailure as exc:
        print(_dump(exc.payload))
        return 2
    except (twisted.TheoryCheckFailure, twisted.BoundsInsufficient,
            SolverCapExceeded, AssertionError) as exc:
        print(_dump({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
