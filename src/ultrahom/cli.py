"""Command-line surface.

Exit codes: 0 success, 1 certificate verification failure, 2 usage or
hypothesis error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .campaigns import FAMILIES, campaign, run_trial, write_certs
from .certs import WitnessCertificate, _entries, oracle_problem, verify
from .errors import GraphError, InternalCheckError
from .graphs import GraphKind, GraphSession
from .nkomega import StabVerdict, classify_stabilizing, piccard_partner
from .omega_kn import SigmaPlacement, feasible_partition
from .oracles import oracle_from_description
from .partial_iso import chain_pairs, compose, from_pairs
from .perms import IndexPerm

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _session_for(family: str, n: int | None, transcript_path: str | None) -> GraphSession:
    kind = _kind_for(family, n)
    if kind.is_lazy and transcript_path:
        with open(transcript_path) as fh:
            return GraphSession.replay_text(kind, fh.read())
    return GraphSession(kind)


def _kind_for(family: str, n: int | None) -> GraphKind:
    if family == "random":
        return GraphKind.random()
    if family == "henson":
        return GraphKind.henson(n or 3)
    if family == "omega-kn":
        return GraphKind.omega_kn(n or 2)
    if family == "nkomega":
        return GraphKind.nk_omega(n or 2)
    raise GraphError(f"unknown family {family!r}")


def _load_pairs(text: str) -> list[tuple[int, int]]:
    data = json.loads(text)
    if not isinstance(data, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)
            for pair in data):
        raise ValueError("pairs must be a JSON list of [x, y] integer pairs")
    return [tuple(pair) for pair in data]


def _load_state(path: str) -> dict:
    """An ``oracle query`` state file, checked for the shape ``oracle new`` writes."""
    with open(path) as fh:
        state = json.load(fh)
    if not isinstance(state, dict) or not isinstance(state.get("family"), dict):
        raise ValueError(f"{path}: a state is an object with a family object")
    transcript = state.get("transcript")
    if not (_entries(transcript, 2) or _entries(transcript, 4)):
        raise ValueError(f"{path}: the state transcript must list [U, id] or"
                         " [U, V, F, id] entries of integers")
    problem = oracle_problem(state.get("oracle"))
    if problem:
        raise ValueError(f"{path}: {problem}")
    return state


def cmd_oracle(args) -> int:
    if args.action == "new":
        kind = _kind_for(args.family, args.n)
        session = GraphSession(kind)
        if kind.is_lazy:
            desc = {"kind": "lazy_fresh", "pairs": []}
        else:
            from .campaigns import _trial_rng, nkomega_oracle

            rng = _trial_rng(args.seed, 0)
            if kind.tag == "omega_kn":
                from .oracles import OmegaShiftOracle

                pos = list(range(kind.n))
                rng.shuffle(pos)
                desc = OmegaShiftOracle(session, rng.choice([-2, -1, 1, 2]), pos).description()
            else:
                desc = nkomega_oracle(kind.n, rng).description()
        state = {"family": kind.to_dict(), "oracle": desc, "transcript": []}
        text = json.dumps(state, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0

    if args.state is None or args.vertex is None:
        raise ValueError("oracle query needs --state and --vertex")
    state = _load_state(args.state)
    kind = GraphKind.from_dict(state["family"])
    session = (GraphSession.replay(kind, state["transcript"])
               if kind.is_lazy else GraphSession(kind))
    if kind.is_lazy and state["oracle"]["kind"] == "lazy_fresh":
        from .oracles import LazyOracle

        f = LazyOracle(session, from_pairs(session, chain_pairs(state["oracle"]["pairs"])))
    else:
        f = oracle_from_description(session, state["oracle"])
    out = f.preimage(args.vertex) if args.inverse else f.image(args.vertex)
    print(out)
    if kind.is_lazy:
        state["oracle"] = f.description()
        state["transcript"] = [[list(U), w] for U, w in session.transcript()]
        with open(args.state, "w") as fh:
            fh.write(json.dumps(state, sort_keys=True) + "\n")
    return 0


def cmd_iso(args) -> int:
    session = _session_for(args.family, args.n, args.transcript)
    if args.action == "validate":
        iso = from_pairs(session, _load_pairs(args.pairs))
        print(f"valid partial isomorphism on {len(iso)} pairs")
        return 0
    if args.action == "compose":
        left = from_pairs(session, _load_pairs(args.pairs))
        right = from_pairs(session, _load_pairs(args.with_pairs))
        print(json.dumps([list(t) for t in compose(left, right).pairs()]))
        return 0
    iso = from_pairs(session, _load_pairs(args.pairs))
    for c in iso.components().components:
        shape = "cycle" if c.complete else "chain"
        print(f"{shape}: {' -> '.join(map(str, c.vertices))}")
    return 0


def cmd_witness(args) -> int:
    cert = run_trial(args.family, args.n, args.seed, args.index,
                     sigma_size=args.sigma_size)
    report = verify(cert)
    if args.out:
        write_certs(args.out, [cert])
    print(report)
    return 0 if report.ok else VERIFY_ERROR


def cmd_piccard(args) -> int:
    a = IndexPerm.parse(args.n, args.perm)
    b = piccard_partner(a)
    print("none" if b is None else b.cycle_notation())
    return 0


def cmd_sigma_feasible(args) -> int:
    kind = GraphKind.omega_kn(args.n)
    session = GraphSession(kind)
    counts = {}
    for chunk in args.counts.split(","):
        if not chunk:
            continue
        c, _, k = chunk.partition(":")
        counts[int(c)] = int(k)
    placement = SigmaPlacement.from_counts(session, counts)
    part = feasible_partition(args.n, placement)
    if part is None:
        print("infeasible")
    else:
        blocks = ["{" + ",".join(map(str, b)) + "}" for b in part.parts]
        print(f"feasible: {len(part.parts)} parts, carriers {' '.join(blocks)},"
              " remaining components round-robin")
    return 0


def cmd_classify_stab(args) -> int:
    text = args.policy
    if not text.strip().startswith("{"):
        with open(text) as fh:
            text = fh.read()
    desc = json.loads(text)
    problem = oracle_problem(desc)
    if problem is None and desc["kind"] != "nk_policy":
        problem = f"classify-stab reads an nk_policy description, not {desc['kind']}"
    if problem:
        raise ValueError(problem)
    session = GraphSession(GraphKind.nk_omega(len(desc["sigma"])))
    f = oracle_from_description(session, desc)
    verdict: StabVerdict = classify_stabilizing(f)
    if verdict.stabilizing:
        print(f"stabilizing: witness {list(verdict.witness)} ({verdict.detail})")
    else:
        print(f"non-stabilizing: {verdict.detail}")
    return 0


def cmd_verify(args) -> int:
    failures = 0
    with open(args.file, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                cert = WitnessCertificate.from_json(line)
            except (GraphError, UnicodeDecodeError) as e:
                failures += 1
                print(f"certificate {lineno} (unparsed): REJECTED")
                print(f"  FAIL certificate-shape: {e}")
                continue
            report = verify(cert)
            status = "VERIFIED" if report.ok else "REJECTED"
            print(f"certificate {lineno} ({cert.claim}): {status}")
            if not report.ok:
                failures += 1
                for name, ok, note in report.failing():
                    print(f"  FAIL {name}: {note}")
    return VERIFY_ERROR if failures else 0


def cmd_campaign(args) -> int:
    perm = IndexPerm.parse(args.n, args.perm) if args.perm else None
    summary = campaign(args.family, args.n, args.trials, args.seed,
                       sigma_size=args.sigma_size, index_perm=perm)
    print(summary)
    if args.out and summary.certs:
        write_certs(args.out, summary.certs)
    return 0 if summary.ok else VERIFY_ERROR


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ultrahom",
        description="Partial-isomorphism witnesses over the countable "
                    "ultrahomogeneous graphs, with checkable certificates.")
    sub = top.add_subparsers(dest="command", required=True)

    o = sub.add_parser("oracle", help="create or query an automorphism oracle")
    o.add_argument("action", choices=["new", "query"])
    o.add_argument("--family", default="henson",
                   choices=["random", "henson", "omega-kn", "nkomega"])
    o.add_argument("--n", type=int)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out")
    o.add_argument("--state", help="state file for queries")
    o.add_argument("--vertex", type=int)
    o.add_argument("--inverse", action="store_true")
    o.set_defaults(run=cmd_oracle)

    i = sub.add_parser("iso", help="validate, compose or decompose pair lists")
    i.add_argument("action", choices=["validate", "compose", "components"])
    i.add_argument("--family", default="nkomega",
                   choices=["random", "henson", "omega-kn", "nkomega"])
    i.add_argument("--n", type=int)
    i.add_argument("--pairs", required=True, help="JSON list of [x, y] pairs")
    i.add_argument("--with-pairs", dest="with_pairs", help="second operand for compose")
    i.add_argument("--transcript", help="session transcript for lazy families")
    i.set_defaults(run=cmd_iso)

    w = sub.add_parser("witness", help="build and verify one density witness")
    w.add_argument("family", choices=list(FAMILIES))
    w.add_argument("--n", type=int, default=3)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--index", type=int, default=0)
    w.add_argument("--sigma-size", dest="sigma_size", type=int)
    w.add_argument("--out")
    w.set_defaults(run=cmd_witness)

    pc = sub.add_parser("piccard", help="search a generating partner permutation")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--perm", required=True, help="cycle notation, e.g. '(1 2)(3 4)'")
    pc.set_defaults(run=cmd_piccard)

    sf = sub.add_parser("sigma-feasible",
                        help="decide the orbit-representative partition question")
    sf.add_argument("--n", type=int, required=True)
    sf.add_argument("--counts", required=True,
                    help="component:count pairs, e.g. '0:2,1:2'")
    sf.set_defaults(run=cmd_sigma_feasible)

    cs = sub.add_parser("classify-stab", help="stabilizing / non-stabilizing verdict")
    cs.add_argument("--policy", required=True, help="oracle description JSON or file")
    cs.set_defaults(run=cmd_classify_stab)

    v = sub.add_parser("verify", help="verify a certificate file (JSON lines)")
    v.add_argument("file")
    v.set_defaults(run=cmd_verify)

    c = sub.add_parser("campaign", help="randomized build-and-verify campaign")
    c.add_argument("family", choices=list(FAMILIES))
    c.add_argument("--n", type=int, default=3)
    c.add_argument("--trials", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--sigma-size", dest="sigma_size", type=int)
    c.add_argument("--perm", help="pin the oracle index permutation (nkomega)")
    c.add_argument("--out")
    c.set_defaults(run=cmd_campaign)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, FileNotFoundError) as e:  # GraphError, IsoError and HypothesisError too
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except InternalCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
