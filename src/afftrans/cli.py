"""Deterministic command-line front end.

Output contract (records mode): one ``key=value`` record per line, keys in
the fixed order documented per command in the README; weights are bracketed
comma-separated rationals like ``[1,0]`` or ``[3/2]``; group elements are
``t[<root coords>]*<word>`` with the aliases ``e`` (identity) and ``saff``
(reflection through the level wall) accepted on input.  ``json-lines`` mode
prints one JSON object per line carrying the same field names and values.

Exit codes: 0 success, 1 domain error (one-line ``error: ...`` diagnostic on
stderr), 2 usage error.  The dimension guard for tensor computations is, in
order of precedence: ``--cap``, the ``AFFTRANS_CAP`` environment variable,
then the library default.  ``tensor --oracle`` answers through the independent
Weyl-character read-off; the package imports only the standard library.

Each subcommand is declared once, in ``_COMMANDS``: its name, level policy,
help text, arguments and handler.  A handler returns its rows, each a list of
(key, value) pairs, and ``main`` prints them in the chosen mode; only
``translate-char`` prints its own ``<terms> @ base=<weight>`` line.

Only ``rootsys`` and ``errors`` load with this module.  Each command handler
imports the layers it uses, so a one-shot call such as ``info A2`` never
loads the character, translation or alcove layers.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .errors import AfftransError, DatumInvalidError, DomainError
from .rootsys import RootSystem, Weight, root_system


class UsageError(Exception):
    """Malformed invocation detected after argparse (exit code 2)."""


# ---------------------------------------------------------------------------
# argument parsing helpers

def _type_arg(text: str) -> RootSystem:
    try:
        return root_system(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _weight_arg(text: str):
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise argparse.ArgumentTypeError(
            f"malformed weight {text!r}: expected [a,b,...]")
    coords = []
    inner = t[1:-1].strip()
    if inner:
        for tok in inner.split(","):
            tok = tok.strip()
            try:
                coords.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise argparse.ArgumentTypeError(
                    f"malformed weight {text!r}: bad entry {tok!r}") from None
    return Weight(coords)


def _resolve_level(args, rs: RootSystem):
    raw_level = getattr(args, "level", None)
    raw_k = getattr(args, "k", None)
    if raw_level is None and raw_k is None:
        return None
    raw = raw_level if raw_level is not None else raw_k
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed level {raw!r}") from None
    if raw_k is not None:
        value += rs.dual_coxeter
    from .affine import Level
    return Level.from_shifted(value)


def _warn_lattice(rs: RootSystem, level) -> None:
    if level is not None and level.q > 1 and not rs.is_simply_laced:
        print(f"warning: {rs.spec} at level {level}: denominators > 1 mix "
              "long- and short-root wall spacings; the long-root "
              "normalisation is used throughout", file=sys.stderr)


def _resolve_cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("AFFTRANS_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"malformed AFFTRANS_CAP value {env!r}") from None
    from .finchar import DEFAULT_CAP
    return DEFAULT_CAP


_TRANS_RE = re.compile(r"^t\[([^\]]*)\]$")
_WORD_RE = re.compile(r"^(?:s[1-9][0-9]*)+$")


def _parse_element(rs: RootSystem, level, text: str):
    from . import affine, weyl
    t = text.strip()
    if not t:
        raise UsageError("empty group element")
    if t == "e":
        return affine.identity_element(rs.rank)
    if t == "saff":
        return affine.theta_wall_reflection(rs, level)
    parts = t.split("*")
    trans = Weight.zero(rs.rank)
    index = 0
    match = _TRANS_RE.match(parts[0])
    if match:
        toks = [x.strip() for x in match.group(1).split(",")] if match.group(1).strip() else []
        if len(toks) != rs.rank:
            raise UsageError(
                f"translation {parts[0]!r} has wrong rank for {rs.spec}")
        try:
            rc = [int(x) for x in toks]
        except ValueError:
            raise UsageError(f"malformed translation {parts[0]!r}") from None
        trans = Weight(sum(rs.cartan[r][i] * rc[i] for i in range(rs.rank))
                       for r in range(rs.rank))
        index = 1
    word = weyl.IDENTITY
    if index < len(parts):
        if len(parts) - index > 1:
            raise UsageError(f"malformed element {text!r}")
        wtext = parts[index]
        if not _WORD_RE.match(wtext):
            raise UsageError(f"malformed element {text!r}: bad token {wtext!r}")
        letters = [int(x) - 1 for x in re.findall(r"s([0-9]+)", wtext)]
        if any(not 0 <= letter < rs.rank for letter in letters):
            raise UsageError(
                f"element {text!r} uses a generator outside s1..s{rs.rank}")
        word = weyl.canonical_from_word(rs, letters)
    return affine.AffineWeylElement(trans, word)


def _split_terms(text: str):
    """Split on commas that are not inside brackets."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_char_terms(rs: RootSystem, level, text: str) -> dict:
    coeffs: dict = {}
    t = text.strip()
    if not t:
        return coeffs
    for term in _split_terms(t):
        term = term.strip()
        if ":" not in term:
            raise UsageError(f"malformed character term {term!r}: "
                             "expected <element>:<integer>")
        elt_text, _, coeff_text = term.rpartition(":")
        try:
            coeff = int(coeff_text.strip())
        except ValueError:
            raise UsageError(
                f"malformed coefficient {coeff_text.strip()!r}") from None
        g = _parse_element(rs, level, elt_text)
        coeffs[g] = coeffs.get(g, 0) + coeff
    return coeffs


# ---------------------------------------------------------------------------
# output formatting

def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        if " " in v or not v:
            import json  # only quoted values and json-lines need it
            return json.dumps(v)
        return v
    if isinstance(v, (Weight, int, Fraction)):
        return str(v)
    raise TypeError(f"unformattable value {v!r}")


def _json_value(v):
    return v if isinstance(v, (int, str)) else _fmt_value(v)


def _emit(rows, mode: str) -> None:
    for row in rows:
        if mode == "records":
            print(" ".join(f"{key}={_fmt_value(value)}" for key, value in row))
        else:
            import json
            print(json.dumps({key: _json_value(value) for key, value in row}))


# ---------------------------------------------------------------------------
# command handlers: each returns its rows, one list of (key, value) per line

def _cmd_info(args, rs: RootSystem, level) -> list:
    row = [("type", str(rs.spec)), ("rank", rs.rank),
           ("simply_laced", rs.is_simply_laced),
           ("positive_roots", len(rs.positive_roots)),
           ("dual_coxeter", rs.dual_coxeter), ("theta", rs.theta)]
    if level is not None:
        from . import affine
        row += [("level", str(level)), ("k", level.k(rs)),
                ("alcove_weights", len(affine.enumerate_dominant(rs, level)))]
    return [row]


def _cmd_orbit(args, rs: RootSystem, level) -> list:
    if level is None:
        from . import weyl
        return [[("weight", w)] for w in sorted(weyl.orbit(rs, args.weight))]
    from . import affine
    if args.bound is None:
        raise UsageError("orbit enumeration at a level requires --bound")
    pairs = affine.dominant_orbit(rs, args.weight, level, args.bound)
    return [[("weight", nu), ("g", affine._spelled(rs, g))]
            for g, nu in pairs]


def _cmd_alcove(args, rs: RootSystem, level) -> list:
    from . import affine
    rep, g, regular = affine.alcove_rep(rs, args.weight, level)
    return [[("rep", rep), ("g", affine._spelled(rs, g)), ("regular", regular)]]


def _cmd_dominant(args, rs: RootSystem, level) -> list:
    from . import affine
    return [[("weight", w)] for w in affine.enumerate_dominant(rs, level)]


def _cmd_tensor(args, rs: RootSystem, level) -> list:
    from . import finchar
    cap = _resolve_cap(args)
    op = finchar.tensor_oracle if args.oracle else finchar.tensor_decompose
    parts = op(rs, args.lam, args.mu, cap=cap)
    return [[("nu", nu), ("mult", m)] for nu, m in parts.items()]


def _cmd_filtration(args, rs: RootSystem, level) -> list:
    from . import translate
    cap = _resolve_cap(args)
    op = translate.verma_filtration if args.verma else translate.kl_weyl_filtration
    parts = op(rs, args.lam, args.mu, cap=cap)
    return [[("nu", nu), ("mult", m)] for nu, m in parts.items()]


def _cmd_datum(args, rs: RootSystem, level) -> list:
    from . import translate
    try:
        translate.check_datum(rs, args.lam_left, args.lam_right, args.lam, level)
    except DatumInvalidError as exc:
        return [[("valid", False), ("reason", str(exc))]]
    return [[("valid", True)]]


def _cmd_translate_weyl(args, rs: RootSystem, level) -> list:
    from . import translate
    cap = _resolve_cap(args)
    g = _parse_element(rs, level, args.element)
    op = translate.translate_verma if args.verma else translate.translate_weyl
    image = op(rs, g, args.src, args.dst, level, cap=cap)
    return [[("image", image)]]


def _cmd_translate_char(args, rs: RootSystem, level) -> list:
    """Prints its one ``<terms> @ base=<weight>`` line itself: no rows."""
    from . import affine, translate
    coeffs = _parse_char_terms(rs, level, args.char)
    chi = translate.make_character(rs, args.src, coeffs, level)
    out = translate.translate_character(rs, chi, args.dst)
    saff = affine.theta_wall_reflection(rs, level)
    body = ",".join(f"{'saff' if g == saff else affine._spelled(rs, g)}:{c}"
                    for g, c in out.coeffs.items())
    if args.format == "records":
        print(f"{body} @ base={out.base}")
    else:
        import json
        print(json.dumps({"char": body, "base": str(out.base)}))
    return []


def _cmd_verify_lemma(args, rs: RootSystem, level) -> list:
    from . import translate
    g = _parse_element(rs, level, args.element)
    verdict = translate.verify_weight_geometry(
        rs, args.lam, args.mu, g, level, args.bound)
    return [[("verified", verdict)]]


def _cmd_admissible(args, rs: RootSystem, level) -> list:
    from . import annihilator
    return [[("weight", w)] for w in annihilator.admissible_list(rs, level)]


def _cmd_generator(args, rs: RootSystem, level) -> list:
    from . import affine, annihilator
    g = annihilator.singular_generator_label(rs, level)
    image = affine.affine_apply(rs, g, Weight.zero(rs.rank), level)
    return [[("g", affine._spelled(rs, g)), ("weight", image)]]


def _cmd_transport(args, rs: RootSystem, level) -> list:
    from . import affine, annihilator, translate
    cap = _resolve_cap(args)
    gens = {_parse_element(rs, level, t)
            for t in _split_terms(args.generators) if t.strip()}
    labels = annihilator.make_labels(rs, Weight.zero(rs.rank), gens, level)
    _, images = annihilator._transport(rs, labels, args.to, cap)
    return [[("g", affine._spelled(rs, g)), ("image", images[g])]
            for g in translate._in_order(rs, images)]


# ---------------------------------------------------------------------------
# the subcommand table: name -> (level policy, help, arguments, handler).  The
# level policy is None (takes no level), "optional" or "required".  Each
# subparser takes ``type`` first, then each (name, add_argument keywords) in order.

_WEIGHT = dict(type=_weight_arg)
_REQUIRED_WEIGHT = dict(type=_weight_arg, required=True)

_COMMANDS = {
    "info": ("optional", "root-system summary",
             [], _cmd_info),
    "orbit": ("optional", "finite Weyl orbit, or dominant dot-orbit at a level",
              [("weight", _WEIGHT),
               ("--bound", dict(type=int, default=None,
                                help="height bound for orbit enumeration at a level"))],
              _cmd_orbit),
    "alcove": ("required", "alcove representative, group element and regularity",
               [("weight", _WEIGHT)], _cmd_alcove),
    "dominant": ("required", "integral weights of the dominant alcove",
                 [], _cmd_dominant),
    "tensor": (None, "tensor product decomposition",
               [("lam", _WEIGHT), ("mu", _WEIGHT),
                ("--oracle", dict(action="store_true",
                                  help="use the independent Weyl-character read-off"))],
               _cmd_tensor),
    "filtration": (None, "Weyl (or, with --verma, Verma) filtration multiplicities",
                   [("lam", _WEIGHT), ("mu", _WEIGHT), ("--verma", dict(action="store_true"))],
                   _cmd_filtration),
    "datum": ("required", "validate a translation triple",
              [("lam_left", _WEIGHT), ("lam_right", _WEIGHT), ("lam", _WEIGHT)],
              _cmd_datum),
    "translate-weyl": ("required", "translate one module label between linkage classes",
                       [("--element", dict(required=True,
                                           help="group element, e.g. e, saff, t[5]*s1")),
                        ("--from", dict(dest="src", **_REQUIRED_WEIGHT)),
                        ("--to", dict(dest="dst", **_REQUIRED_WEIGHT)),
                        ("--verma", dict(action="store_true", help="drop the dominance "
                                         "requirement on the source label"))],
                       _cmd_translate_weyl),
    "translate-char": ("required", "translate a Weyl-basis character between linkage classes",
                       [("--from", dict(dest="src", **_REQUIRED_WEIGHT)),
                        ("--to", dict(dest="dst", **_REQUIRED_WEIGHT)),
                        ("--char", dict(required=True, help="comma-separated "
                                        "<element>:<coefficient> terms"))],
                       _cmd_translate_char),
    "verify-lemma": ("required", "exhaustive check of the translation weight geometry",
                     [("--lam", _REQUIRED_WEIGHT), ("--mu", _REQUIRED_WEIGHT),
                      ("--element", dict(required=True)),
                      ("--bound", dict(type=int, required=True))],
                     _cmd_verify_lemma),
    "admissible": ("required", "regular integral alcove weights",
                   [], _cmd_admissible),
    "generator": ("required", "label of the singular generator over weight 0",
                  [], _cmd_generator),
    "transport": ("required", "re-base a submodule label set from 0 to another weight",
                  [("--to", _REQUIRED_WEIGHT),
                   ("--generators", dict(default="", help="comma-separated group "
                                         "elements (may be empty)"))],
                  _cmd_transport),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``only`` when it names one; the usage and the error
    texts read the same either way."""
    parser = argparse.ArgumentParser(
        prog="afftrans",
        description="Exact weight, alcove and translation combinatorics "
                    "for simple Lie algebras at rational shifted level.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("records", "json-lines"),
                        default="records", help="output mode")
    common.add_argument("--cap", type=int, default=None,
                        help="dimension guard for tensor computations")
    leveled = argparse.ArgumentParser(add_help=False)
    group = leveled.add_mutually_exclusive_group()
    group.add_argument("--level", help="shifted level p/q")
    group.add_argument("--k", help="unshifted level; converted by adding "
                                   "the dual Coxeter number")

    sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS))
    for name, (policy, help_text, arguments, _) in _COMMANDS.items():
        if only not in (None, name):
            continue
        parents = [common] if policy is None else [common, leveled]
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.add_argument("type", type=_type_arg, help="root system, e.g. A2")
        for arg, keywords in arguments:
            p.add_argument(arg, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    rs = args.type
    policy, _, _, handler = _COMMANDS[args.command]
    try:
        for value in vars(args).values():  # every parsed weight argument
            if isinstance(value, Weight) and len(value) != rs.rank:
                raise UsageError(f"weight {value} has wrong rank for {rs.spec}")
        level = _resolve_level(args, rs)
        if level is None and policy == "required":
            raise UsageError(f"'{args.command}' requires --level or --k")
        _warn_lattice(rs, level)
        _emit(handler(args, rs, level), args.format)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AfftransError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
