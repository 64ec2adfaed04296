"""Command-line interface: tables in CSV and single reports in JSON by default.

Subcommands:

* ``recurrence-run``: iterate a purification protocol, one row per round.
* ``thresholds``: purification regimes and worst tolerable gate noise.
* ``hashing``: minimum fidelities, noise thresholds, finite-size sweeps.
* ``ghz``: multiparty hashing yields.
* ``oracle-check``: the round maps against literal gates on pure
  Bell-product inputs.

All numbers are printed with 12 significant digits; every command is
deterministic given its flags (and ``--seed`` where randomness is
involved).  Exit codes: 0 success, 1 I/O failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Iterable, Sequence
from json.encoder import encode_basestring_ascii

import numpy as np

from . import hashing, multipartite, oracle, recurrence
from .indices import is_prime, primes_in
from .states import PRESET_KINDS, StatePreset, make_preset, read_json_file, read_state_file

__all__ = [
    "cmd_ghz",
    "cmd_hashing",
    "cmd_oracle_check",
    "cmd_recurrence_run",
    "cmd_thresholds",
    "main",
]


# The --protocol values: THREE_COPY -> three-copy.
PROTOCOL_NAMES = {p.lower().replace("_", "-"): p for p in recurrence.PROTOCOLS}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


_BOOLS = ("false", "true")
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Per format: the separator of two rows, the text of any value, and per exact
# value type a printf code, or a function for %s, that gives that text faster.
_FORMATS = {
    "csv": ("\n", _fmt, {int: "%d", float: "%.12g", str: "%s", bool: _BOOLS.__getitem__}),
    "json": (",\n", json.dumps, {
        int: "%d", float: lambda v: _NON_FINITE.get(text := float.__repr__(v), text),
        str: encode_basestring_ascii, bool: _BOOLS.__getitem__}),
}


@functools.lru_cache(maxsize=64)  # keyed by constant texts too, so bounded
def _row_formatter(fmt: str, header: tuple, constants: tuple, types: tuple):
    """The text of a block of rows of these value ``types`` in _table's
    ``fmt``: one printf template per row, with each ``(name, text)`` of
    ``constants`` written into it.  JSON keys go in sorted order.  Values with
    no printf code, and columns the keys reorder, go through a column at a time."""
    sep, fallback, codes = _FORMATS[fmt]
    codes = [codes.get(t, fallback) for t in types]
    constants = dict(constants)
    column = dict(zip([name for name in header if name not in constants], range(len(types))))
    parts, order = [], []
    for name in sorted(header) if fmt == "json" else header:
        if name in constants:
            text = constants[name]
        elif name in column:
            order.append(column[name])
            text = "%s" if callable(codes[order[-1]]) else codes[order[-1]]
        else:
            continue
        parts.append(text if fmt == "csv" else
                     f"\n    {encode_basestring_ascii(name).replace('%', '%%')}: {text}")
    template = ",".join(parts) if fmt == "csv" else "  {%s\n  }" % ",".join(parts)
    convert = [c if callable(c) else None for c in codes]
    if not any(convert) and order == sorted(order):
        return lambda rows: sep.join(map(template.__mod__, rows))

    def text(rows):
        columns = [map(f, c) if f else c for f, c in zip(convert, zip(*rows))]
        return sep.join(map(template.__mod__, zip(*map(columns.__getitem__, order))))
    return text


# Rows a table formats at a time: a long table never holds all its row
# tuples, CSV lines or JSON records at once, only its text.
_ROW_BLOCK = 1024


def _blocks(rows: Iterable[tuple]):
    """``rows`` as lists of at most _ROW_BLOCK rows, taken as each is needed."""
    rows = iter(rows)
    while block := list(itertools.islice(rows, _ROW_BLOCK)):
        yield block


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _table(fmt: str | None, header: list[str], rows: Iterable[tuple],
           types: tuple | None = None, /, **constants) -> str:
    """CSV text (the default) with _fmt's text of each value, or JSON records
    as json.dumps(indent=2, sort_keys=True) prints them.  ``constants`` are the
    columns with one value on every row, which ``rows`` leave out; ``types``,
    when given, are the value types of every row, else each row takes its own."""
    fmt = "json" if fmt == "json" else "csv"
    sep, fallback = _FORMATS[fmt][:2]
    # Texts, not values, key the cache: -0.0 == 0.0 and True == 1.
    key = (fmt, tuple(header), tuple((k, fallback(v).replace("%", "%%"))
                                     for k, v in constants.items()))
    if types is None:
        def text(block):
            return sep.join(_row_formatter(*key, tuple(map(type, row)))([row]) for row in block)
    else:
        text = _row_formatter(*key, types)
    if fmt == "csv":
        return "\n".join([",".join(header), *map(text, _blocks(rows)), ""])
    records = ",\n".join(map(text, _blocks(rows)))
    return f"[\n{records}\n]\n" if records else "[]\n"


def _record(fmt: str | None, obj: dict) -> str:
    if fmt == "csv":
        return _table(fmt, list(obj), [tuple(obj.values())])
    return _json(obj)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# Most values one range in a flag may stand for, checked from its bounds
# before anything is built (the largest in use, 10:1000000:20, has 50,000),
# and most rows of a ghz (d, N, F) grid.
MAX_RANGE_VALUES = 10**6


def _check_range_size(count: int, text: str) -> None:
    if count > MAX_RANGE_VALUES:
        raise ValueError(f"range {text!r} has {count} values, over {MAX_RANGE_VALUES}")


def _numbers(kind, parts, form: str, text: str) -> list:
    """``kind`` of each of ``parts``, or a ValueError that says ``text``
    must look like ``form``."""
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise ValueError(f"{form}, got {text!r}") from None


def _parse_int_list(text: str) -> list[int]:
    """Parse "2", "2,3,5" or "a..b" (inclusive) into a sorted int list."""
    form = "integer list must look like 2,3,5 or a..b"
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = _numbers(int, part.split("..", 1), form, text)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            _check_range_size(hi - lo + 1, part)
            values.extend(range(lo, hi + 1))
        elif part:
            values.extend(_numbers(int, [part], form, text))
    if not values:
        raise ValueError(f"no values in {text!r}")
    return sorted(set(values))


def _parse_d_range(text: str) -> list[int]:
    """Like :func:`_parse_int_list`, plus "primes:a..b" for primes only."""
    if text.startswith("primes:"):
        form = "primes range must look like primes:a..b with integers a and b"
        bounds = text[len("primes:"):].split("..")
        if len(bounds) != 2:
            raise ValueError(f"{form}, got {text!r}")
        lo, hi = _numbers(int, bounds, form, text)
        _check_range_size(hi - lo + 1, text)
        values = primes_in(lo, hi)
        if not values:
            raise ValueError(f"no primes in range {text!r}")
        return values
    return _parse_int_list(text)


class _FloatGrid(Sequence):
    """``np.linspace(lo, hi, n).tolist()``, made _ROW_BLOCK values at a time in
    linspace's arithmetic, so that a long grid is never held whole."""

    def __init__(self, lo: float, hi: float, n: int):
        self.lo, self.hi, self.n = lo, hi, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> float:
        i = range(self.n)[i]
        return self._block(i, i + 1)[0]

    def __iter__(self):
        for i in range(0, self.n, _ROW_BLOCK):
            yield from self._block(i, min(i + _ROW_BLOCK, self.n))

    def _block(self, start: int, stop: int) -> list[float]:
        """``i * step + lo``, ``(i / div) * delta + lo`` where the step underflows to 0."""
        i, div, delta = np.arange(start, stop, dtype=float), max(self.n - 1, 1), self.hi - self.lo
        y = (i / div * delta if delta / div == 0 else i * (delta / div)) + self.lo
        if stop == self.n > 1:
            y[-1] = self.hi  # the last point is hi
        return y.tolist()


def _parse_float_grid(text: str) -> Sequence[float]:
    """Parse "x", "x,y,z" or "lo:hi:count" (a :class:`_FloatGrid`) into floats."""
    if not text.replace(",", "").strip():
        raise ValueError(f"no values in {text!r}")
    if ":" in text:
        form = "grid must look like lo:hi:count with an integer count"
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{form}, got {text!r}")
        lo, hi = _numbers(float, parts[:2], form, text)
        (count,) = _numbers(int, parts[2:], form, text)
        if count < 1:
            raise ValueError(f"grid count must be positive, got {count}")
        _check_range_size(count, text)
        return _FloatGrid(lo, hi, count)
    form = "grid must look like x,y,z or lo:hi:count with numbers"
    return _numbers(float, [p for p in text.split(",") if p.strip()], form, text)


def _parse_sweep(text: str) -> range:
    """Parse "lo:hi" or "lo:hi:step" into an inclusive integer sweep."""
    form = "sweep must look like lo:hi[:step] with integers"
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"{form}, got {text!r}")
    lo, hi, step = _numbers(int, (parts + ["1"])[:3], form, text)  # step 1 by default
    if step < 1 or hi < lo:
        raise ValueError(f"invalid sweep {text!r}")
    _check_range_size((hi - lo) // step + 1, text)
    return range(lo, hi + 1, step)


def _load_initial_state(args):
    if args.state_file is not None:
        return read_state_file(args.state_file)
    if args.d is None or args.F is None:
        raise ValueError("need either --state-file or both --d and --F")
    preset = StatePreset(kind=args.preset, F=args.F, x_weight=args.x_weight)
    return make_preset(preset, args.d)


def cmd_recurrence_run(args) -> str:
    """Iterate one protocol and tabulate the trajectory."""
    state = _load_initial_state(args)
    protocol = PROTOCOL_NAMES[args.protocol]
    noise = recurrence.NoiseParams(Q=args.Q)
    traj = recurrence.run_protocol(
        protocol, state, noise, epsilon=args.epsilon, max_iters=args.max_iters
    )
    rows = [(0, "INIT", state.fidelity, 1.0, 1.0)]
    rows.extend(
        (i, s.step, s.state.fidelity, s.success_prob, s.cumulative_yield)
        for i, s in enumerate(traj.steps, start=1)
    )
    header = ["iter", "step", "F", "success_prob", "cum_yield"]
    if args.format == "json":
        return _json(
            {
                "protocol": protocol,
                "Q": args.Q,
                "target_fidelity": traj.target_fidelity,
                "reached_target": traj.reached_target,
                "stop_reason": traj.stop_reason,
                "steps": [dict(zip(header, r)) for r in rows],
            }
        )
    return _table("csv", header, rows)


def cmd_thresholds(args) -> str:
    """Tabulate noise thresholds and purification regimes per dimension."""
    protocol = PROTOCOL_NAMES[args.protocol]
    _check_range_size(args.grid, "--grid")  # the scans hold one lane per grid point
    d_values = _parse_d_range(args.d_range)
    table = recurrence.threshold_table(protocol, d_values, args.Q, args.preset, q_tol=args.q_tol,
                                       grid=args.grid, iterations=args.iterations)
    rows = [(d, q_th, regime.F_min, regime.F_max, regime.purifiable)
            for d, (q_th, regime) in zip(d_values, table)]
    header = ["d", "protocol", "Q", "Q_th", "F_min", "F_max", "purifiable"]
    return _table(args.format, header, rows, (int, float, float, float, bool),
                  protocol=protocol, Q=args.Q)


def cmd_hashing(args) -> str:
    """Hashing yields: minimum fidelity, noise thresholds, or block sweeps."""
    modes = [args.fmin, args.threshold, args.n_sweep is not None, args.n is not None]
    if sum(bool(m) for m in modes) != 1:
        raise ValueError("pick exactly one of --fmin, --threshold, --n-sweep, --n")

    if args.fmin:
        if args.d is None:
            raise ValueError("--fmin needs --d")
        return _record(args.format, {"d": args.d, "F_min": hashing.min_fidelity(args.d)})

    if args.threshold:
        if not args.d_range and args.d is None:
            raise ValueError("--threshold needs --d or --d-range")
        d_values = _parse_d_range(args.d_range) if args.d_range else [args.d]
        rows = []
        for d in d_values:
            if not is_prime(d):
                raise ValueError(f"hashing thresholds need prime d, got {d}")
            F_min = hashing.min_fidelity(d)
            p_min, q_min = hashing.noisy_thresholds(d)
            rows.append((d, F_min, p_min, q_min, hashing.universal_threshold(d)))
        header = ["d", "F_min", "p_min", "q_min", "universal_q_th"]
        return _table(args.format, header, rows, (int, float, float, float, float))

    if args.d is None or args.F is None:
        raise ValueError("finite-size hashing needs --d and --F")

    if args.n is not None:
        return _record(args.format, hashing.finite_size_report(args.d, args.n, args.F, args.delta))

    ns = _parse_sweep(args.n_sweep)
    header = ["n", "delta", "S", "r", "yield", "p1_bound", "p2", "F_out_bound"]
    # The sweep's columns a block at a time; the first block checks every
    # input.  Each block binds S, the one value of its S column, which goes
    # into the row template once.
    blocks = (hashing.finite_size_columns(args.d, ns[i:i + _ROW_BLOCK], args.F, args.delta)
              for i in range(0, len(ns), _ROW_BLOCK))
    rows = itertools.chain.from_iterable(zip(*map(c.get, header[:2] + header[3:]))
                                         for c in blocks if [S := c["S"][0]])
    first = next(rows)
    # Each column holds values of one type, so every row has the first row's.
    return _table(args.format, header, itertools.chain([first], rows), tuple(map(type, first)), S=S)


def cmd_ghz(args) -> str:
    """Multiparty hashing yields over a (d, N, F) grid or one explicit state."""
    if args.state_file is not None:
        state = multipartite.ghz_from_json(read_json_file(args.state_file))
        h_phase, h_amp = multipartite.index_entropies(state)
        report = {
            "d": state.d,
            "N": state.N,
            "F": state.fidelity,
            "H_phase": h_phase,
            "H_amp_max": h_amp,
            "yield": multipartite.multipartite_yield(state),
            "index_correlation": multipartite.index_correlation(state),
        }
        return _record(args.format, report)

    ds = _parse_d_range(args.d_list)
    Ns = _parse_int_list(args.N_list)
    Fs = _parse_float_grid(args.F_grid)
    count = len(ds) * len(Ns) * len(Fs)
    if count > MAX_RANGE_VALUES:
        raise ValueError(f"ghz grid has {len(ds)} x {len(Ns)} x {len(Fs)} = {count} rows,"
                         f" over {MAX_RANGE_VALUES}")
    rows = ((d, N, F, multipartite.isotropic_yield_formula(d, N, F))
            for d in ds for N in Ns for F in Fs)
    header = ["d", "N", "F", "yield"]
    return _table(args.format, header, rows, (int, int, float, float))


def cmd_oracle_check(args) -> str:
    """Score the round maps through the oracle's transfer tensor of pure
    Bell-product inputs; reports max deviations per check."""
    if args.format == "csv":
        raise ValueError(f"oracle-check writes only JSON, not --format {args.format}")
    return _json(oracle.run_checks(_parse_int_list(args.d), args.trials, args.seed))


def _add_output_flags(sub) -> None:
    sub.add_argument("--output", default="-", help="output path, or - for stdout")
    sub.add_argument("--format", choices=("csv", "json"))


@functools.cache  # once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditpure",
        description="Entanglement purification analysis for d-level systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recurrence-run", help="iterate a purification protocol")
    p.add_argument("--d", type=int)
    p.add_argument("--preset", choices=PRESET_KINDS, default="isotropic")
    p.add_argument("--F", type=float)
    p.add_argument("--x-weight", dest="x_weight", type=float, default=StatePreset.x_weight)
    p.add_argument("--state-file")
    p.add_argument("--protocol", choices=tuple(PROTOCOL_NAMES), default="p1p2")
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=200)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_recurrence_run)

    p = sub.add_parser("thresholds", help="noise thresholds and regimes")
    p.add_argument("--protocol", choices=tuple(PROTOCOL_NAMES), default="bbpssw")
    p.add_argument("--d-range", dest="d_range", default="2..8")
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--preset", choices=PRESET_KINDS, default="isotropic")
    p.add_argument("--q-tol", dest="q_tol", type=float, default=1e-3)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--iterations", type=int, default=160)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_thresholds)

    p = sub.add_parser("hashing", help="hashing yields and thresholds")
    p.add_argument("--d", type=int)
    p.add_argument("--d-range", dest="d_range")
    p.add_argument("--F", type=float)
    p.add_argument("--fmin", action="store_true",
                   help="print the minimal purifiable isotropic fidelity")
    p.add_argument("--threshold", action="store_true",
                   help="tabulate noisy-source thresholds")
    p.add_argument("--n", type=int, help="single finite-size report")
    p.add_argument("--n-sweep", dest="n_sweep",
                   help="block-size sweep lo:hi[:step]")
    p.add_argument("--delta", default="npow:-0.25",
                   help="typicality margin policy: fixed:x, npow:p, n_to_1")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_hashing)

    p = sub.add_parser("ghz", help="multiparty hashing yields")
    p.add_argument("--d-list", dest="d_list", default="2")
    p.add_argument("--N-list", dest="N_list", default="3")
    p.add_argument("--F-grid", dest="F_grid", default="0.9")
    p.add_argument("--state-file")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_ghz)

    p = sub.add_parser("oracle-check", help="round and label maps against literal gates")
    p.add_argument("--d", default="2,3", help="dimensions, e.g. 2,3")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=12345)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
        _write_output(args.output, text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # A scalar route takes any d, until its float arithmetic overflows.
        print(f"error: input beyond float range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A matrix route allocates d x d arrays, which a large d cannot get.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
