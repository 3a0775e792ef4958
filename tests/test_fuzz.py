"""A seeded fuzz of the command line.  Random expressions over every node kind
of the curve grammar (numbers, variables, + - * /, unary signs, ^ with
exponents of up to 25 digits, every function, parentheses), over the atoms
1e308, 1e-320, 1e400, 0 and a 30-digit integer, nested up to depth 4, run
through `cli.main` for certify, select, lift (A:1, B:2, D:3, I2:3) and
harness at level 4.  Every input must end in a report (exit 0 or 3) with
nothing on stderr, or in exactly one `error:` line (exit 2): no traceback,
no argparse usage (the curves are passed in the `--curve=` form, since a
value that starts with '-' reads as an option) and no numpy warning."""

import random
import warnings

import pytest

from orbitlift.cli import main

EXTREME = ["1e308", "1e-320", "1e400", "0", "123456789012345678901234567890"]
PLAIN = ["2", "0.5", "3.25", "1"]
FUNCTIONS = {"abs": 1, "sin": 1, "cos": 1, "exp": 1, "pow": 2, "powabs": 2}
LIFT_GROUPS = {"A:1": 2, "B:2": 2, "D:3": 3, "I2:3": 2}  # group: dimension


def expression(rng: random.Random, depth: int, variables: tuple[str, ...]) -> str:
    """A random expression of at most `depth` levels of nesting."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return rng.choice(EXTREME)
        return rng.choice(PLAIN + list(variables) * 2)
    kind = rng.randrange(6)

    def sub():
        return expression(rng, depth - 1, variables)

    if kind == 0:
        return f"{sub()}{rng.choice('+-*/')}{sub()}"
    if kind == 1:
        return rng.choice(["-", "+", "--", "-+"]) + sub()
    if kind == 2:
        digits = rng.choice([1, 1, 2, 3, 25])
        exponent = str(rng.randrange(10 ** digits)) if digits < 25 else "9" * rng.randrange(18, 26)
        return f"({sub()})^{exponent}"
    if kind == 3:
        name = rng.choice(sorted(FUNCTIONS))
        args = [sub()]
        if FUNCTIONS[name] == 2:
            # mostly a constant exponent, as pow and powabs need; sometimes not
            args.append(expression(rng, depth - 1, ()) if rng.random() < 0.8 else sub())
        return f"{name}({','.join(args)})"
    if kind == 4:
        return f"({sub()})"
    return sub()


def commands(seed: int, count: int):
    """`count` command lines per subcommand and group, from one seed."""
    rng = random.Random(seed)

    def curve(k):
        return ",".join(expression(rng, 4, ("t",)) for _ in range(k))

    for _ in range(count):
        yield ["certify", f"--curve={curve(1)}", "--level", "4"]
        yield ["select", f"--curve={curve(rng.choice([2, 3]))}", "--level", "4"]
        for group, dim in LIFT_GROUPS.items():
            yield ["lift", "--group", group, f"--curve={curve(dim)}", "--level", "4"]
        gmap = ";".join(expression(rng, 4, ("u", "v")) for _ in range(2))
        yield ["harness", "--group", "B:2", f"--gmap={gmap}", "--probes", "3", "--level", "4"]


def outcome(argv, capsys) -> str:
    """'' if argv ended in a report or in one error line, else what went wrong."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    if code in (0, 3):
        return f"exit {code} with stderr {err!r}" if err else ""
    if code != 2 or err.count("\n") != 1 or not err.startswith("error: "):
        return f"exit {code} with stderr {err!r}"
    return ""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_input_ends_in_a_report_or_one_error_line(seed, capsys):
    failures = [(argv, why) for argv in commands(seed, 12) if (why := outcome(argv, capsys))]
    assert not failures, failures[:3]


@pytest.mark.parametrize("argv, error", [
    # the derivative of the row overflows before the certificate's errstate
    (["roots", "--poly", "1e308,1,1"], "error: the roots, or the recentred polynomial, overflow (degree 3)\n"),
    # the block rebuild evaluates a row whose values overflow
    (["lift", "--group", "D:3", "--curve=t,1e308,4", "--level", "4"],
     "error: curve value not in the orbit-map image at t=-1.0\n"),
    # the range of values up to 1e308 overflows
    (["select", "--curve=1e308*t,0", "--level", "4"],
     "error: domain [-1.0, 1.0] is too short for level 4: the difference quotients of values up to 1e+308"
     " overflow\n"),
])
def test_found_inputs_end_in_one_error_line_without_a_warning(argv, error, capsys):
    assert outcome(argv, capsys) == ""
    assert main(argv) == 2 and capsys.readouterr().err == error


def test_a_lift_whose_squared_steps_overflow_reads_its_step(capsys):
    # roots near 3e200 + 1e200 t and 1e300 over that: steps of 1.25e199,
    # whose squares overflow while their norms do not
    argv = ["lift", "--group", "A:1", "--curve=3e200+t*1e200,1e300", "--level", "4"]
    assert outcome(argv, capsys) == ""
    assert main(argv) == 0
    assert "max-step: 1.2500000000000012e+199\ncontinuity-ok: true\n" in capsys.readouterr().out
