"""CLI round trips with scipy blocked: nspyr runs on numpy alone.

Usage::

    python tests/scipy_free_round_trip.py WORKDIR [--open]

Blocks scipy (``sys.modules["scipy"] = None`` makes every import of it
raise ImportError), imports nspyr, and runs ``decompose`` and
``reconstruct`` through ``nspyr.cli.main`` on a small closed curve and
on a finite sequence, writing into WORKDIR.  Exits 0 when both round
trips reproduce their input within 1e-12 and no scipy module was loaded.
``--open`` leaves scipy importable and checks that nothing imported it.
"""

import sys

BLOCKED = "--open" not in sys.argv[1:]
if BLOCKED:
    sys.modules["scipy"] = None

import os  # noqa: E402

import numpy as np  # noqa: E402

import nspyr  # noqa: E402
from nspyr.cli import main as cli  # noqa: E402


def round_trip(workdir, name, write, read, *options):
    sent = os.path.join(workdir, name + ".csv")
    pyramid = os.path.join(workdir, name + ".json")
    back = os.path.join(workdir, name + "_back.csv")
    write(sent)
    for argv in (["decompose", "--in", sent, "--out", pyramid, *options],
                 ["reconstruct", "--in", pyramid, "--out", back]):
        code = cli(argv)
        if code != 0:
            sys.exit(f"{name}: {argv[0]} exited {code}")
    error = read(back, sent)
    print(f"{name} round-trip error {error:.3g}")
    if not error <= 1e-12:
        sys.exit(f"{name}: round-trip error {error:.3g} above 1e-12")


def curve_error(back, sent):
    a, b = nspyr.read_curve_csv(back), nspyr.read_curve_csv(sent)
    return float(np.abs(a.points - b.points).max())


def sequence_error(back, sent):
    a, b = nspyr.read_sequence_csv(back), nspyr.read_sequence_csv(sent)
    return max(abs(a[i] - b[i]) for i in b.indices().tolist())


def main(workdir):
    curve = nspyr.perturb_wavy(nspyr.sample_circle(64), amplitude=0.02,
                               frequency=5)
    round_trip(workdir, "curve",
               lambda path: nspyr.write_curve_csv(path, curve), curve_error,
               "--family", "conic", "--levels", "3")
    values = np.sin(0.3 * np.arange(40)) + 0.05 * np.arange(40)
    round_trip(workdir, "sequence",
               lambda path: nspyr.write_sequence_csv(
                   path, nspyr.FinSeq(values, -7)),
               sequence_error,
               "--family", "nscubic", "--levels", "2")
    if BLOCKED:
        del sys.modules["scipy"]
    loaded = sorted(name for name in sys.modules
                    if name.split(".")[0] == "scipy")
    if loaded:
        sys.exit(f"scipy modules loaded: {loaded}")


if __name__ == "__main__":
    main(sys.argv[1])
