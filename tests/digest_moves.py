"""How the outputs pinned in test_cli.py move between two source trees.

    python tests/digest_moves.py OTHER_SRC

runs every pinned argv of test_cli.py once under OTHER_SRC (another
checkout's src directory, say the parent commit's) and once under this
checkout's src, each in a fresh interpreter.  For each output stream it
prints whether the bytes moved and whether this tree's bytes match the pin;
for each CSV block of a moved stream (a header line and the rows below it)
it prints how many value cells moved and the largest move over the block's
peak |value|.  The axis columns t, x and m are not value cells.

pytest does not collect this file.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
AXES = {"t", "x", "m"}


def pinned():
    """(name, argv, stdout digest, stderr digest or None) of every pinned command."""
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
    import test_cli as t

    yield "golden_sample_path", t.GOLDEN_PATH_ARGV, t.GOLDEN_PATH_SHA256, None
    yield "ensemble_sigma_zero", *t.GOLDEN_ENSEMBLE_SIGMA0_SHA256, None
    yield "ensemble_19", *t.GOLDEN_ENSEMBLE_19_SHA256, None
    for name, (argv, digest) in t.GOLDEN_ANALYTIC_SHA256.items():
        yield name, argv, digest, None
    for name, (argv, out_digest, err_digest) in t.GOLDEN_WRITER_SHA256.items():
        yield name, argv, out_digest, err_digest


def run(src, argv):
    """(stdout, stderr) of the CLI on argv in a fresh interpreter on src."""
    probe = ("import sys\nfrom fracfield.cli import main\n"
             f"sys.exit(main({json.dumps(argv)}))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=600, check=True)
    return done.stdout, done.stderr


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def blocks(text):
    """[(header, rows)] of the CSV blocks in text: a line whose first field
    is no number starts a block."""
    out = []
    for line in text.splitlines():
        cells = line.split(",")
        if _number(cells[0]) is None or not out:
            out.append((cells, []))
        else:
            out[-1][1].append(cells)
    return out


def block_moves(old, new):
    """Lines describing, block by block, how the value cells of new moved from old."""
    old_blocks, new_blocks = blocks(old), blocks(new)
    if [(h, len(r)) for h, r in old_blocks] != [(h, len(r)) for h, r in new_blocks]:
        return ["    the CSV layout changed"]
    lines = []
    for i, ((header, rows), (_, new_rows)) in enumerate(zip(old_blocks, new_blocks), 1):
        cols = [j for j, name in enumerate(header) if name not in AXES]
        pairs = [(_number(a[j]), _number(b[j])) for a, b in zip(rows, new_rows) for j in cols]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            continue
        moved = [abs(b - a) for a, b in pairs if a != b]
        peak = max(abs(a) for a, _ in pairs)
        ratio = max(moved, default=0.0) / (peak or 1.0)  # absolute in an all-zero block
        lines.append(f"    block {i} ({','.join(header)}): {len(moved)} of {len(pairs)} cells "
                     f"moved, max |moved| / peak {ratio:.2g}")
    return lines


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    other, this = os.path.abspath(argv[0]), os.path.join(os.path.dirname(HERE), "src")
    for name, cmd, out_digest, err_digest in pinned():
        olds, news = run(other, cmd), run(this, cmd)
        for stream, old, new, digest in zip(("stdout", "stderr"), olds, news,
                                            (out_digest, err_digest)):
            if not old and not new:
                continue
            pin = ("" if digest is None else
                   "  pin ok" if hashlib.sha256(new.encode()).hexdigest() == digest else
                   f"  pin differs, now {hashlib.sha256(new.encode()).hexdigest()}")
            print(f"{name} {stream}: {'moved' if old != new else 'unchanged'}{pin}")
            if old != new:
                print("\n".join(block_moves(old, new)))


if __name__ == "__main__":
    main(sys.argv[1:])
