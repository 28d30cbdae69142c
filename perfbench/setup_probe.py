"""Child process for ``setup_s``: a fresh interpreter up to the first frame.

Imports dynafeat from the checkout, runs ``dynafeat match`` through the CLI
entry point (argument parsing, config load, input listing) and stops once
the first frame has been read. The parent times this process from spawn to
exit.

Usage: python3 perfbench/setup_probe.py <src dir> <config> <input dir> <output dir>
"""

import sys

src, config, inputs, out_dir = sys.argv[1:5]
sys.path.insert(0, src)

from dynafeat import cli, pipeline  # noqa: E402


class FirstFrameRead(BaseException):
    """Stops the run; a BaseException so the CLI's error mapping lets it pass."""


def read_first_frame(config, sources, **_):
    pipeline.load_frame(config, list(sources)[0], 0)
    raise FirstFrameRead


cli.run_sequence = read_first_frame
try:
    cli.main(["match", config, inputs, "--output-dir", out_dir])
except FirstFrameRead:
    sys.exit(0)
sys.exit(1)
